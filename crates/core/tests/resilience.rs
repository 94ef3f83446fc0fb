//! Fault-tolerance integration tests: kill-and-resume determinism,
//! checkpoint file validation, divergence-guard survival of fault-injected
//! training data, and degraded-input inference.

use stsm_core::{
    evaluate_stsm, train_stsm, train_stsm_with, DistanceMode, Predictor, ProblemInstance,
    StsmConfig, StsmError, TrainCheckpoint, TrainOptions, TrainedStsm,
};
use stsm_synth::{space_split, FaultPlan, SplitAxis};

fn tiny_dataset(seed: u64) -> stsm_synth::Dataset {
    stsm_synth::test_support::tiny_dataset("resil", seed)
}

fn problem_from(dataset: stsm_synth::Dataset) -> ProblemInstance {
    let split = space_split(&dataset.coords, SplitAxis::Vertical, false);
    ProblemInstance::new(dataset, split, DistanceMode::Euclidean)
}

fn tiny_cfg(seed: u64) -> StsmConfig {
    StsmConfig {
        t_in: 6,
        t_out: 6,
        hidden: 8,
        blocks: 1,
        gcn_depth: 2,
        epochs: 4,
        windows_per_epoch: 8,
        batch_windows: 4,
        top_k: 8,
        seed,
        ..Default::default()
    }
}

/// Bitwise comparison of two trained models' parameters.
fn params_identical(a: &TrainedStsm, b: &TrainedStsm) -> bool {
    a.store.len() == b.store.len()
        && a.store.iter().zip(b.store.iter()).all(|((_, na, ta), (_, nb, tb))| {
            na == nb
                && ta.data().len() == tb.data().len()
                && ta.data().iter().zip(tb.data()).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn kill_and_resume_is_bit_identical() {
    let p = problem_from(tiny_dataset(91));
    let cfg = tiny_cfg(91);
    let dir = std::env::temp_dir().join("stsm_resilience_resume");
    std::fs::create_dir_all(&dir).unwrap();

    // Reference: one uninterrupted run, no checkpointing at all.
    let (plain, plain_report) = train_stsm(&p, &cfg).expect("trains");

    // Checkpointing on must not perturb training.
    let ckpt_a = dir.join("a.ckpt");
    let _ = std::fs::remove_file(&ckpt_a);
    let (with_ckpt, ckpt_report) =
        train_stsm_with(&p, &cfg, &TrainOptions::checkpoint_to(&ckpt_a)).expect("trains");
    assert_eq!(bits(&plain_report.epoch_losses), bits(&ckpt_report.epoch_losses));
    assert!(params_identical(&plain, &with_ckpt), "checkpointing changed the training result");
    assert_eq!(ckpt_report.resilience.checkpoints_written, cfg.epochs);

    // Kill after 2 of 4 epochs, then resume from the snapshot.
    let ckpt_b = dir.join("b.ckpt");
    let _ = std::fs::remove_file(&ckpt_b);
    let mut interrupted = TrainOptions::checkpoint_to(&ckpt_b);
    interrupted.stop_after_epoch = Some(2);
    let (_, partial) = train_stsm_with(&p, &cfg, &interrupted).expect("trains");
    assert_eq!(partial.epoch_losses.len(), 2);
    let (resumed, resumed_report) =
        train_stsm_with(&p, &cfg, &TrainOptions::resume_from(&ckpt_b)).expect("resumes");
    assert_eq!(resumed_report.resilience.resumed_from_epoch, Some(2));
    assert_eq!(
        bits(&plain_report.epoch_losses),
        bits(&resumed_report.epoch_losses),
        "resumed loss series must be bit-identical to the uninterrupted run"
    );
    assert!(
        params_identical(&plain, &resumed),
        "resumed final parameters must be bit-identical to the uninterrupted run"
    );
    assert_eq!(
        plain_report.mean_masked_similarity.to_bits(),
        resumed_report.mean_masked_similarity.to_bits()
    );
    assert_eq!(
        plain_report.mean_random_similarity.to_bits(),
        resumed_report.mean_random_similarity.to_bits()
    );
}

/// The Table 8 similarity means average over the epochs that ran: a run
/// stopped after 2 of 4 epochs reports what a 2-epoch run does, since each
/// epoch's masks depend only on `(seed, epoch)`.
#[test]
fn stopped_run_averages_similarities_over_epochs_run() {
    let p = problem_from(tiny_dataset(94));
    let cfg = tiny_cfg(94);
    let stopped = TrainOptions { stop_after_epoch: Some(2), ..TrainOptions::default() };
    let (_, cut) = train_stsm_with(&p, &cfg, &stopped).expect("trains");
    let (_, two) = train_stsm(&p, &StsmConfig { epochs: 2, ..cfg }).expect("trains");
    assert_eq!(cut.epoch_losses.len(), 2);
    assert_eq!(cut.mean_masked_similarity.to_bits(), two.mean_masked_similarity.to_bits());
    assert_eq!(cut.mean_random_similarity.to_bits(), two.mean_random_similarity.to_bits());
}

#[test]
fn corrupted_checkpoints_are_rejected_cleanly() {
    let p = problem_from(tiny_dataset(92));
    let cfg = tiny_cfg(92);
    let dir = std::env::temp_dir().join("stsm_resilience_corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.ckpt");
    let _ = std::fs::remove_file(&good);
    let mut two = TrainOptions::checkpoint_to(&good);
    two.stop_after_epoch = Some(2);
    train_stsm_with(&p, &cfg, &two).expect("trains");
    let full = std::fs::read_to_string(&good).unwrap();

    // Truncated file: cut the tail off (drops the end marker).
    let trunc = dir.join("trunc.ckpt");
    std::fs::write(&trunc, &full[..full.len() / 2]).unwrap();
    assert!(TrainCheckpoint::load(&trunc).is_err(), "truncated checkpoint must not load");
    assert!(
        train_stsm_with(&p, &cfg, &TrainOptions::resume_from(&trunc)).is_err(),
        "resume from a truncated checkpoint must error, not panic"
    );

    // Corrupted payload: damage a hex word mid-file.
    let corrupt = dir.join("corrupt.ckpt");
    std::fs::write(&corrupt, full.replacen("epoch_losses ", "epoch_losses zz", 1)).unwrap();
    assert!(TrainCheckpoint::load(&corrupt).is_err());

    // Garbage file.
    let garbage = dir.join("garbage.ckpt");
    std::fs::write(&garbage, "definitely not a checkpoint\n").unwrap();
    assert!(TrainCheckpoint::load(&garbage).is_err());
    assert!(train_stsm_with(&p, &cfg, &TrainOptions::resume_from(&garbage)).is_err());

    // A config with a different architecture must not resume from this
    // snapshot (caught as a fingerprint mismatch, or failing that, as a
    // parameter-layout mismatch).
    let mut other = tiny_cfg(92);
    other.hidden = 16;
    assert!(
        train_stsm_with(&p, &other, &TrainOptions::resume_from(&good)).is_err(),
        "resuming under a different architecture must be rejected"
    );

    // The good file still loads after all of that.
    assert!(TrainCheckpoint::load(&good).is_ok());
}

#[test]
fn guard_survives_fault_injected_training() {
    let clean = tiny_dataset(93);
    // Corrupt the *observed* region's readings inside the training period
    // (70% of 192 steps = 134 training steps). The split only depends on
    // coordinates, so it is identical for the clean and faulted datasets.
    let observed = problem_from(clean.clone()).observed;
    let plan = FaultPlan {
        seed: 7,
        nan_rate: 0.05,
        dropout_windows: 2,
        dropout_len: 6,
        spike_rate: 0.01,
        spike_scale: 1e4,
        sensors: Some(observed),
        time_range: Some(20..120),
    };
    let (faulted, log) = plan.apply(&clean);
    assert!(log.total() > 0, "the plan must actually corrupt something");
    let p = problem_from(faulted);
    let mut cfg = tiny_cfg(93);
    cfg.guard.max_consecutive_bad = 2;
    let (trained, report) = train_stsm(&p, &cfg).expect("training must survive corrupted data");
    assert!(
        report.epoch_losses.iter().all(|l| l.is_finite()),
        "no NaN may leak into the loss series: {:?}",
        report.epoch_losses
    );
    assert!(
        report.resilience.skipped_batches > 0 || report.resilience.rollbacks > 0,
        "corrupted batches must be counted, not silently stepped"
    );
    // The model must still produce finite forecasts.
    let eval = evaluate_stsm(&trained, &p).expect("evaluates");
    assert!(eval.metrics.rmse.is_finite());
}

#[test]
fn predictor_sanitizes_degraded_inputs() {
    let clean = tiny_dataset(94);
    let p_clean = problem_from(clean.clone());
    let cfg = tiny_cfg(94);
    let (trained, _) = train_stsm(&p_clean, &cfg).expect("trains");

    // Drop and corrupt observed readings inside the *test* period only
    // (training stays clean, so the same trained model applies).
    let test_start = p_clean.test_time.start;
    let test_end = p_clean.test_time.end;
    let plan = FaultPlan {
        seed: 11,
        nan_rate: 0.1,
        dropout_windows: 3,
        dropout_len: 8,
        sensors: Some(p_clean.observed.clone()),
        time_range: Some(test_start..test_end),
        ..FaultPlan::default()
    };
    let (faulted, log) = plan.apply(&clean);
    assert!(log.nan_readings + log.dropped_readings > 0);
    let p_faulted = problem_from(faulted);

    let eval = evaluate_stsm(&trained, &p_faulted).expect("evaluates degraded data");
    assert!(!eval.quality.is_clean(), "degraded inputs must be reported");
    assert!(eval.quality.non_finite > 0);
    assert!(eval.quality.imputed_blend + eval.quality.imputed_carry >= eval.quality.non_finite);
    assert!(!eval.quality.affected_sensors.is_empty());
    assert!(
        eval.metrics.rmse.is_finite(),
        "forecasts over sanitized inputs must be finite (rmse {})",
        eval.metrics.rmse
    );
}

#[test]
fn clean_inputs_take_the_untouched_fast_path() {
    let p = problem_from(tiny_dataset(95));
    let cfg = tiny_cfg(95);
    let (trained, _) = train_stsm(&p, &cfg).expect("trains");
    let mut a = Predictor::new(&trained, &p);
    let mut b = Predictor::new(&trained, &p);
    let abs_start = p.test_time.start;
    let unchecked = a.predict_window(&p, abs_start);
    let (checked, quality) = b.predict_window_checked(&p, abs_start);
    assert!(quality.is_clean());
    assert_eq!(quality.scanned, p.n_observed() * cfg.t_in);
    let ub: Vec<u32> = unchecked.data().iter().map(|v| v.to_bits()).collect();
    let cb: Vec<u32> = checked.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(ub, cb, "sanitized path must be bitwise identical on clean inputs");
}

#[test]
fn all_dark_windows_zero_fill_deterministically() {
    // The worst degraded input: every observed reading of the window is
    // non-finite, so neither the cross-sensor blend nor the in-window carry
    // has any information. The documented fallback is a deterministic
    // zero-fill (0.0 is the scaled mean), counted as `unrecoverable` so
    // callers can tell "forecast from model prior alone" apart from
    // "forecast from imputed data".
    let p = problem_from(tiny_dataset(97));
    let cfg = tiny_cfg(97);
    let (trained, _) = train_stsm(&p, &cfg).expect("trains");
    let mut pred = Predictor::new(&trained, &p);
    let n_src = p.n_observed() * cfg.t_in;
    let abs_start = p.test_time.start;

    let mut dark = vec![f32::NAN; n_src];
    let (out_dark, q) = pred.predict_sources_checked(&p, &mut dark, abs_start);
    assert_eq!(q.non_finite, n_src);
    assert_eq!(q.unrecoverable, n_src, "all-dark readings must be counted unrecoverable");
    assert_eq!(q.imputed_blend, 0);
    assert_eq!(q.imputed_carry, 0);
    assert!(dark.iter().all(|v| *v == 0.0), "fallback must be an exact zero-fill");
    assert!(out_dark.data().iter().all(|v| v.is_finite()));

    // Bitwise identical to explicitly feeding the zero window: the fallback
    // is a deterministic input transform, not a special model path.
    let mut zeros = vec![0.0f32; n_src];
    let (out_zero, q_zero) = pred.predict_sources_checked(&p, &mut zeros, abs_start);
    assert!(q_zero.is_clean());
    let db: Vec<u32> = out_dark.data().iter().map(|v| v.to_bits()).collect();
    let zb: Vec<u32> = out_zero.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(db, zb, "all-dark forecast must equal the zero-window forecast bitwise");

    // One all-dark sensor among finite neighbors is *not* unrecoverable:
    // the co-temporal blend reconstructs it.
    let mut one_dark = {
        let mut s = Vec::with_capacity(n_src);
        for &g in &p.observed {
            s.extend_from_slice(p.scaled_range(g, abs_start, abs_start + cfg.t_in));
        }
        s
    };
    one_dark[..cfg.t_in].fill(f32::NAN);
    let (_, q_one) = pred.predict_sources_checked(&p, &mut one_dark, abs_start);
    assert_eq!(q_one.non_finite, cfg.t_in);
    assert_eq!(q_one.imputed_blend, cfg.t_in);
    assert_eq!(q_one.unrecoverable, 0);
}

#[test]
fn typed_errors_reach_the_facade() {
    // The error type is part of the public API surface and must be
    // matchable by downstream serving code.
    let p = problem_from(tiny_dataset(96));
    let mut cfg = tiny_cfg(96);
    cfg.t_in = 500;
    cfg.t_out = 500;
    match train_stsm(&p, &cfg) {
        Err(StsmError::TrainingPeriodTooShort { span, needed }) => {
            assert!(span < needed);
            assert_eq!(needed, 1000);
        }
        other => panic!("expected TrainingPeriodTooShort, got {:?}", other.err()),
    }
    assert!(matches!(TrainedStsm::from_json("not json"), Err(StsmError::Serde(_))));
}
