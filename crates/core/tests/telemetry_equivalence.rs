//! Zero-overhead contract for telemetry over the full training and
//! evaluation pipeline, plus agreement between the divergence guard's
//! [`stsm_core::ResilienceReport`] and the telemetry guard counters.
//!
//! `DESIGN.md` ("Telemetry") promises that `STSM_TELEMETRY` never changes
//! numeric results: a run with telemetry on must be bitwise identical —
//! parameters, epoch losses, evaluation metrics — to a run with it off.

use std::sync::Mutex;

use stsm_core::{
    evaluate_stsm, train_stsm, DistanceMode, OnlineConfig, OnlineTrainer, ProblemInstance,
    StsmConfig, TrainedStsm,
};
use stsm_synth::{space_split, FaultPlan, SplitAxis};
use stsm_tensor::telemetry;

/// Serializes tests that toggle the process-wide telemetry gate.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_dataset(seed: u64) -> stsm_synth::Dataset {
    stsm_synth::test_support::tiny_dataset("telem", seed)
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
fn train_and_evaluate_bitwise_identical_with_telemetry_on_and_off() {
    let _g = lock();
    let p = problem_from(tiny_dataset(71));
    let cfg = tiny_cfg(71);

    let (off_model, off_report) =
        telemetry::with_telemetry(false, || train_stsm(&p, &cfg).expect("trains"));
    let off_eval =
        telemetry::with_telemetry(false, || evaluate_stsm(&off_model, &p).expect("evaluates"));
    assert!(off_report.telemetry.is_none(), "disabled runs must not carry a snapshot");
    assert!(off_eval.telemetry.is_none());

    let (on_model, on_report) = telemetry::with_telemetry(true, || {
        telemetry::reset();
        train_stsm(&p, &cfg).expect("trains")
    });
    let on_eval =
        telemetry::with_telemetry(true, || evaluate_stsm(&on_model, &p).expect("evaluates"));

    assert_eq!(
        bits(&off_report.epoch_losses),
        bits(&on_report.epoch_losses),
        "telemetry changed the loss trajectory"
    );
    assert!(params_identical(&off_model, &on_model), "telemetry changed the trained parameters");
    assert_eq!(
        off_eval.metrics.rmse.to_bits(),
        on_eval.metrics.rmse.to_bits(),
        "telemetry changed evaluation results"
    );
    assert_eq!(off_eval.metrics.mae.to_bits(), on_eval.metrics.mae.to_bits());

    // The enabled run must surface a usable snapshot: per-epoch phase
    // histograms with one sample per epoch, and the per-window inference
    // latency histogram covering every evaluated window.
    let snap = on_report.telemetry.as_ref().expect("enabled run carries a snapshot");
    for hist in [
        "train.epoch",
        "train.epoch.gather",
        "train.epoch.forward",
        "train.epoch.backward",
        "train.epoch.step",
    ] {
        let h = snap.histograms.get(hist).unwrap_or_else(|| panic!("missing histogram {hist}"));
        assert_eq!(h.count, cfg.epochs as u64, "histogram {hist} missed epochs");
    }
    assert!(snap.spans.get("tape.backward").map_or(0, |s| s.calls) > 0);
    let eval_snap = on_eval.telemetry.as_ref().expect("enabled eval carries a snapshot");
    let infer_hist = eval_snap.histograms.get("infer.window").expect("infer.window histogram");
    assert!(
        infer_hist.count >= on_eval.windows as u64,
        "every evaluated window must record a latency sample ({} < {})",
        infer_hist.count,
        on_eval.windows
    );
}

/// The problem behind `seed`'s tiny dataset, with the resilience suite's
/// fault recipe applied: the observed region's readings are corrupted inside
/// the training period so the divergence guard has real work to do.
fn faulted_problem(seed: u64) -> ProblemInstance {
    let clean = tiny_dataset(seed);
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
    problem_from(faulted)
}

#[test]
fn guard_counters_match_resilience_report_under_faults() {
    let _g = lock();
    let p = faulted_problem(93);
    let mut cfg = tiny_cfg(93);
    cfg.guard.max_consecutive_bad = 2;

    let (_, report) = telemetry::with_telemetry(true, || {
        telemetry::reset();
        train_stsm(&p, &cfg).expect("training must survive corrupted data")
    });
    let res = &report.resilience;
    assert!(
        res.skipped_batches > 0 || res.rollbacks > 0,
        "fault plan produced no guard activity; the agreement check would be vacuous"
    );
    let snap = report.telemetry.as_ref().expect("enabled run carries a snapshot");
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("train.guard.skipped_batches"), res.skipped_batches);
    assert_eq!(counter("train.guard.rollbacks"), res.rollbacks);
    assert_eq!(counter("train.guard.skipped_epochs"), res.skipped_epochs.len() as u64);
}

/// Fine-tuning reports its guard activity under `online.guard.*` only: the
/// counters move exactly as `OnlineTrainer::resilience()` does, and no
/// `train.guard.*` counter moves.
#[test]
fn online_guard_counters_match_resilience_under_faults() {
    let _g = lock();
    let p = faulted_problem(93);
    let mut cfg = tiny_cfg(93);
    cfg.guard.max_consecutive_bad = 2;
    let (trained, _) = telemetry::with_telemetry(false, || train_stsm(&p, &cfg).expect("trains"));
    let online_cfg = OnlineConfig { replay_windows: usize::MAX, ..OnlineConfig::default() };
    let mut online = OnlineTrainer::from_trained(&p, &trained, online_cfg).expect("wraps");
    let before = online.resilience().clone();
    let snap = telemetry::with_telemetry(true, || {
        telemetry::reset();
        for _ in 0..3 {
            online.fine_tune_epoch(&p, p.train_time.end).expect("fine-tuning survives faults");
        }
        telemetry::snapshot()
    });
    let after = online.resilience();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(
        after.skipped_batches > before.skipped_batches,
        "fault plan produced no guard activity while fine-tuning; the check would be vacuous"
    );
    assert_eq!(
        counter("online.guard.skipped_batches"),
        after.skipped_batches - before.skipped_batches
    );
    assert_eq!(counter("online.guard.rollbacks"), after.rollbacks - before.rollbacks);
    assert_eq!(
        counter("online.guard.skipped_epochs"),
        (after.skipped_epochs.len() - before.skipped_epochs.len()) as u64
    );
    assert_eq!(counter("online.fine_tune_epochs"), 3);
    for name in
        ["train.guard.skipped_batches", "train.guard.rollbacks", "train.guard.skipped_epochs"]
    {
        assert_eq!(counter(name), 0, "{name} moved during fine-tuning");
    }
}
