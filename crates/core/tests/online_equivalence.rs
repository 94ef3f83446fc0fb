//! Online-vs-batch equivalence contract: one
//! `OnlineTrainer::fine_tune_epoch` from a checkpoint == the batch trainer
//! resumed from the same checkpoint for one epoch, bitwise in parameters
//! and loss (both run the one shared epoch body, so this checks the replay
//! slice and the checkpoint hand-off); a bounded replay horizon degrades
//! gracefully.

use stsm_core::{
    train_stsm_with, DistanceMode, OnlineConfig, OnlineTrainer, ProblemInstance, StsmConfig,
    TrainCheckpoint, TrainOptions, TrainedStsm,
};
use stsm_synth::{space_split, SplitAxis};

fn tiny_problem(seed: u64) -> ProblemInstance {
    let dataset = stsm_synth::test_support::tiny_dataset("online-eq", seed);
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

/// Resuming a checkpoint through `OnlineTrainer` and running one
/// fine-tune epoch with a full replay horizon is bitwise the batch
/// trainer's resumed epoch: same parameters, same loss.
#[test]
fn fine_tune_from_checkpoint_is_bitwise_batch_resume() {
    let p = tiny_problem(34);
    let cfg = tiny_cfg(34);
    let dir = std::env::temp_dir().join("stsm_online_eq");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("warm.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    // Train 2 of 4 epochs, snapshotting the boundary.
    let mut two = TrainOptions::checkpoint_to(&ckpt);
    two.stop_after_epoch = Some(2);
    train_stsm_with(&p, &cfg, &two).expect("partial run trains");

    // Load the 2-epoch snapshot *before* the batch resume run below
    // re-checkpoints over the same path.
    let ck = TrainCheckpoint::load(&ckpt).expect("checkpoint loads");
    assert_eq!(ck.epochs_done, 2);

    // Batch resume: run exactly epoch 2.
    let mut three = TrainOptions::resume_from(&ckpt);
    three.stop_after_epoch = Some(3);
    let (batch, batch_report) = train_stsm_with(&p, &cfg, &three).expect("resumes");
    assert_eq!(batch_report.resilience.resumed_from_epoch, Some(2));
    assert_eq!(batch_report.epoch_losses.len(), 3);

    // Online resume: same checkpoint, full replay horizon, neutral lr scale.
    let online_cfg = OnlineConfig { replay_windows: usize::MAX, lr_scale: 1.0, refresh_every: 1 };
    let mut online =
        OnlineTrainer::from_checkpoint(&p, &cfg, online_cfg, &ck).expect("online resume");
    assert_eq!(online.epochs_done(), 2);
    let loss = online.fine_tune_epoch(&p, p.train_time.end).expect("fine-tunes");
    assert_eq!(online.epochs_done(), 3);

    assert_eq!(
        loss.to_bits(),
        batch_report.epoch_losses[2].to_bits(),
        "online epoch loss must equal the batch-resumed epoch loss"
    );
    let snapshot = online.trained().expect("snapshot");
    assert!(
        params_identical(&batch, &snapshot),
        "one fine-tune epoch must land on the batch trajectory bit-for-bit"
    );

    // The exported checkpoint continues the same numbering.
    let ck2 = online.checkpoint();
    assert_eq!(ck2.epochs_done, 3);
    assert_eq!(ck2.epoch_losses.last().map(|l| l.to_bits()), Some(loss.to_bits()));

    // A mismatched config is rejected, not silently adapted.
    let other = tiny_cfg(35);
    assert!(OnlineTrainer::from_checkpoint(&p, &other, OnlineConfig::default(), &ck).is_err());
}

/// Bounded replay restricts the window pool: with a tiny horizon the
/// fine-tune epoch still runs, stays finite and advances the epoch counter
/// (graceful degradation, not equivalence).
#[test]
fn bounded_replay_fine_tune_stays_finite() {
    let p = tiny_problem(36);
    let cfg = tiny_cfg(36);
    let (trained, _) = train_stsm_with(&p, &cfg, &TrainOptions::default()).expect("trains");
    let online_cfg = OnlineConfig { replay_windows: 4, lr_scale: 0.5, refresh_every: 2 };
    let mut online = OnlineTrainer::from_trained(&p, &trained, online_cfg).expect("wraps");
    let before = online.epochs_done();
    for k in 0..2 {
        let loss = online.fine_tune_epoch(&p, p.train_time.end).expect("fine-tunes");
        assert!(loss.is_finite(), "replay-bounded epoch {k} produced non-finite loss");
    }
    assert_eq!(online.epochs_done(), before + 2);
    let snap = online.trained().expect("snapshot");
    assert!(snap.store.iter().all(|(_, _, t)| t.data().iter().all(|v| v.is_finite())));
}
