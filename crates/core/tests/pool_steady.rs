//! Repeated fits and fine-tune epochs leave the buffer pool where they
//! found it: the pool admits only buffers it could have issued, so it stops
//! growing once a fit's working set is warm.
//!
//! The pool is process-global, so this check lives in its own test binary:
//! any other training running concurrently in the same process would move
//! the per-class occupancy the assertions below compare.

use stsm_core::{
    train_stsm_with, DistanceMode, OnlineConfig, OnlineTrainer, ProblemInstance, StsmConfig,
    TrainOptions,
};
use stsm_synth::{space_split, SplitAxis};
use stsm_tensor::{alloc, pool};

/// 24 sensors over 20 days (480 steps). The whole-series gathers
/// (`observed × 480` once per fit, `unmasked × 480` once per epoch) are
/// exact-capacity `Vec`s of a few thousand elements, not class sizes. A
/// round-down filing rule would add each of them to class 2¹¹ or 2¹², which
/// this model's training step leaves far below the per-class cap, so the
/// occupancy there would climb by one buffer per fit and per epoch.
fn problem() -> ProblemInstance {
    let dataset = stsm_synth::test_support::tiny_dataset_sized("pool-steady", 5, 24, 20);
    let split = space_split(&dataset.coords, SplitAxis::Vertical, false);
    ProblemInstance::new(dataset, split, DistanceMode::Euclidean)
}

fn cfg() -> StsmConfig {
    StsmConfig {
        t_in: 6,
        t_out: 6,
        hidden: 8,
        blocks: 1,
        gcn_depth: 2,
        epochs: 2,
        windows_per_epoch: 4,
        batch_windows: 2,
        top_k: 8,
        seed: 5,
        ..Default::default()
    }
}

#[test]
fn repeated_fits_and_fine_tunes_keep_pool_occupancy_steady() {
    // One thread: the occupancy a fit leaves behind is then a function of
    // its (deterministic) request sequence alone.
    pool::with_max_threads(1, || {
        let p = problem();
        let cfg = cfg();
        let mut after_fit = Vec::new();
        let mut trained = None;
        for _ in 0..3 {
            trained = Some(train_stsm_with(&p, &cfg, &TrainOptions::default()).expect("trains").0);
            after_fit.push(alloc::pooled_counts());
        }
        assert_eq!(after_fit[2], after_fit[1], "a third fit grew the pool");

        let trained = trained.expect("three fits ran");
        let mut online =
            OnlineTrainer::from_trained(&p, &trained, OnlineConfig::default()).expect("wraps");
        let mut after_epoch = Vec::new();
        for _ in 0..2 {
            online.fine_tune_epoch(&p, p.train_time.end).expect("fine-tunes");
            after_epoch.push(alloc::pooled_counts());
        }
        assert_eq!(after_epoch[1], after_epoch[0], "a second fine-tune epoch grew the pool");
    });
}
