//! End-to-end bit-identity of STSM training across worker-thread counts:
//! the full pipeline (masking, DTW rebuild, forward, backward, clip, Adam)
//! must produce bitwise identical epoch losses whether the pool runs one
//! thread or several.

use stsm_core::{train_stsm, DistanceMode, ProblemInstance, StsmConfig};
use stsm_synth::{space_split, DatasetConfig, NetworkKind, SignalKind, SplitAxis};
use stsm_tensor::pool;

fn tiny_problem(seed: u64) -> ProblemInstance {
    let d = DatasetConfig {
        name: "tiny".into(),
        network: NetworkKind::Highway,
        sensors: 24,
        extent: 10_000.0,
        steps_per_day: 24,
        interval_minutes: 60,
        days: 8,
        kind: SignalKind::TrafficSpeed,
        latent_scale: 3_000.0,
        poi_radius: 300.0,
        seed,
    }
    .generate();
    let split = space_split(&d.coords, SplitAxis::Vertical, false);
    ProblemInstance::new(d, split, DistanceMode::Euclidean)
}

fn tiny_cfg() -> StsmConfig {
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
        ..Default::default()
    }
}

fn epoch_loss_bits(threads: usize) -> Vec<u32> {
    pool::with_max_threads(threads, || {
        let p = tiny_problem(77);
        let cfg = tiny_cfg();
        let (_, report) = train_stsm(&p, &cfg).expect("trains");
        report.epoch_losses.iter().map(|l| l.to_bits()).collect()
    })
}

#[test]
fn training_bitwise_identical_across_threads() {
    let reference = epoch_loss_bits(1);
    assert_eq!(reference.len(), 2);
    assert!(reference.iter().all(|&b| f32::from_bits(b).is_finite()));
    assert_eq!(epoch_loss_bits(3), reference, "epoch losses diverged for threads=3");
}
