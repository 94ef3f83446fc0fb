//! Zero-overhead contract for the telemetry registry at the kernel level.
//!
//! The contract under test is the one `DESIGN.md` ("Telemetry") promises:
//! telemetry on and telemetry off produce **bitwise identical** numeric
//! results — probes only ever read clocks and bump atomics, they never touch
//! tensor data — and while disabled no probe leaves a trace in the registry.
//!
//! Tests that flip the global telemetry state serialize on a local mutex so
//! the harness can run them on any number of test threads.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;
use stsm_tensor::nn::{uniform, Fwd, GruCell, Linear};
use stsm_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use stsm_tensor::{
    bmm, conv1d_dilated, csr_spmm, log_softmax_lastdim, matmul, sigmoid, softmax_lastdim,
    telemetry, CsrRowGroups, DenseLinMap, ParamBinder, ParamStore, Tape, Tensor,
};

/// Serializes tests that toggle the process-wide telemetry gate.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs every instrumented kernel once and returns all output bits.
fn kernel_sweep() -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(17);
    let a = uniform([7, 5], -1.0, 1.0, &mut rng);
    let b = uniform([5, 6], -1.0, 1.0, &mut rng);
    let ba = uniform([3, 4, 5], -1.0, 1.0, &mut rng);
    let bb = uniform([3, 5, 2], -1.0, 1.0, &mut rng);
    let x = uniform([2, 3, 9], -1.0, 1.0, &mut rng);
    let w = uniform([4, 3, 2], -1.0, 1.0, &mut rng);
    let logits = uniform([6, 8], -4.0, 4.0, &mut rng);
    // A 3×4 CSR matrix (row 1 empty) against a (4, 35) dense operand.
    let (row_ptr, col_idx) = ([0, 2, 2, 5], [0, 3, 1, 2, 3]);
    let values = uniform([5], -1.0, 1.0, &mut rng);
    let feats = uniform([4, 35], -1.0, 1.0, &mut rng);
    let groups = CsrRowGroups::new(&row_ptr, &col_idx, values.data());
    let spmm = csr_spmm(&groups, feats.data(), 35);
    // The fused gated GCN node, forward and backward, at a size whose
    // products take the packed two-panel path.
    let adj = Arc::new(DenseLinMap::new(uniform([16, 16], 0.0, 0.2, &mut rng)));
    let tape = Tape::new();
    let z = tape.leaf(uniform([16, 8, 16], -1.0, 1.0, &mut rng));
    let mut param = |dims: &[usize]| tape.leaf(uniform(dims, -0.5, 0.5, &mut rng));
    let (wv, bv, wg, bg) = (param(&[16, 16]), param(&[16]), param(&[16, 16]), param(&[16]));
    let gated = tape.gated_gcn(adj, z, (wv, bv), (wg, bg));
    tape.backward(tape.sum_all(tape.square(gated)));
    // A tensor over a foreign-capacity buffer (100 elements, not a class
    // size): the pool turns it away on drop, bumping `alloc.refused`.
    let foreign = Tensor::from_vec([10, 10], (0..100).map(|i| i as f32 * 0.05 - 2.5).collect());
    let foreign_bits = bits(&sigmoid(&foreign));
    drop(foreign);
    vec![
        bits(&matmul(&a, &b)),
        bits(&bmm(&ba, &bb)),
        bits(&conv1d_dilated(&x, &w, None, 2)),
        bits(&softmax_lastdim(&logits)),
        bits(&log_softmax_lastdim(&logits)),
        spmm.iter().map(|v| v.to_bits()).collect(),
        bits(&sigmoid(&logits)),
        bits(&tape.value(gated)),
        bits(&tape.grad(z).expect("gated_gcn gradient")),
        foreign_bits,
    ]
}

/// A short seeded training trajectory (forward + backward + Adam steps)
/// exercising the tape, pool and allocator probes; returns parameter bits.
fn train_trajectory() -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(23);
    let mut store = ParamStore::new();
    let fc = Linear::new(&mut store, "fc", 6, 4, &mut rng);
    let gru = GruCell::new(&mut store, "g", 4, 5, &mut rng);
    let mut opt = Adam::new(0.01);
    for step in 0..4 {
        let mut data_rng = StdRng::seed_from_u64(100 + step);
        let x = uniform([3, 7, 6], -1.0, 1.0, &mut data_rng);
        let tape = Tape::new();
        let mut binder = ParamBinder::new(&tape);
        let mut fwd = Fwd::new(&store, &mut binder);
        let xv = tape.constant(x);
        let h = fc.forward(&mut fwd, xv);
        let h = gru.forward_seq(&mut fwd, h);
        let loss = tape.sum_all(tape.square(h));
        tape.backward(loss);
        let mut grads = binder.grads();
        clip_grad_norm(&mut grads, 5.0);
        opt.step(&mut store, &grads);
    }
    store.iter().map(|(_, _, t)| bits(t)).collect()
}

#[test]
fn kernels_bitwise_identical_with_telemetry_on_and_off() {
    let _g = lock();
    let off = telemetry::with_telemetry(false, kernel_sweep);
    let on = telemetry::with_telemetry(true, kernel_sweep);
    assert_eq!(off, on, "telemetry must never change kernel outputs");
}

#[test]
fn training_bitwise_identical_with_telemetry_on_and_off() {
    let _g = lock();
    let off = telemetry::with_telemetry(false, train_trajectory);
    let on = telemetry::with_telemetry(true, train_trajectory);
    assert_eq!(off, on, "telemetry must never change a training trajectory");
}

#[test]
fn disabled_probes_record_nothing() {
    let _g = lock();
    telemetry::with_telemetry(false, || {
        telemetry::reset();
        kernel_sweep();
        train_trajectory();
        telemetry::count("overhead.test.counter", 3);
        let report = telemetry::snapshot();
        assert!(
            report.is_empty(),
            "disabled telemetry must record nothing, got:\n{}",
            report.render_table()
        );
        assert_eq!(telemetry::counter_value("overhead.test.counter"), 0);
        let (calls, nanos) = telemetry::span_totals("kernel.matmul");
        assert_eq!((calls, nanos), (0, 0));
    });
}

#[test]
fn enabled_probes_capture_kernel_and_tape_activity() {
    let _g = lock();
    telemetry::with_telemetry(true, || {
        telemetry::reset();
        kernel_sweep();
        train_trajectory();
        let report = telemetry::snapshot();
        for span in [
            "kernel.matmul",
            "kernel.bmm",
            "kernel.conv1d",
            "kernel.softmax",
            "kernel.spmm",
            "kernel.sigmoid",
            "kernel.gated_gcn",
            "tape.backward",
        ] {
            let s = report.spans.get(span).unwrap_or_else(|| panic!("missing span {span}"));
            assert!(s.calls > 0, "span {span} recorded no calls");
        }
        // The training loop allocates tensors, so the allocator counters
        // (fresh at minimum) must have moved.
        assert!(
            report.counters.get("alloc.fresh").copied().unwrap_or(0) > 0,
            "allocator instrumentation missing from snapshot"
        );
        // The sweep drops a foreign-capacity buffer, which the pool refuses.
        assert!(
            report.counters.get("alloc.refused").copied().unwrap_or(0) > 0,
            "refused-buffer counter missing from snapshot"
        );
        telemetry::reset();
        assert!(telemetry::snapshot().is_empty(), "reset must clear the registry");
    });
}
