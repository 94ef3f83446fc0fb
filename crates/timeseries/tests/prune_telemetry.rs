//! `dtw_top_q` reports its pruning statistics to the telemetry registry.
//!
//! Telemetry is a process-global switch with process-global counters, so
//! this check lives in its own test binary: any other `dtw_top_q` call
//! running concurrently in the same process would add to the `dtw.*`
//! counters and break the exact equalities below.

use stsm_tensor::telemetry;
use stsm_timeseries::dtw_top_q;

fn wavy(n: usize, t: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|s| {
            (0..t)
                .map(|i| ((i * (s % 7 + 3)) as f32 * 0.13).sin() + (s as f32 * 0.41).cos() * 0.5)
                .collect()
        })
        .collect()
}

#[test]
fn telemetry_counters_register_pruning() {
    let series = wavy(30, 40);
    telemetry::with_telemetry(true, || {
        telemetry::reset();
        let (_, stats) = dtw_top_q(&series, 6, 2);
        assert_eq!(telemetry::counter_value("dtw.lb_kim_pruned"), stats.lb_kim_pruned);
        assert_eq!(telemetry::counter_value("dtw.lb_keogh_pruned"), stats.lb_keogh_pruned);
        assert_eq!(telemetry::counter_value("dtw.full_dtw"), stats.full_dtw);
        assert!(stats.full_dtw > 0);
    });
}
