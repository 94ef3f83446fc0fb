//! Always-compiled, default-off instrumentation registry: named span timers,
//! event counters and fixed-bucket latency histograms.
//!
//! The repo's hot layers (kernels, worker pool, allocator, autograd backward,
//! inference sessions, the trainer's epoch phases) report into this registry
//! so a real run can answer "where did this epoch's time go" and "how often
//! did the guard fire" — the observability layer every subsequent
//! optimization depends on.
//!
//! ## Zero-overhead contract
//!
//! Collection is gated at **runtime** by `STSM_TELEMETRY` (`1`/`true`/`on`),
//! read once. Every instrumentation point first calls [`enabled`], which
//! after initialization is a **single relaxed atomic load** — no branch on
//! feature flags, no locks, no clock reads. When disabled, no name is ever
//! registered, no timestamp taken, and (critically) **no numeric result
//! changes either way**: telemetry only observes, so an instrumented run is
//! bitwise identical to an uninstrumented one whether the gate is on or off.
//! That contract is pinned by `tests/telemetry_overhead.rs` (kernel level)
//! and `stsm-core`'s `tests/telemetry_equivalence.rs` (full train + eval).
//!
//! ## Thread model
//!
//! All metric cells are atomics, so pool workers ([`crate::pool`]) report
//! into the same named entries as the submitting thread; span totals are
//! CPU time summed across threads and may exceed wall clock. Spans nest
//! freely — each [`SpanGuard`] times its own scope independently.
//!
//! ## Snapshots
//!
//! [`snapshot`] freezes the registry into a serializable [`TelemetryReport`]
//! (JSON via serde, human-readable via [`TelemetryReport::render_table`]);
//! [`reset`] zeroes every metric without unregistering names. The CLI writes
//! the report to `STSM_TELEMETRY_PATH` and prints the table on stderr.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of latency-histogram buckets. Bucket `i` counts durations with
/// `micros < 2^i` (that were not already counted by a lower bucket), so the
/// range spans sub-microsecond to ~9 hours.
pub const HIST_BUCKETS: usize = 36;

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Tri-state gate: uninitialized / off / on. After the first [`enabled`]
/// call resolves `STSM_TELEMETRY`, the hot path is one relaxed load.
static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// True when telemetry collection is active. The first call reads
/// `STSM_TELEMETRY` (`1`/`true`/`on` enables); later calls are a single
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("STSM_TELEMETRY")
        .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "on"))
        .unwrap_or(false);
    // A concurrent set_enabled wins; only replace the UNINIT state.
    let _ = STATE.compare_exchange(
        UNINIT,
        if on { ON } else { OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == ON
}

/// Turns collection on or off for the whole process, overriding the
/// environment. Used by the CLI and by tests; the registry keeps whatever it
/// has already recorded (see [`reset`]).
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Runs `f` with telemetry forced on or off, restoring the previous state on
/// exit (including on panic). The switch is **process-global** — concurrent
/// tests that touch telemetry must serialize themselves.
pub fn with_telemetry<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            STATE.store(self.0, Ordering::Relaxed);
        }
    }
    let prev = STATE.swap(if on { ON } else { OFF }, Ordering::Relaxed);
    let _restore = Restore(prev);
    f()
}

// ------------------------------------------------------------------ registry

#[derive(Default)]
struct SpanStat {
    calls: AtomicU64,
    total_nanos: AtomicU64,
}

struct HistStat {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistStat {
    fn default() -> Self {
        HistStat {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }
}

/// Name→metric maps. Names are `&'static str` on purpose: instrumentation
/// points are compiled in, not generated at runtime, and static keys keep
/// the lookup allocation-free.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    spans: Mutex<BTreeMap<&'static str, Arc<SpanStat>>>,
    hists: Mutex<BTreeMap<&'static str, Arc<HistStat>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    // Metric cells are plain atomics; a panic while holding the map lock
    // cannot leave them inconsistent.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter_cell(name: &'static str) -> Arc<AtomicU64> {
    Arc::clone(lock(&registry().counters).entry(name).or_default())
}

fn span_cell(name: &'static str) -> Arc<SpanStat> {
    Arc::clone(lock(&registry().spans).entry(name).or_default())
}

fn hist_cell(name: &'static str) -> Arc<HistStat> {
    Arc::clone(lock(&registry().hists).entry(name).or_default())
}

// ------------------------------------------------------------------ counters

/// Adds `n` to the named counter. No-op (one relaxed load) when disabled.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        counter_cell(name).fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of the named counter (0 when it was never bumped).
pub fn counter_value(name: &'static str) -> u64 {
    lock(&registry().counters).get(name).map_or(0, |c| c.load(Ordering::Relaxed))
}

// --------------------------------------------------------------------- spans

/// RAII timer for one named span; records call count and elapsed nanoseconds
/// on drop. Obtain via [`span`].
pub struct SpanGuard {
    stat: Arc<SpanStat>,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.stat.calls.fetch_add(1, Ordering::Relaxed);
        self.stat.total_nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Starts timing the named span, or returns `None` (one relaxed load, no
/// clock read) when telemetry is disabled. Spans nest: each guard times its
/// own scope.
#[inline]
pub fn span(name: &'static str) -> Option<SpanGuard> {
    if enabled() {
        Some(SpanGuard { stat: span_cell(name), start: Instant::now() })
    } else {
        None
    }
}

/// `(calls, total_nanos)` recorded so far for the named span. Used by the
/// trainer to turn span totals into per-epoch phase deltas.
pub fn span_totals(name: &'static str) -> (u64, u64) {
    lock(&registry().spans).get(name).map_or((0, 0), |s| {
        (s.calls.load(Ordering::Relaxed), s.total_nanos.load(Ordering::Relaxed))
    })
}

// ---------------------------------------------------------------- histograms

/// Bucket index for a duration: bucket `i` holds durations with
/// `micros < 2^i` not already captured below (i.e. `i` is the bit length of
/// the duration in whole microseconds, clamped to the last bucket).
fn bucket_of(nanos: u64) -> usize {
    let micros = nanos / 1_000;
    ((u64::BITS - micros.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Records one latency observation (in nanoseconds) into the named
/// fixed-bucket histogram. No-op when disabled.
#[inline]
pub fn record_nanos(name: &'static str, nanos: u64) {
    if !enabled() {
        return;
    }
    let h = hist_cell(name);
    h.count.fetch_add(1, Ordering::Relaxed);
    h.total_nanos.fetch_add(nanos, Ordering::Relaxed);
    h.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    h.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
}

/// [`record_nanos`] for a [`Duration`].
#[inline]
pub fn record_duration(name: &'static str, d: Duration) {
    if enabled() {
        record_nanos(name, d.as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Records one dimensionless observation (a queue depth, a batch size…) into
/// the named histogram. Values share the latency histograms' log2 bucket
/// machinery on the microsecond scale — a recorded value `v` lands in bucket
/// `bit_length(v)` and reads back as `v µs` in [`TelemetryReport`] renders —
/// so one histogram type serves both latencies and magnitudes. Used by the
/// serving layer for `serve.queue_depth`. No-op when disabled.
#[inline]
pub fn record_value(name: &'static str, v: u64) {
    if enabled() {
        record_nanos(name, v.saturating_mul(1_000));
    }
}

// ----------------------------------------------------------------- snapshots

/// Aggregated state of one span timer.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Completed span scopes.
    pub calls: u64,
    /// Summed elapsed nanoseconds (across all threads).
    pub total_nanos: u64,
}

/// Aggregated state of one latency histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramReport {
    /// Observations recorded.
    pub count: u64,
    /// Summed nanoseconds across observations.
    pub total_nanos: u64,
    /// Largest single observation in nanoseconds.
    pub max_nanos: u64,
    /// Bucket counts; bucket `i` covers observations with `micros < 2^i`
    /// not captured by a lower bucket (the last bucket is unbounded).
    pub buckets: Vec<u64>,
}

/// A frozen snapshot of the registry: every counter, span and histogram that
/// has been touched since process start (or the last [`reset`]).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Event counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Span timers by name.
    pub spans: BTreeMap<String, SpanReport>,
    /// Latency histograms by name.
    pub histograms: BTreeMap<String, HistogramReport>,
}

impl TelemetryReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the report to pretty JSON (the `STSM_TELEMETRY_PATH`
    /// schema; see DESIGN.md, "Telemetry").
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry report serializes")
    }

    /// Parses a report previously produced by [`TelemetryReport::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Renders a fixed-width human-readable table (what the CLI prints to
    /// stderr after an instrumented run).
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== telemetry ==");
        if !self.spans.is_empty() {
            let _ = writeln!(out, "-- spans --");
            let _ = writeln!(out, "{:<28} {:>10} {:>14} {:>12}", "name", "calls", "total", "mean");
            for (name, s) in &self.spans {
                let mean = s.total_nanos.checked_div(s.calls).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "{:<28} {:>10} {:>14} {:>12}",
                    name,
                    s.calls,
                    fmt_nanos(s.total_nanos),
                    fmt_nanos(mean)
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "-- counters --");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{:<28} {:>10}", name, v);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "-- histograms --");
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12} {:>12} {:>12}",
                "name", "count", "mean", "p~50", "max"
            );
            for (name, h) in &self.histograms {
                let mean = h.total_nanos.checked_div(h.count).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "{:<28} {:>10} {:>12} {:>12} {:>12}",
                    name,
                    h.count,
                    fmt_nanos(mean),
                    fmt_nanos(approx_median_nanos(h)),
                    fmt_nanos(h.max_nanos)
                );
            }
        }
        out
    }
}

impl HistogramReport {
    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`) from the
    /// bucket counts: the upper boundary, in **microseconds**, of the first
    /// bucket at or above that rank (clamped to the recorded max). Log2
    /// buckets make this an upper bound within 2× of the true quantile.
    pub fn percentile_upper_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket `i` holds values with `micros < 2^i`; its upper
                // bound cannot exceed the recorded maximum.
                return (1u64 << i).min(self.max_nanos.div_ceil(1_000).max(1));
            }
        }
        self.max_nanos.div_ceil(1_000)
    }
}

/// Upper-bound estimate of the median from the bucket counts (the bucket
/// boundary at or above the 50th percentile), in nanoseconds.
fn approx_median_nanos(h: &HistogramReport) -> u64 {
    h.percentile_upper_micros(0.5).saturating_mul(1_000)
}

fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// Freezes the registry into a [`TelemetryReport`]. Entries that were
/// registered but never incremented are skipped.
pub fn snapshot() -> TelemetryReport {
    let mut report = TelemetryReport::default();
    for (name, c) in lock(&registry().counters).iter() {
        let v = c.load(Ordering::Relaxed);
        if v > 0 {
            report.counters.insert((*name).to_string(), v);
        }
    }
    for (name, s) in lock(&registry().spans).iter() {
        let calls = s.calls.load(Ordering::Relaxed);
        if calls > 0 {
            report.spans.insert(
                (*name).to_string(),
                SpanReport { calls, total_nanos: s.total_nanos.load(Ordering::Relaxed) },
            );
        }
    }
    for (name, h) in lock(&registry().hists).iter() {
        let count = h.count.load(Ordering::Relaxed);
        if count > 0 {
            report.histograms.insert(
                (*name).to_string(),
                HistogramReport {
                    count,
                    total_nanos: h.total_nanos.load(Ordering::Relaxed),
                    max_nanos: h.max_nanos.load(Ordering::Relaxed),
                    buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                },
            );
        }
    }
    report
}

/// Zeroes every metric (names stay registered). Tests call this between
/// runs so counter assertions see only their own run.
pub fn reset() {
    for c in lock(&registry().counters).values() {
        c.store(0, Ordering::Relaxed);
    }
    for s in lock(&registry().spans).values() {
        s.calls.store(0, Ordering::Relaxed);
        s.total_nanos.store(0, Ordering::Relaxed);
    }
    for h in lock(&registry().hists).values() {
        h.count.store(0, Ordering::Relaxed);
        h.total_nanos.store(0, Ordering::Relaxed);
        h.max_nanos.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that flip the gate serialize
    /// on this lock (shared with the doc'd contract for external tests).
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        with_telemetry(false, || {
            reset();
            count("test.disabled", 3);
            assert!(span("test.disabled_span").is_none());
            record_nanos("test.disabled_hist", 1_000);
            assert_eq!(counter_value("test.disabled"), 0);
            assert_eq!(span_totals("test.disabled_span"), (0, 0));
            let snap = snapshot();
            assert!(!snap.counters.contains_key("test.disabled"));
            assert!(!snap.histograms.contains_key("test.disabled_hist"));
        });
    }

    #[test]
    fn counters_spans_histograms_accumulate_and_reset() {
        let _g = guard();
        with_telemetry(true, || {
            reset();
            count("test.c", 2);
            count("test.c", 3);
            assert_eq!(counter_value("test.c"), 5);
            {
                let _s = span("test.s");
                let _nested = span("test.s");
            }
            let (calls, nanos) = span_totals("test.s");
            assert_eq!(calls, 2, "nested spans record independently");
            // Two guards cannot both take zero time... actually they can on a
            // coarse clock; only assert monotone bookkeeping.
            assert!(nanos < u64::MAX);
            record_nanos("test.h", 1_500); // 1µs bucket region
            record_nanos("test.h", 3_000_000); // ~3ms
            let snap = snapshot();
            assert_eq!(snap.counters["test.c"], 5);
            assert_eq!(snap.spans["test.s"].calls, 2);
            let h = &snap.histograms["test.h"];
            assert_eq!(h.count, 2);
            assert_eq!(h.total_nanos, 3_001_500);
            assert_eq!(h.max_nanos, 3_000_000);
            assert_eq!(h.buckets.len(), HIST_BUCKETS);
            assert_eq!(h.buckets.iter().sum::<u64>(), 2);
            reset();
            assert_eq!(counter_value("test.c"), 0);
            assert_eq!(span_totals("test.s"), (0, 0));
            assert!(!snapshot().histograms.contains_key("test.h"));
        });
    }

    #[test]
    fn value_histogram_and_percentiles() {
        let _g = guard();
        let snap = with_telemetry(true, || {
            reset();
            for v in [1u64, 2, 3, 4, 100] {
                record_value("test.depth", v);
            }
            snapshot()
        });
        let h = &snap.histograms["test.depth"];
        assert_eq!(h.count, 5);
        // Values read back on the µs scale: 100 → 100µs max.
        assert_eq!(h.max_nanos, 100_000);
        // p50 upper bound: rank 3 of [1,2,3,4,100] → value 3 → bucket 2
        // (bit length of 3) → upper bound 4.
        assert_eq!(h.percentile_upper_micros(0.5), 4);
        // p99 → rank 5 → the 100 bucket (2^7 = 128), clamped to max 100.
        assert_eq!(h.percentile_upper_micros(0.99), 100);
        assert_eq!(HistogramReport::default().percentile_upper_micros(0.5), 0);
    }

    #[test]
    fn bucket_boundaries() {
        // micros < 1 (i.e. sub-µs) → bucket 0; 1µs → bit length 1 → bucket 1.
        assert_eq!(bucket_of(999), 0);
        assert_eq!(bucket_of(1_000), 1);
        assert_eq!(bucket_of(1_999), 1);
        assert_eq!(bucket_of(2_000), 2);
        assert_eq!(bucket_of(1_000_000), 10); // 1000µs → 10 bits
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn report_json_roundtrip_and_table() {
        let _g = guard();
        let snap = with_telemetry(true, || {
            reset();
            count("test.rt", 7);
            {
                let _s = span("test.rt_span");
            }
            record_nanos("test.rt_hist", 42_000);
            snapshot()
        });
        let json = snap.to_json();
        let back = TelemetryReport::from_json(&json).expect("roundtrip");
        assert_eq!(snap, back);
        let table = snap.render_table();
        assert!(table.contains("test.rt"));
        assert!(table.contains("test.rt_span"));
        assert!(table.contains("test.rt_hist"));
        assert!(!snap.is_empty());
        assert!(TelemetryReport::default().is_empty());
    }

    #[test]
    fn with_telemetry_restores_on_panic() {
        let _g = guard();
        set_enabled(false);
        let _ = std::panic::catch_unwind(|| {
            with_telemetry(true, || panic!("escape"));
        });
        assert!(!enabled(), "gate must be restored after panic");
    }
}
