//! `serve-melbourne`: the `stsm-serve` service on the Melbourne preset
//! (182 sensors), 2 workers, 2 closed-loop clients.
//!
//! Client A streams the test period: each step it ingests one faulted step
//! (seeded NaN bursts and blackouts) and then asks for the `Latest`
//! forecast. Client B sends `Window` requests over the stride-1 test
//! windows back to back. One op is one request of either client.

use crate::forecast::imputed_share;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    build_problem, fingerprint, model_cfg, push_unobserved_errors, repeat_setup, sized, Outcome,
    ProbeCtx, RunSpec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stsm_core::{
    train_stsm_with, DataQuality, Predictor, ProblemInstance, SharedModel, TrainOptions,
};
use stsm_serve::{ForecastRequest, ForecastResponse, Pending, ServeConfig, ServeError, Server};
use stsm_synth::{presets, FaultPlan, FaultSchedule};
use stsm_tensor::{telemetry, DType};
use stsm_timeseries::{sliding_windows, Metrics};

/// Simulated days of Melbourne data (96 steps a day).
const DAYS: usize = 14;
/// Epochs of the fit that produces the served weights (set-up only).
const FIT_EPOCHS: usize = 4;
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
/// Requests per throughput slice.
const SLICE: usize = 50;
/// Served `Window` forecasts re-checked against a fresh predictor.
const REFERENCE_SAMPLE: usize = 16;
/// Requests each set-up sends before measuring (one of each kind).
const WARM_REQUESTS: u64 = 2;

/// One answered request, as its client saw it.
struct Answer {
    latency: Duration,
    done: Duration,
    queued: Duration,
    compute: Duration,
}

/// What one client thread observed.
#[derive(Default)]
struct ClientLog {
    answers: Vec<Answer>,
    sent: u64,
    rejected: u64,
    failed: u64,
    ingest_s: Vec<f64>,
    quality: DataQuality,
    /// `(window index, output fingerprint)` of first-pass `Window` answers.
    first_pass: Vec<(usize, u64)>,
    repeats: u64,
    repeat_mismatches: u64,
    non_finite: u64,
    preds: Vec<f32>,
    truths: Vec<f32>,
}

fn clean_step(p: &ProblemInstance, t: usize) -> Vec<f32> {
    p.observed.iter().map(|&g| p.scaled_value(g, t)).collect()
}

/// Sends one request, timing it from `t0`, and logs the outcome.
fn request(
    server: &Server,
    req: ForecastRequest,
    t0: Instant,
    log: &mut ClientLog,
) -> Option<ForecastResponse> {
    log.sent += 1;
    let s = Instant::now();
    let out: Result<ForecastResponse, ServeError> = server.submit(req).and_then(Pending::wait);
    let latency = s.elapsed();
    match out {
        Ok(resp) => {
            log.answers.push(Answer {
                latency,
                done: t0.elapsed(),
                queued: resp.queued,
                compute: resp.compute,
            });
            log.quality.merge(&resp.quality);
            if !resp.prediction.data().iter().all(|v| v.is_finite()) {
                log.non_finite += 1;
                log.failed += 1;
            }
            Some(resp)
        }
        Err(_) => {
            log.rejected += 1;
            log.failed += 1;
            None
        }
    }
}

pub fn run(spec: &RunSpec, tracer: &Tracer) -> Outcome {
    let preset = sized(presets::melbourne(DAYS, spec.seed), spec.size);
    let cfg = model_cfg("Melbourne", spec.size, spec.seed, FIT_EPOCHS);
    let serve_cfg = ServeConfig { workers: WORKERS, ..ServeConfig::default() };
    let (setup_s, (problem, trained, server, starts)) = repeat_setup(spec.setup_reps, || {
        let root = tracer.open("setup", 0, None);
        let problem = Arc::new(build_problem(&preset, tracer, root));
        let (trained, _) = tracer
            .scope("core.fit", 0, root, || {
                train_stsm_with(&problem, &cfg, &TrainOptions::default())
            })
            .expect("the fit on generated Melbourne data must succeed");
        let trained = Arc::new(trained);
        let server = tracer.scope("serve.start", 0, root, || {
            Server::start(
                Arc::clone(&problem),
                SharedModel::F32(Arc::clone(&trained)),
                serve_cfg.clone(),
            )
        });
        // Stream the clean history up to the test period into the ring.
        tracer.scope("serve.prefill", 0, root, || {
            for t in 0..problem.test_time.start {
                server.ingest_step(&clean_step(&problem, t));
            }
        });
        let test = &problem.test_time;
        let starts: Vec<usize> = sliding_windows(test.len(), cfg.t_in, cfg.t_out, 1)
            .iter()
            .map(|w| test.start + w.input_start)
            .collect();
        // The untimed warm-up ops: one request of each kind.
        tracer.scope("serve.warmup", 0, root, || {
            for req in [ForecastRequest::latest(), ForecastRequest::window(starts[0])] {
                server.submit(req).and_then(Pending::wait).expect("warm-up request is answered");
            }
        });
        tracer.close(root);
        (problem, trained, server, starts)
    });

    let test_start = problem.test_time.start;
    let t_total = problem.dataset.t_total;
    let stream_len = t_total - cfg.t_out - test_start;
    let plan = FaultPlan {
        seed: spec.seed ^ 0x5e7e_fa17,
        nan_rate: 0.05,
        dropout_windows: problem.observed.len() / 4,
        dropout_len: 4 * cfg.t_in,
        sensors: Some(problem.observed.clone()),
        time_range: Some(problem.test_time.clone()),
        ..FaultPlan::default()
    };
    let schedule = FaultSchedule::new(&plan, problem.n(), t_total);
    let n_windows = starts.len();
    let horizon = Duration::from_secs_f64(spec.seconds);

    telemetry::reset();
    let t0 = Instant::now();
    let (a, b) = std::thread::scope(|s| {
        let streamer = s.spawn(|| {
            let mut log = ClientLog::default();
            let mut k = 0usize;
            // At least one full pass over the test period, so the RMSE
            // always covers the same forecasts.
            while k < stream_len || t0.elapsed() < horizon {
                let t = test_start + k % stream_len;
                let readings: Vec<f32> = problem
                    .observed
                    .iter()
                    .map(|&g| schedule.corrupt(g, t, problem.scaled_value(g, t)))
                    .collect();
                let s = Instant::now();
                tracer.scope("serve.ingest", k as u64, None, || server.ingest_step(&readings));
                log.ingest_s.push(s.elapsed().as_secs_f64());
                let span = tracer.open("serve.request", k as u64, None);
                let resp = request(&server, ForecastRequest::latest(), t0, &mut log);
                tracer.close(span);
                if let (Some(resp), true) = (resp, k < stream_len) {
                    push_unobserved_errors(
                        &problem,
                        resp.prediction.data(),
                        cfg.t_out,
                        t + 1,
                        &mut log.preds,
                        &mut log.truths,
                    );
                }
                k += 1;
            }
            log
        });
        let windows = s.spawn(|| {
            let mut log = ClientLog::default();
            let mut fps = vec![None; n_windows];
            let mut j = 0usize;
            while j == 0 || t0.elapsed() < horizon {
                let i = j % n_windows;
                let span = tracer.open("serve.request", (1 << 32) | j as u64, None);
                let resp = request(&server, ForecastRequest::window(starts[i]), t0, &mut log);
                tracer.close(span);
                if let Some(resp) = resp {
                    let fp = fingerprint(resp.prediction.data());
                    match fps[i] {
                        None => {
                            fps[i] = Some(fp);
                            log.first_pass.push((i, fp));
                        }
                        Some(first) => {
                            log.repeats += 1;
                            if fp != first {
                                log.repeat_mismatches += 1;
                                log.failed += 1;
                            }
                        }
                    }
                }
                j += 1;
            }
            log
        });
        (
            streamer.join().expect("the streaming client panicked"),
            windows.join().expect("the window client panicked"),
        )
    });
    let telemetry = telemetry::snapshot();
    let stats = server.shutdown();

    // Served Window forecasts must match a fresh, direct predictor.
    let mut reference = Predictor::new_with_dtype(&trained, &problem, DType::F32);
    let step = (b.first_pass.len() / REFERENCE_SAMPLE).max(1);
    let reference_mismatches = b
        .first_pass
        .iter()
        .step_by(step)
        .filter(|&&(i, fp)| {
            let (pred, _) = reference.predict_window_checked(&problem, starts[i]);
            fingerprint(pred.data()) != fp
        })
        .count() as u64;

    let sent = a.sent + b.sent;
    let answered = (a.answers.len() + b.answers.len()) as u64;
    let rejected = a.rejected + b.rejected;
    let counted_rejections = stats.deadline_exceeded
        + stats.overloaded
        + stats.cold_start
        + stats.bad_request
        + stats.shutdown_rejected
        + stats.worker_panics;
    let accounted = answered + WARM_REQUESTS == stats.completed
        && rejected == counted_rejections
        && answered + rejected == sent;
    let mut checks = vec![
        ("forecasts finite", a.non_finite + b.non_finite == 0),
        ("served windows equal a fresh predictor", reference_mismatches == 0),
        ("every request answered or counted as rejected", accounted),
    ];
    if b.repeats > 0 {
        checks.push(("re-forecast bitwise equal", b.repeat_mismatches == 0));
    }
    let rmse =
        if a.preds.is_empty() { f64::NAN } else { Metrics::compute(&a.preds, &a.truths).rmse };

    let answers: Vec<&Answer> = a.answers.iter().chain(&b.answers).collect();
    let secs = |f: fn(&Answer) -> Duration| -> Vec<f64> {
        answers.iter().map(|x| f(x).as_secs_f64()).collect()
    };
    let latency_s = secs(|x| x.latency);
    let compute_s = secs(|x| x.compute);
    let handoff_s: Vec<f64> = answers
        .iter()
        .map(|x| x.latency.saturating_sub(x.queued + x.compute).as_secs_f64())
        .collect();
    let mut quality = a.quality;
    quality.merge(&b.quality);
    let layer = vec![
        ("core.predict_window_ms_p50", median(&compute_s) * 1e3),
        ("core.predict_window_ms_p99", percentile(&compute_s, 0.99) * 1e3),
        ("core.predict_window_samples", compute_s.len() as f64),
        ("core.imputed_share", imputed_share(&quality)),
        ("serve.queue_wait_ms_p50", median(&secs(|x| x.queued)) * 1e3),
        ("serve.compute_ms_p50", median(&compute_s) * 1e3),
        ("serve.handoff_ms_p50", median(&handoff_s) * 1e3),
        ("serve.ingest_us_p50", median(&a.ingest_s) * 1e6),
        ("serve.latency_ms_p99", percentile(&latency_s, 0.99) * 1e3),
        ("serve.latency_samples", latency_s.len() as f64),
        ("serve.breaker_trips", stats.breaker_trips as f64),
        ("serve.rejected", rejected as f64),
    ];
    Outcome {
        setup_s,
        busy_s: compute_s.iter().sum(),
        done_s: secs(|x| x.done),
        latency_s,
        work_per_op: 1.0,
        ops_per_slice: SLICE,
        rmse,
        attempted: sent,
        failed: a.failed + b.failed + reference_mismatches,
        checks,
        layer,
        telemetry,
        probe: ProbeCtx { nodes: (0..problem.n()).collect(), problem, cfg, model: trained },
    }
}
