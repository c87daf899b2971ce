//! End-to-end and per-layer benchmark of the MFTI fitter.
//!
//! `mftibench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload as a closed loop with a single client and one
//! library worker thread, checks every served model against the system
//! that generated its samples, and prints one JSON object as its last
//! line: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Every timing is scaled by the host reference loop (see
//! `host.rs` and README.md).
//!
//! `setup_s` is timed in fresh processes: the run starts this binary
//! again with `--setup-rep <n>`, which performs set-up `n` alone, from
//! generated inputs to the first served model, and prints its raw time.

mod host;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mfti_core::metrics::err_rms_of;
use mfti_core::{
    realify, realize_real, DirectionKind, FitOutcome, FitSession, Fitter, LoewnerPencil,
    OrderSelection, TangentialData, Weights, WindowPolicy,
};
use mfti_numeric::{c64, kernel, parallel, CMatrix, RMatrix, Svd};
use mfti_sampling::SampleSet;

use host::{heap_peak_mb, median, percentile, reset_heap_peak_mb, CountingAlloc, Host, Timed};
use trace::Tracer;
use workloads::{BoxError, Case, Expect, OneShot, Reference, Stream, Workload};

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

/// Cold set-ups per run, each in a fresh process; `setup_s` is their
/// median.
const SETUP_REPS: usize = 16;
/// Streams compare the session's σ with a fresh decomposition of the
/// same window every this many appends.
const SIGMA_CHECK_EVERY: usize = 50;
/// Streams run the layer probes on every this many traced appends.
const STREAM_PROBE_EVERY: usize = 10;
/// The session σ must match a fresh decomposition to this share of σ₁.
const SIGMA_REL_TOL: f64 = 1e-10;
/// `Mfti`'s default realification tolerance, for the staged calls.
const REALIFY_TOL: f64 = 1e-6;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Perform only this cold set-up (see the module docs).
    setup_rep: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut setup_rep = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--setup-rep" => setup_rep = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workload = workload.ok_or(format!(
        "--workload is required (one of {})",
        workloads::NAMES.join(", ")
    ))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_rep,
    })
}

/// Correctness checks of one run: a failed check makes `correct` false.
#[derive(Debug, Default)]
struct Checks {
    failures: usize,
    first: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            if self.first.len() < 5 {
                self.first.push(what());
            }
        }
    }

    /// Checks a served model against the generating system on the
    /// held-out grid (and at its fitted samples when those must be
    /// interpolated); returns the held-out error.
    fn served(
        &mut self,
        expect: &Expect,
        reference: &Reference,
        outcome: &FitOutcome,
        response: &[CMatrix],
        fitted: &SampleSet,
    ) -> Result<f64, BoxError> {
        let err = reference
            .rms_rel_err(response, fitted.freqs_hz())
            .ok_or("too few check-grid points inside the fitted band")?;
        if let Some(max) = expect.max_err {
            self.require(err <= max, || {
                format!("held-out error {err:.3e} exceeds {max:.1e}")
            });
        }
        if let Some(order) = expect.exact_order {
            self.require(outcome.order() == order, || {
                format!(
                    "model order {} is not the true order {order}",
                    outcome.order()
                )
            });
        }
        if let Some(tol) = expect.interp_tol {
            let at_samples = err_rms_of(outcome.model(), fitted)?;
            self.require(at_samples <= tol, || {
                format!("error {at_samples:.3e} at the fitted samples exceeds {tol:.1e}")
            });
        }
        Ok(err)
    }
}

/// Everything one run measured, before it becomes metrics.
#[derive(Debug, Default)]
struct Log {
    correct: bool,
    attempted: u64,
    failed: u64,
    setup: Vec<Timed>,
    /// Live heap (MB) once the inputs are built, before the first
    /// library call of the run; the heap peak restarts there.
    heap_base_mb: f64,
    /// Untraced operations: model build and sweep.
    model: Vec<Timed>,
    sweep: Vec<Timed>,
    err: Vec<f64>,
    order: Vec<f64>,
    /// Per-layer counts sampled by the traced operations.
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Log {
    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }
}

/// Two fixed 256×256 complex operands of the GEMM probe.
struct Gemm {
    a: CMatrix,
    b: CMatrix,
}

impl Gemm {
    fn new() -> Self {
        let m = |salt: usize| {
            CMatrix::from_fn(256, 256, |i, j| {
                let h = (i * 257 + j * 131 + salt) % 997;
                c64(h as f64 / 997.0 - 0.5, ((h * 7) % 991) as f64 / 991.0 - 0.5)
            })
        };
        Gemm { a: m(1), b: m(2) }
    }
}

/// The one-shot path's public stage calls, in `Mfti::fit`'s order, each
/// in its own span. `core.realize` and `numeric.stacked_bidiag` run even
/// where the fit takes the restricted path (`2r ≤ K`), so that every
/// layer has a time on every workload; the returned flag says whether
/// the dense realization is on the fit's path.
fn one_shot_stages(
    tr: &mut Tracer,
    host: &Host,
    samples: &SampleSet,
    selection: OrderSelection,
) -> Result<(usize, bool), BoxError> {
    tr.span(host, "sampling.validate", || samples.validate().map(|_| ()))?;
    let pencil = tr.span(host, "core.assembly", || -> Result<_, BoxError> {
        let data = TangentialData::build(samples, DirectionKind::default(), &Weights::Full)?;
        Ok(LoewnerPencil::build(&data)?)
    })?;
    let x0 = pencil.default_x0().re;
    let (real, shifted) = tr.span(host, "core.realify", || -> Result<_, BoxError> {
        let real = realify(&pencil, REALIFY_TOL)?;
        let shifted = real.shifted_pencil(x0);
        Ok((real, shifted))
    })?;
    let sv = tr.span(host, "numeric.detect_svd", || {
        Svd::singular_values_of(&shifted)
    })?;
    let order = selection.detect(&sv)?;
    black_box(tr.span(host, "core.realize", || realize_real(&real, order))?);
    tr.span(
        host,
        "numeric.stacked_bidiag",
        || -> Result<(), BoxError> {
            let rows = RMatrix::hstack(&[real.ll(), real.sll()])?;
            let cols = RMatrix::vstack(&[real.ll(), real.sll()])?;
            black_box(Svd::bidiagonalize(&rows)?);
            black_box(Svd::bidiagonalize(&cols)?);
            Ok(())
        },
    )?;
    Ok((order, 2 * order > pencil.order()))
}

/// Layers every workload probes on its served model: the GEMM kernel
/// and the model's poles.
fn model_layers(
    tr: &mut Tracer,
    host: &Host,
    log: &mut Log,
    gemm: &Gemm,
    outcome: &FitOutcome,
) -> Result<(), BoxError> {
    host.fresh_heap();
    black_box(tr.span(host, "numeric.gemm256", || kernel::mul(&gemm.a, &gemm.b))?);
    let model = outcome
        .model()
        .as_real()
        .ok_or("served model is not real")?;
    host.fresh_heap();
    let poles = tr.span(host, "statespace.poles", || model.poles())?;
    log.count(
        "statespace.rhp_poles",
        poles.iter().filter(|p| p.re > 0.0).count() as f64,
    );
    Ok(())
}

/// The sweep of a served model over the dense check grid, and its
/// cached sweep-group count.
fn sweep(outcome: &FitOutcome, reference: &Reference) -> Result<(Vec<CMatrix>, usize), BoxError> {
    let response = outcome.macromodel().eval_batch(&reference.s_pts)?;
    let groups = outcome
        .model()
        .as_real()
        .map_or(0, |m| m.cached_sweep_groups());
    Ok((response, groups))
}

fn run_one_shot(w: &OneShot, args: &Args, host: &mut Host) -> Result<(Log, Tracer), BoxError> {
    let mut log = Log::default();
    let mut checks = Checks::default();
    let mut tr = Tracer::default();
    let gemm = Gemm::new();
    for case in &w.cases {
        checks.require(case.reference.held_out(case.samples.freqs_hz()), || {
            "a sample frequency lies on the check grid".into()
        });
    }
    log.heap_base_mb = reset_heap_peak_mb();
    for _ in 0..3 {
        host.probe();
    }
    log.setup = cold_setups(args, host)?;
    // One untimed fit, so the timed loop does not start cold.
    black_box(w.config.fit(&w.cases[0].samples)?);
    let end = host.now_s() + args.seconds;
    let mut op = 0usize;
    while host.now_s() < end {
        // A probe before every operation: the scale stays local, and
        // every operation starts from the same cache state.
        host.probe();
        log.attempted += 1;
        let traced = args.trace && op % 2 == 1;
        // Traced and untraced operations alternate, so both see every
        // case when tracing: the case advances every second operation.
        let case = &w.cases[(if args.trace { op / 2 } else { op }) % w.cases.len()];
        let result = if traced {
            tr.begin_op(op);
            let r = traced_fit(w, case, host, &mut tr, &mut log, &mut checks, &gemm);
            tr.end_op(host);
            r
        } else {
            untraced_fit(w, case, host, &mut log, &mut checks)
        };
        if let Err(e) = result {
            log.failed += 1;
            eprintln!("op {op} failed: {e}");
        }
        op += 1;
    }
    host.probe();
    check_median_err(&mut checks, &log, &w.expect);
    log.correct = finish_checks(&checks);
    Ok((log, tr))
}

fn untraced_fit(
    w: &OneShot,
    case: &Case,
    host: &Host,
    log: &mut Log,
    checks: &mut Checks,
) -> Result<(), BoxError> {
    let (outcome, t_model) = host.time(|| w.config.fit(&case.samples));
    let outcome = outcome?;
    let (swept, t_sweep) = host.time(|| sweep(&outcome, &case.reference));
    let (response, _) = swept?;
    let err = checks.served(
        &w.expect,
        &case.reference,
        &outcome,
        &response,
        &case.samples,
    )?;
    log.model.push(t_model);
    log.sweep.push(t_sweep);
    log.err.push(err);
    log.order.push(outcome.order() as f64);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced_fit(
    w: &OneShot,
    case: &Case,
    host: &Host,
    tr: &mut Tracer,
    log: &mut Log,
    checks: &mut Checks,
    gemm: &Gemm,
) -> Result<(), BoxError> {
    tr.enter(host, "op");
    let (outcome, faults) =
        host.faulting(|| tr.span(host, "model", || w.config.fit(&case.samples)));
    log.count("alloc.model_faults", faults);
    let outcome = outcome?;
    let (swept, faults) =
        host.faulting(|| tr.span(host, "sweep", || sweep(&outcome, &case.reference)));
    log.count("alloc.sweep_faults", faults);
    let (response, groups) = swept?;
    checks.served(
        &w.expect,
        &case.reference,
        &outcome,
        &response,
        &case.samples,
    )?;
    log.count("statespace.sweep_groups", groups as f64);
    log.count(
        "core.pencil_order",
        outcome.pencil_order().unwrap_or(0) as f64,
    );

    tr.enter(host, "layers");
    host.fresh_heap();
    let (order, dense) = one_shot_stages(tr, host, &case.samples, w.selection)?;
    checks.require(order == outcome.order(), || {
        format!(
            "staged detection found order {order}, the fit {}",
            outcome.order()
        )
    });
    log.count("dense_path", f64::from(u8::from(dense)));
    // The session path over the same samples: all but the last pair,
    // then the last pair as an incremental append, then a realize.
    let n = case.samples.len();
    let head = case.samples.subset(&(0..n - 2).collect::<Vec<_>>())?;
    let last = case.samples.subset(&[n - 2, n - 1])?;
    let mut session = FitSession::new(w.config.clone());
    session.append(&head)?;
    host.fresh_heap();
    tr.span(host, "core.append", || session.append(&last))?;
    black_box(tr.span(host, "core.session_realize", || session.realize())?);
    count_session(log, &session, 1);
    model_layers(tr, host, log, gemm, &outcome)?;
    tr.exit(host);
    tr.exit(host);
    Ok(())
}

/// Session counters: re-anchors and quarantines per append over the
/// last `appends` appends, and the retained rank.
fn count_session(log: &mut Log, session: &FitSession, appends: usize) {
    let trajectory = session.signal_trajectory();
    let recent = &trajectory[trajectory.len().saturating_sub(appends)..];
    let per_append = |hits: usize| hits as f64 / recent.len().max(1) as f64;
    log.count(
        "core.reanchor_per_append",
        per_append(recent.iter().filter(|d| d.reanchor.is_some()).count()),
    );
    log.count(
        "core.quarantine_per_append",
        per_append(recent.iter().filter(|d| d.quarantined).count()),
    );
    log.count(
        "core.retained_rank",
        session.retained_rank().unwrap_or(0) as f64,
    );
}

fn run_stream(w: &Stream, args: &Args, host: &mut Host) -> Result<(Log, Tracer), BoxError> {
    let mut log = Log::default();
    let mut checks = Checks::default();
    let mut tr = Tracer::default();
    let gemm = Gemm::new();
    let fill = window_fill(w, 0)?;
    log.heap_base_mb = reset_heap_peak_mb();
    for _ in 0..3 {
        host.probe();
    }
    log.setup = cold_setups(args, host)?;
    let (mut session, _) = open_session(w, &fill)?;
    let next_pair = w.fill_pairs;
    let end = host.now_s() + args.seconds;
    let mut op = 0usize;
    while host.now_s() < end {
        // A probe before every operation: the scale stays local, and
        // every operation starts from the same cache state.
        host.probe();
        log.attempted += 1;
        let pair = w.pair(next_pair + op)?;
        let traced = args.trace && op % 2 == 1;
        let result = if traced {
            tr.begin_op(op);
            let probe = (op / 2).is_multiple_of(STREAM_PROBE_EVERY);
            let r = traced_append(
                w,
                host,
                &mut tr,
                &mut log,
                &mut checks,
                &gemm,
                &mut session,
                &pair,
                probe,
            );
            tr.end_op(host);
            r
        } else {
            untraced_append(w, host, &mut log, &mut checks, &mut session, &pair)
        };
        if let Err(e) = result {
            log.failed += 1;
            eprintln!("op {op} failed: {e}");
        }
        checks.require(session.pencil_order() <= w.capacity, || {
            format!(
                "pencil order {} exceeds the capacity {}",
                session.pencil_order(),
                w.capacity
            )
        });
        if op.is_multiple_of(SIGMA_CHECK_EVERY) {
            check_sigma(&mut checks, &session)?;
        }
        op += 1;
    }
    host.probe();
    if args.trace {
        count_session(&mut log, &session, op);
    }
    check_median_err(&mut checks, &log, &w.expect);
    log.correct = finish_checks(&checks);
    Ok((log, tr))
}

/// The pairs that fill a stream's window, from pair `start` on.
fn window_fill(w: &Stream, start: usize) -> Result<Vec<SampleSet>, BoxError> {
    (start..start + w.fill_pairs).map(|j| w.pair(j)).collect()
}

/// A stream's set-up: opens the session, fills the window and realizes
/// the first model.
fn open_session(w: &Stream, fill: &[SampleSet]) -> Result<(FitSession, FitOutcome), BoxError> {
    let mut session = FitSession::new(w.config.clone()).window(WindowPolicy::Sliding {
        capacity: w.capacity,
    });
    for pair in fill {
        session.append(pair)?;
    }
    let outcome = session.realize()?;
    Ok((session, outcome))
}

/// Times `SETUP_REPS` cold set-ups, each in a fresh process of this
/// binary (`--setup-rep`), with a reference probe before each and one
/// after the last.
fn cold_setups(args: &Args, host: &mut Host) -> Result<Vec<Timed>, BoxError> {
    let exe = std::env::current_exe()?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        host.probe();
        let start = host.now_s();
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--setup-rep", &rep.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()?;
        let end = host.now_s();
        if !out.status.success() {
            return Err(format!("set-up {rep} failed: {}", out.status).into());
        }
        let stdout = String::from_utf8(out.stdout)?;
        let raw_ms = stdout
            .lines()
            .last()
            .and_then(|line| line.strip_prefix("setup_ms "))
            .ok_or(format!("set-up {rep} printed no time"))?
            .parse()?;
        setups.push(Timed {
            at_s: 0.5 * (start + end),
            raw_ms,
        });
    }
    host.probe();
    Ok(setups)
}

/// `--setup-rep <rep>`: set-up `rep` alone, in this fresh process. It
/// generates only the inputs it needs and times the span from those
/// inputs to the first served model: one-shot, the fit of instance
/// `rep`; stream, opening, filling and realizing a window that starts
/// `rep` sixteenths of a sweep cycle in.
fn run_setup(args: &Args, rep: usize) -> Result<String, BoxError> {
    let case = rep as u64 % workloads::INSTANCES;
    let start = match build_workload(args, case..case + 1)? {
        Workload::OneShot(w) => {
            let start = Instant::now();
            black_box(w.config.fit(&w.cases[0].samples)?);
            start
        }
        Workload::Stream(w) => {
            let fill = window_fill(&w, w.setup_start(rep, SETUP_REPS))?;
            let start = Instant::now();
            black_box(open_session(&w, &fill)?);
            start
        }
    };
    Ok(format!("setup_ms {}", start.elapsed().as_secs_f64() * 1e3))
}

/// The session's σ against a fresh decomposition of the same window.
fn check_sigma(checks: &mut Checks, session: &FitSession) -> Result<(), BoxError> {
    let pencil = session.pencil().ok_or("session has no pencil")?;
    let fresh = pencil.shifted_pencil_singular_values(pencil.default_x0())?;
    let kept = session.singular_values()?;
    let dev = kept
        .iter()
        .zip(&fresh)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    checks.require(dev <= SIGMA_REL_TOL * fresh[0], || {
        format!(
            "session σ deviates {:.2e}·σ₁ from a fresh decomposition",
            dev / fresh[0]
        )
    });
    Ok(())
}

fn untraced_append(
    w: &Stream,
    host: &Host,
    log: &mut Log,
    checks: &mut Checks,
    session: &mut FitSession,
    pair: &SampleSet,
) -> Result<(), BoxError> {
    let (outcome, t_model) = host.time(|| -> Result<_, BoxError> {
        session.append(pair)?;
        Ok(session.realize()?)
    });
    let outcome = outcome?;
    let (swept, t_sweep) = host.time(|| sweep(&outcome, &w.reference));
    let (response, _) = swept?;
    checks.require(w.reference.held_out(pair.freqs_hz()), || {
        "a sample frequency lies on the check grid".into()
    });
    let window = session.samples().ok_or("session has no samples")?;
    let err = checks.served(&w.expect, &w.reference, &outcome, &response, window)?;
    log.model.push(t_model);
    log.sweep.push(t_sweep);
    log.err.push(err);
    log.order.push(outcome.order() as f64);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced_append(
    w: &Stream,
    host: &Host,
    tr: &mut Tracer,
    log: &mut Log,
    checks: &mut Checks,
    gemm: &Gemm,
    session: &mut FitSession,
    pair: &SampleSet,
    probe: bool,
) -> Result<(), BoxError> {
    tr.enter(host, "op");
    let (outcome, faults) = host.faulting(|| {
        tr.enter(host, "model");
        let appended = tr.span(host, "core.append", || session.append(pair));
        let outcome =
            appended.and_then(|()| tr.span(host, "core.session_realize", || session.realize()));
        tr.exit(host);
        outcome
    });
    log.count("alloc.model_faults", faults);
    let outcome = outcome?;
    let (swept, faults) =
        host.faulting(|| tr.span(host, "sweep", || sweep(&outcome, &w.reference)));
    log.count("alloc.sweep_faults", faults);
    let (response, groups) = swept?;
    let window = session.samples().ok_or("session has no samples")?;
    checks.served(&w.expect, &w.reference, &outcome, &response, window)?;
    log.count("statespace.sweep_groups", groups as f64);
    log.count("core.pencil_order", session.pencil_order() as f64);
    log.count(
        "core.retained_rank",
        session.retained_rank().unwrap_or(0) as f64,
    );
    if probe {
        // The one-shot path on the same window: the fresh fit the
        // session's incremental append replaces.
        tr.enter(host, "layers");
        let window = window.clone();
        host.fresh_heap();
        tr.span(host, "fit", || w.config.fit(&window))?;
        host.fresh_heap();
        let (_, dense) = one_shot_stages(tr, host, &window, w.selection)?;
        log.count("dense_path", f64::from(u8::from(dense)));
        model_layers(tr, host, log, gemm, &outcome)?;
        tr.exit(host);
    }
    tr.exit(host);
    Ok(())
}

fn check_median_err(checks: &mut Checks, log: &Log, expect: &Expect) {
    let err = median(&log.err);
    checks.require(err <= expect.median_err, || {
        format!(
            "median held-out error {err:.3e} exceeds {:.1e}",
            expect.median_err
        )
    });
}

/// Reports failed checks on stderr; whether every check passed.
fn finish_checks(checks: &Checks) -> bool {
    for what in &checks.first {
        eprintln!("check failed: {what}");
    }
    if checks.failures > 0 {
        eprintln!("{} checks failed", checks.failures);
    }
    checks.failures == 0
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn end_to_end(log: &Log, host: &Host, tail_q: f64) -> Vec<Metric> {
    let model = host.scaled_all(&log.model);
    let sweep = host.scaled_all(&log.sweep);
    let setup = host.scaled_all(&log.setup);
    let busy_ms: f64 = model.iter().chain(&sweep).sum();
    vec![
        metric("model_ms.p50", median(&model), "ms"),
        metric("model_ms.tail", percentile(&model, tail_q), "ms"),
        metric("models_per_s", model.len() as f64 / (busy_ms / 1e3), "1/s"),
        metric("sweep_ms.p50", median(&sweep), "ms"),
        metric("setup_s", median(&setup) / 1e3, "s"),
        metric("peak_heap_mb", heap_peak_mb() - log.heap_base_mb, "MB"),
        metric("err_ref_digits", -median(&log.err).log10(), "digits"),
        metric("model_order", median(&log.order), "states"),
    ]
}

fn per_layer(log: &Log, host: &Host, tr: &Tracer, miss_err: f64) -> Result<Vec<Metric>, BoxError> {
    let spans = tr.scaled_by_name(host);
    let med = |name: &str| -> Result<f64, BoxError> {
        Ok(median(spans.get(name).ok_or(format!("no {name} spans"))?))
    };
    let count = |name: &str| -> Result<f64, BoxError> {
        Ok(median(
            log.counts.get(name).ok_or(format!("no {name} counts"))?,
        ))
    };
    // The fit the stages decompose: the operation itself on one-shot
    // workloads, the probe's fit of the window on streams.
    let fit_ms = med(if spans.contains_key("fit") {
        "fit"
    } else {
        "model"
    })?;
    let dense = count("dense_path")? >= 0.5;
    let covered = med("core.assembly")?
        + med("core.realify")?
        + med("numeric.detect_svd")?
        + if dense { med("core.realize")? } else { 0.0 };
    let untraced = median(&host.scaled_all(&log.model));
    Ok(vec![
        metric("host.ref_ms", median(&host.probe_ms()), "ms"),
        metric("sampling.validate_ms", med("sampling.validate")?, "ms"),
        metric("core.assembly_ms", med("core.assembly")?, "ms"),
        metric("core.realify_ms", med("core.realify")?, "ms"),
        metric("core.realize_ms", med("core.realize")?, "ms"),
        metric("core.fit_uncovered_ms", fit_ms - covered, "ms"),
        metric("core.pencil_order", count("core.pencil_order")?, "count"),
        metric("numeric.detect_svd_ms", med("numeric.detect_svd")?, "ms"),
        metric(
            "numeric.stacked_bidiag_ms",
            med("numeric.stacked_bidiag")?,
            "ms",
        ),
        metric("numeric.gemm256_ms", med("numeric.gemm256")?, "ms"),
        metric("core.append_ms.p50", med("core.append")?, "ms"),
        metric(
            "core.session_realize_ms.p50",
            med("core.session_realize")?,
            "ms",
        ),
        metric(
            "core.reanchor_per_append",
            count("core.reanchor_per_append")?,
            "1/append",
        ),
        metric(
            "core.quarantine_per_append",
            count("core.quarantine_per_append")?,
            "1/append",
        ),
        metric("core.retained_rank", count("core.retained_rank")?, "count"),
        metric(
            "statespace.sweep_groups",
            count("statespace.sweep_groups")?,
            "count",
        ),
        metric("statespace.poles_ms", med("statespace.poles")?, "ms"),
        metric(
            "statespace.rhp_poles",
            count("statespace.rhp_poles")?,
            "count",
        ),
        metric("alloc.model_faults", count("alloc.model_faults")?, "count"),
        metric("alloc.sweep_faults", count("alloc.sweep_faults")?, "count"),
        metric(
            "quality.miss_share",
            log.err.iter().filter(|&&e| e > miss_err).count() as f64 / log.err.len() as f64,
            "1/model",
        ),
        metric(
            "trace.overhead_pct",
            100.0 * (med("model")? / untraced - 1.0),
            "%",
        ),
    ])
}

fn result_line(log: &Log, metrics: &[Metric]) -> Result<String, BoxError> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value).into());
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        log.correct,
        log.attempted,
        log.failed,
        body.join(", ")
    ))
}

fn build_workload(args: &Args, cases: std::ops::Range<u64>) -> Result<Workload, BoxError> {
    workloads::build(&args.workload, args.seed, cases).ok_or(format!(
        "unknown workload {} (one of {})",
        args.workload,
        workloads::NAMES.join(", ")
    ))?
}

fn run(args: &Args) -> Result<String, BoxError> {
    let workload = build_workload(args, 0..workloads::INSTANCES)?;
    // One-shot fits measure on a cold heap, as a fit in a fresh process
    // runs; a stream's session lives on in a warm process.
    let mut host = Host::new(matches!(workload, Workload::OneShot(_)));
    let (log, tr, tail_q, miss_err) = match &workload {
        Workload::OneShot(w) => {
            let (log, tr) = run_one_shot(w, args, &mut host)?;
            (log, tr, w.tail_q, w.expect.miss_err)
        }
        Workload::Stream(w) => {
            let (log, tr) = run_stream(w, args, &mut host)?;
            (log, tr, w.tail_q, w.expect.miss_err)
        }
    };
    let raw = |ts: &[Timed]| median(&ts.iter().map(|t| t.raw_ms).collect::<Vec<_>>());
    println!(
        "ops {} (failed {}) | model p50 raw {:.3} ms, scaled {:.3} ms | ref loop median {:.4} ms \
         over {} probes | held-out error median {:.3e}, max {:.3e}, {} above {:.0e} | heap peak \
         {:.3} MB, {:.3} MB once the inputs were built",
        log.attempted,
        log.failed,
        raw(&log.model),
        median(&host.scaled_all(&log.model)),
        median(&host.probe_ms()),
        host.probe_ms().len(),
        median(&log.err),
        log.err.iter().copied().fold(0.0, f64::max),
        log.err.iter().filter(|&&e| e > miss_err).count(),
        miss_err,
        heap_peak_mb(),
        log.heap_base_mb,
    );
    let metrics = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans_{}_seed{}.json", args.workload, args.seed));
        tr.write_json(&path)?;
        println!("spans written to {}", path.display());
        per_layer(&log, &host, &tr, miss_err)?
    } else {
        end_to_end(&log, &host, tail_q)
    };
    for m in &metrics {
        println!("{:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    result_line(&log, &metrics)
}

fn main() -> ExitCode {
    // One library worker thread; set before any library call reads it.
    std::env::set_var("MFTI_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mftibench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(rep) = args.setup_rep {
        return match run_setup(&args, rep) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mftibench set-up {rep}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "mftibench workload={} seed={} seconds={} trace={} workers={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        parallel::available_threads(),
    );
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mftibench: {e}");
            ExitCode::FAILURE
        }
    }
}
