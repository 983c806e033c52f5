//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <crowd_10k|planes_2k|acs_faulted_2k|repro_full> \
//!     [--seed 11] [--seconds 12] [--trace 0|1]
//! ```
//!
//! It builds the workload from the seed, checks every timed call against
//! a reference computed once in set-up, prints each metric with its unit,
//! writes the result (and, traced, the spans) under `.perfbench/`, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See `perfbench/README.md` for the workloads and what each metric should
//! move.

mod calib;
mod engine;
mod host;
mod repro;
mod stats;
mod trace;

use engine::{EngineSpec, Reference};
use host::THREADS;
use rdv_sim::Algorithm;
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Span, Tracer};

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Checked outputs: every call whose output is compared to a reference
/// counts as attempted, and as failed when it panicked or differed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Runs `f`, turning a panic into `None`, which then fails its check.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 16 {
                self.problems
                    .push(format!("{what}: panicked or differs from its reference"));
            }
        }
    }

    /// A set-up check: not a timed call, but a failure makes the run
    /// incorrect.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.problems.push(format!("set-up: {what}"));
        }
    }
}

/// The timed end-to-end calls in call order, in CPU seconds calibrated
/// to the reference host speed ([`calib`]), raw CPU seconds and wall
/// seconds; the calibrated and raw CPU seconds of each set-up; and the
/// CPU seconds of every calibration probe.
#[derive(Default)]
struct Timings {
    cal: Vec<f64>,
    cpu: Vec<f64>,
    wall: Vec<f64>,
    setup_cal: Vec<f64>,
    setup_cpu: Vec<f64>,
    probes: Vec<f64>,
    setup_probes: Vec<f64>,
}

/// Calls `call` until `seconds` of wall time have passed, at least once,
/// timing each call in process CPU seconds and in wall seconds, running
/// the calibration probe between calls, and checking each output with
/// `ok` outside the timed span.
fn measure<R>(
    seconds: f64,
    probe: &calib::Probe,
    checks: &mut Checks,
    what: &str,
    mut call: impl FnMut() -> R,
    ok: impl Fn(&R) -> bool,
) -> Timings {
    let begin = Instant::now();
    let mut t = Timings::default();
    let mut before = probe.run();
    t.probes.push(before);
    let mut calls = 0;
    while calls == 0 || begin.elapsed().as_secs_f64() < seconds {
        let (wall, cpu) = (Instant::now(), host::cpu_seconds());
        let out = guarded(&mut call);
        let cpu = host::cpu_seconds() - cpu;
        let wall = wall.elapsed().as_secs_f64();
        let after = probe.run();
        t.probes.push(after);
        let good = out.as_ref().is_some_and(&ok);
        checks.check(good, what);
        if good {
            t.cal.push(calib::calibrated(cpu, before, after));
            t.cpu.push(cpu);
            t.wall.push(wall);
        }
        before = after;
        calls += 1;
    }
    t
}

fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        stats::median(xs)
    }
}

/// Repeats `setup` at least twenty times and for at least three seconds,
/// returning the calibrated and the raw CPU seconds of each set-up and
/// the last result. The speed of a shared host swings from second to
/// second, so the median needs many set-ups spread over seconds. A
/// set-up shorter than ten milliseconds is timed in batches that long,
/// each sample being a batch's mean; the previous result is dropped
/// outside the timed span. The calibration probe runs between samples.
fn repeated_setup<T>(probe: &calib::Probe, mut setup: impl FnMut() -> T) -> (Timings, T) {
    const BATCH_SECONDS: f64 = 1e-2;
    let begin = Instant::now();
    let mut t = Timings::default();
    let mut last = None;
    let mut batch = 1u32;
    let mut before = probe.run();
    t.setup_probes.push(before);
    while t.setup_cpu.len() < 20 || begin.elapsed().as_secs_f64() < 3.0 {
        drop(last.take());
        let start = host::cpu_seconds();
        for _ in 1..batch {
            drop(setup());
        }
        last = Some(setup());
        let secs = (host::cpu_seconds() - start) / f64::from(batch);
        if t.setup_cpu.is_empty() && batch == 1 && secs < BATCH_SECONDS {
            // Too short to time alone: size the batches from this one.
            batch = (BATCH_SECONDS / secs.max(1e-7)).ceil() as u32;
            continue;
        }
        let after = probe.run();
        t.setup_probes.push(after);
        t.setup_cal.push(calib::calibrated(secs, before, after));
        t.setup_cpu.push(secs);
        before = after;
    }
    (t, last.expect("set up at least once"))
}

/// A finished run: end-to-end metrics, per-layer metrics (traced runs)
/// and human-readable notes.
struct Outcome {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    notes: Vec<String>,
    /// Every timed call's duration, in call order.
    samples: Timings,
}

/// The sample counts, quartiles and tail percentile of the timed calls
/// and set-ups, calibrated and raw, the probe's quartiles, and the
/// throughputs and wall-clock figures beside them. Raw CPU and wall
/// figures are printed, not gated, because they move with the host's
/// speed; `pair_slots_per_cpu_s` is printed, not gated, because for a
/// given seed it is a fixed count over the raw CPU time.
fn timing_notes(t: &Timings, slots: u64) -> Vec<String> {
    let mut notes = vec![format!(
        "set-ups timed: {}, calls timed: {}, probes run: {}",
        t.setup_cpu.len(),
        t.cpu.len(),
        t.probes.len()
    )];
    if let Some((p, v)) = stats::tail_percentile(&t.cal) {
        notes.push(format!("run_cal_s p{p}: {v:.6} s"));
    }
    for (label, xs) in [
        ("setup_s (calibrated)", &t.setup_cal),
        ("setup_s (raw CPU)", &t.setup_cpu),
        ("run_cal_s", &t.cal),
        ("run_cpu_s (raw)", &t.cpu),
        ("run_s (wall)", &t.wall),
        ("calibration probe (set-up)", &t.setup_probes),
        ("calibration probe (calls)", &t.probes),
    ] {
        if !xs.is_empty() {
            let q = stats::quartiles(xs);
            notes.push(format!(
                "{label} quartiles: {:.6} {:.6} {:.6} s",
                q[0], q[1], q[2]
            ));
        }
    }
    let wall = median_or_nan(&t.wall);
    notes.push(format!("run_s_p50 (wall, not gated): {wall:.6} s"));
    notes.push(format!(
        "pair_slots_per_s (wall, not gated): {:.1} 1/s",
        slots as f64 / wall
    ));
    notes.push(format!(
        "pair_slots_per_cpu_s (not gated): {:.1} 1/s",
        slots as f64 / median_or_nan(&t.cpu)
    ));
    notes.push(format!("pair_slots: {slots}"));
    notes
}

/// The gated end-to-end metrics of a run.
fn end_to_end(t: &Timings) -> Vec<Metric> {
    vec![
        Metric::new("run_cal_s_p50", median_or_nan(&t.cal), "s"),
        Metric::new("setup_s", stats::median(&t.setup_cal), "s"),
        Metric::new("peak_rss_mib", host::peak_rss_mib(), "MiB"),
    ]
}

/// Median CPU time of every span named `name`.
fn span_median(tr: &Tracer, name: &str) -> f64 {
    let xs: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(Span::cpu)
        .collect();
    median_or_nan(&xs)
}

fn run_engine_workload(
    spec: &EngineSpec,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Outcome {
    let probe = calib::Probe::new();
    let (setups, pop) = repeated_setup(&probe, || {
        tr.span("setup", |tr| engine::build(spec, seed, tr))
    });
    let reference = pop.reference(spec.reference);
    let cfg = pop.default_cfg();
    let horizon = pop.horizon;
    // Warm-up: caches and allocator, checked but untimed.
    let warm = guarded(|| pop.sim.run_engine(horizon, &cfg));
    checks.check(warm.as_ref() == Some(&reference), "warm-up run_engine");
    drop(warm);
    host::reset_peak_rss();
    let mut t = measure(
        seconds,
        &probe,
        checks,
        "run_engine",
        || pop.sim.run_engine(horizon, &cfg),
        |r| *r == reference,
    );
    t.setup_cal = setups.setup_cal;
    t.setup_cpu = setups.setup_cpu;
    t.setup_probes = setups.setup_probes;
    let slots = stats::report_pair_slots(&pop.wakes(), &reference);
    let mut notes = timing_notes(&t, slots);
    let e2e = end_to_end(&t);
    let mut layers = Vec::new();
    if tr.enabled() {
        layers.extend(engine::population_metrics(
            &pop,
            span_median(tr, "workload.gen"),
        ));
        let (engine_layers, accounting) = engine::layer_probes(&pop, &reference, seed, tr, checks);
        let replay_s = engine_layers
            .iter()
            .find(|m| m.name == "engine.replay_s")
            .map_or(f64::NAN, |m| m.value);
        let run_cpu = median_or_nan(&t.cpu);
        layers.extend(engine_layers);
        notes.extend(accounting);
        notes.push(format!(
            "the one-thread replay ({replay_s:.4} s) is {:.3} of the raw CPU median of a call ({run_cpu:.4} s)",
            replay_s / run_cpu
        ));
        // Engine workloads never enter the pipelines; as a control, the
        // pipeline layers run at the smoke tier against the committed
        // artifacts.
        let committed = repro::committed_smoke();
        checks.require(
            committed.is_some(),
            "committed REPRO_* artifacts are readable",
        );
        let (pipeline_layers, pipeline_notes) = repro::layer_probes(
            blind_rendezvous::report::Tier::Smoke,
            &committed.unwrap_or_default(),
            tr,
            checks,
        );
        layers.extend(pipeline_layers);
        notes.extend(pipeline_notes);
    }
    Outcome {
        e2e,
        layers,
        notes,
        samples: t,
    }
}

/// The engine input of `repro_full`'s traced probes: the faults
/// pipeline's largest full-tier population (64 ACS-hopping agents under
/// the light plan), shaped by the universe, set size, wake window and
/// horizon its artifact's `config` section records.
fn faults_pipeline_shape(expected: &repro::Artifacts) -> EngineSpec {
    let name = format!("{}.json", blind_rendezvous::pipelines::faults::STEM);
    let (_, bytes) = expected
        .iter()
        .find(|(n, _)| *n == name)
        .expect("regenerate emits the faults artifact");
    let json = serde_json::from_str(std::str::from_utf8(bytes).expect("artifacts are UTF-8"))
        .expect("the faults artifact parses");
    let config = |key: &str| {
        json.get("config")
            .and_then(|c| c.get(key))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("the faults artifact records config.{key}"))
    };
    EngineSpec {
        algo: Algorithm::AcsHopping,
        n: config("universe"),
        k: config("k") as usize,
        agents: 64,
        max_wake: config("max_wake"),
        horizon: config("horizon"),
        faulted: true,
        reference: Reference::PerPair,
    }
}

fn run_repro_workload(seed: u64, seconds: f64, tr: &mut Tracer, checks: &mut Checks) -> Outcome {
    use blind_rendezvous::pipelines::table1_cells;
    use blind_rendezvous::report::Tier;
    // Set-up is building the Table 1 grid's cells, the one pipeline cell
    // builder the library exposes; the other pipelines build theirs
    // inside `run`, so their construction is timed with the call.
    let probe = calib::Probe::new();
    let (setups, _cells) = repeated_setup(&probe, || table1_cells(Tier::Full, THREADS));
    // References, untimed: a one-thread full-tier regeneration, and the
    // smoke tier against the committed artifacts.
    let reference = repro::regenerate(Tier::Full, 1, &mut Tracer::new(false));
    let expected = repro::artifacts(&reference);
    checks.require(
        repro::matches(&reference, &expected),
        "the one-thread full-tier regeneration is clean",
    );
    drop(reference);
    let committed = repro::committed_smoke();
    let smoke = repro::regenerate(Tier::Smoke, THREADS, &mut Tracer::new(false));
    checks.require(
        committed
            .as_ref()
            .is_some_and(|c| repro::matches(&smoke, c)),
        "the smoke tier regenerates the committed REPRO_* bytes",
    );
    let slots = repro::table1_pair_slots(&expected);
    drop(smoke);
    host::reset_peak_rss();
    let mut t = measure(
        seconds,
        &probe,
        checks,
        "full-tier regeneration",
        || repro::regenerate(Tier::Full, THREADS, &mut Tracer::new(false)),
        |o| repro::matches(o, &expected),
    );
    t.setup_cal = setups.setup_cal;
    t.setup_cpu = setups.setup_cpu;
    t.setup_probes = setups.setup_probes;
    let mut notes = timing_notes(&t, slots);
    notes.push("pair_slots here count the Table 1 sweep's samples".to_string());
    let e2e = end_to_end(&t);
    let mut layers = Vec::new();
    if tr.enabled() {
        let shape = faults_pipeline_shape(&expected);
        let pop = engine::build(&shape, seed, tr);
        let reference = pop.reference(shape.reference);
        layers.extend(engine::population_metrics(
            &pop,
            span_median(tr, "workload.gen"),
        ));
        let (engine_layers, accounting) = engine::layer_probes(&pop, &reference, seed, tr, checks);
        layers.extend(engine_layers);
        notes.extend(accounting);
        let (pipeline_layers, pipeline_notes) =
            repro::layer_probes(Tier::Full, &expected, tr, checks);
        layers.extend(pipeline_layers);
        notes.extend(pipeline_notes);
    }
    Outcome {
        e2e,
        layers,
        notes,
        samples: t,
    }
}

fn engine_spec(workload: &str) -> Option<EngineSpec> {
    let base = EngineSpec {
        algo: Algorithm::Ours,
        n: 1024,
        k: 64,
        agents: 10_000,
        max_wake: 256,
        horizon: 1024,
        faulted: false,
        reference: Reference::OneThreadSlotwise,
    };
    match workload {
        "crowd_10k" => Some(base),
        "planes_2k" => Some(EngineSpec {
            k: 32,
            agents: 2048,
            horizon: 8192,
            reference: Reference::PerPair,
            ..base
        }),
        "acs_faulted_2k" => Some(EngineSpec {
            algo: Algorithm::AcsHopping,
            n: 256,
            k: 32,
            agents: 2048,
            horizon: 2048,
            faulted: true,
            reference: Reference::PerPair,
            ..base
        }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: 12.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse::<u64>().map_err(bad)? as f64;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if engine_spec(&args.workload).is_none() && args.workload != "repro_full" {
        return Err(format!(
            "unknown workload {:?} (crowd_10k, planes_2k, acs_faulted_2k, repro_full)",
            args.workload
        ));
    }
    Ok(args)
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::object([
                        ("value", Value::from(m.value)),
                        ("unit", Value::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn seconds_json(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::from(x)).collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = host::stamp(args.seed);
    let mut tr = Tracer::new(args.trace);
    let mut checks = Checks::default();
    let outcome = match engine_spec(&args.workload) {
        Some(spec) => run_engine_workload(&spec, args.seed, args.seconds, &mut tr, &mut checks),
        None => run_repro_workload(args.seed, args.seconds, &mut tr, &mut checks),
    };

    println!();
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("host {stamp}");
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in outcome.e2e.iter().chain(&outcome.layers) {
        println!("  {:<28} {:>22.9} {}", m.name, m.value, m.unit);
    }
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>22.9} ratio ({} of {} checked calls failed)",
        "error_rate", error_rate, checks.failed, checks.attempted
    );
    for p in &checks.problems {
        println!("  FAILED {p}");
    }
    let correct = checks.problems.is_empty() && checks.failed == 0;
    let reported = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let result = Value::object([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(checks.attempted)),
        ("failed", Value::from(checks.failed)),
        ("metrics", metrics_json(reported)),
    ]);
    let record = Value::object([
        ("workload", Value::from(args.workload.as_str())),
        ("host", stamp),
        ("error_rate", Value::from(error_rate)),
        ("end_to_end", metrics_json(&outcome.e2e)),
        ("per_layer", metrics_json(&outcome.layers)),
        ("run_cal_s", seconds_json(&outcome.samples.cal)),
        ("run_cpu_s", seconds_json(&outcome.samples.cpu)),
        ("run_wall_s", seconds_json(&outcome.samples.wall)),
        ("setup_cal_s", seconds_json(&outcome.samples.setup_cal)),
        ("setup_cpu_s", seconds_json(&outcome.samples.setup_cpu)),
        ("probe_cpu_s", seconds_json(&outcome.samples.probes)),
        ("spans", tr.to_json()),
        ("result", result.clone()),
    ]);
    let path = std::path::Path::new(".perfbench").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(".perfbench")
        .and_then(|()| std::fs::write(&path, serde_json::to_string_pretty(&record) + "\n"))
    {
        Ok(()) => println!("record {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
    println!("{}", serde_json::to_string(&result));
    ExitCode::SUCCESS
}
