//! Pairwise time-to-rendezvous sweeps — the engine behind the Table 1 and
//! scaling experiments.
//!
//! A sweep grid runs as **two flat waves** on the work-stealing
//! orchestrator ([`pool::run_indexed`]). Wave 1 turns every
//! `(algorithm, scenario)` cell into its plan: it validates the cell and
//! builds and compiles its schedules **once** ([`PreparedSchedule`]). Wave
//! 2 evaluates the `(shift × seed)` sample chunks of every planned cell,
//! sized by [`pool::chunk_size`], reading the plans read-only. Chunks of
//! different cells steal from one another, so a slow cell does not
//! serialize an artifact run. [`sweep_pair_grid`] / [`sweep_lower_grid`]
//! run whole grids this way; [`sweep_pair_ttr`] / [`sweep_lower_bound`]
//! are the single-cell special cases. Every sample's randomness derives
//! from its grid position ([`pool::stream_seed`]), so a sweep's result is
//! bit-identical at 1, 2, or N threads (asserted by
//! `tests/parallel_determinism.rs` and `tests/task_tree.rs`).

use crate::algo::{AgentCtx, Algorithm, DynSchedule};
use crate::pool::{self, ParallelConfig};
use crate::stats::Summary;
use crate::workload::PairScenario;
use rdv_core::channel::ChannelSetError;
use rdv_core::compiled::PreparedSchedule;
use rdv_core::verify;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt;
use std::ops::Range;

/// Sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Number of relative wake-up shifts per scenario.
    pub shifts: u64,
    /// Stride between sampled shifts (1 = consecutive). Ignored when
    /// `spread_over_period` is set and the schedule reports a period.
    pub shift_stride: u64,
    /// Derive the stride from the schedule period so the sampled shifts
    /// cover one entire period — essential for worst-case (max) columns,
    /// since adversarial shifts of the `O(n²)`/`O(n³)` baselines live deep
    /// inside their periods.
    pub spread_over_period: bool,
    /// Seeds per scenario for randomized algorithms (ignored by
    /// deterministic ones, which run a single seed).
    pub seeds: u64,
    /// Simulation cut-off override (0 = use the algorithm default).
    pub horizon_override: u64,
    /// Worker threads for the parallel orchestrator (0 = auto-detect).
    /// Results are bit-identical for every value.
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            shifts: 32,
            shift_stride: 7,
            spread_over_period: true,
            seeds: 8,
            horizon_override: 0,
            threads: 0,
        }
    }
}

/// Why a sweep could not produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepError {
    /// A channel set failed validation (empty, zero channel, duplicate).
    InvalidSet(ChannelSetError),
    /// The two channel sets share no channel — rendezvous is impossible,
    /// and sweeping the full horizon for every shift would only burn time
    /// proving it.
    DisjointSets,
    /// The algorithm cannot be instantiated on the scenario (e.g. a set
    /// exceeding the universe `[n]`).
    Unsupported {
        /// The algorithm that refused.
        algorithm: Algorithm,
        /// The universe size it was asked for.
        n: u64,
    },
    /// Every `(shift, seed)` sample missed the horizon.
    NoSamples {
        /// How many samples failed.
        failures: usize,
    },
    /// Scenario parameters that can never produce a valid scenario
    /// (caught before any sampling).
    InvalidScenario {
        /// What the generator requires.
        reason: &'static str,
    },
    /// A randomized scenario sampler exceeded its retry budget in every
    /// backoff round — the typed replacement for the unbounded resampling
    /// loops that could spin forever on near-infeasible parameters.
    SamplingExhausted {
        /// Total draws attempted across all rounds before giving up.
        attempts: u32,
        /// Exponential backoff-in-attempts rounds used (the per-round
        /// draw budget doubles each round).
        rounds: u32,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidSet(e) => write!(f, "invalid channel set: {e}"),
            SweepError::DisjointSets => {
                write!(f, "channel sets are disjoint; rendezvous is impossible")
            }
            SweepError::Unsupported { algorithm, n } => {
                write!(
                    f,
                    "{algorithm} cannot be instantiated on this scenario at n={n}"
                )
            }
            SweepError::NoSamples { failures } => {
                write!(f, "all {failures} samples missed the horizon")
            }
            SweepError::InvalidScenario { reason } => {
                write!(f, "invalid scenario parameters: {reason}")
            }
            SweepError::SamplingExhausted { attempts, rounds } => {
                write!(
                    f,
                    "scenario sampler gave up after {attempts} draws across {rounds} backoff rounds"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ChannelSetError> for SweepError {
    fn from(e: ChannelSetError) -> Self {
        SweepError::InvalidSet(e)
    }
}

/// The result of sweeping one `(algorithm, scenario)` cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairSweep {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Universe size.
    pub n: u64,
    /// `|A|`.
    pub k: usize,
    /// `|B|`.
    pub ell: usize,
    /// TTR summary over all (shift, seed) samples.
    pub summary: Summary,
    /// Number of samples that failed to rendezvous within the horizon.
    pub failures: usize,
    /// The horizon used.
    pub horizon: u64,
}

impl PairSweep {
    /// The sweep as a JSON object — the repro pipeline's artifact row, and
    /// the witness the cross-thread-count determinism tests compare
    /// byte-for-byte.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("algorithm", Value::from(self.algorithm.to_string())),
            ("n", Value::from(self.n)),
            ("k", Value::from(self.k)),
            ("ell", Value::from(self.ell)),
            ("count", Value::from(self.summary.count)),
            ("max", Value::from(self.summary.max)),
            ("mean", Value::from(self.summary.mean)),
            ("p50", Value::from(self.summary.p50)),
            ("p95", Value::from(self.summary.p95)),
            ("failures", Value::from(self.failures)),
            ("horizon", Value::from(self.horizon)),
        ])
    }
}

/// The deterministic per-seed agent contexts: RNG streams derive from the
/// seed's grid index via [`pool::stream_seed`], never from thread identity
/// or execution order.
fn seed_ctxs(seed: u64, wake_b: u64) -> (AgentCtx, AgentCtx) {
    (
        AgentCtx {
            wake: 0,
            agent_seed: pool::stream_seed(seed, 0),
            shared_seed: seed,
            faults: None,
        },
        AgentCtx {
            wake: wake_b,
            agent_seed: pool::stream_seed(seed, 1),
            shared_seed: seed,
            faults: None,
        },
    )
}

/// One `(algorithm, scenario)` cell of a sweep grid — the unit
/// [`sweep_pair_grid`] builds whole measurement grids from.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The algorithm to sweep.
    pub algorithm: Algorithm,
    /// Universe size.
    pub n: u64,
    /// The scenario to sweep.
    pub scenario: PairScenario,
    /// Per-cell sweep parameters. `cfg.threads` is ignored inside a grid —
    /// the grid's [`ParallelConfig`] governs both of its waves.
    pub cfg: SweepConfig,
}

/// A seed's hoisted schedule pair; `None` marks a seed whose schedules
/// could not be instantiated, which chunk evaluation counts as one
/// failure per swept shift (matching the historical per-sample
/// accounting).
type PreparedPair = Option<(PreparedSchedule<DynSchedule>, PreparedSchedule<DynSchedule>)>;

/// The validated, construction-hoisted state of one pair-sweep cell: what
/// the grid's first wave computes per cell, then shares read-only with the
/// cell's `(shift × seed)` chunk tasks in the second wave.
struct PairSweepPlan {
    algorithm: Algorithm,
    n: u64,
    k: usize,
    ell: usize,
    horizon: u64,
    seeds: u64,
    shift_jobs: Vec<u64>,
    scenario: PairScenario,
    prepared: Option<Vec<PreparedPair>>,
}

impl PairSweepPlan {
    /// Validates the cell and hoists schedule construction out of the
    /// `(shift × seed)` grid: for every algorithm whose schedule does not
    /// depend on the wake slot ([`Algorithm::wake_sensitive`] is false —
    /// all but the beacon protocols) both schedules are built **once per
    /// seed** and compiled to period tables when small enough. The beacon
    /// protocols, whose schedules listen to a globally-timed stream, keep
    /// the per-(shift, seed) construction (inside the chunk tasks, so it
    /// parallelizes too).
    fn new(
        algorithm: Algorithm,
        n: u64,
        scenario: &PairScenario,
        cfg: &SweepConfig,
    ) -> Result<Self, SweepError> {
        if !scenario.a.overlaps(&scenario.b) {
            return Err(SweepError::DisjointSets);
        }
        let k = scenario.a.len();
        let ell = scenario.b.len();
        let horizon = if cfg.horizon_override > 0 {
            cfg.horizon_override
        } else {
            algorithm.horizon(n, k, ell)
        };
        let seeds = if algorithm.is_deterministic() {
            1
        } else {
            cfg.seeds.max(1)
        };

        // Probe instantiation once up front so an impossible scenario is a
        // typed error instead of `shifts × seeds` silent failures.
        let (probe_a, probe_b) = seed_ctxs(0, 0);
        if algorithm.make(n, &scenario.a, &probe_a).is_none()
            || algorithm.make(n, &scenario.b, &probe_b).is_none()
        {
            return Err(SweepError::Unsupported { algorithm, n });
        }

        let stride = if cfg.spread_over_period {
            // Probe one schedule for its period and spread shifts across
            // it, with a prime-ish offset so we don't only sample period
            // multiples.
            algorithm
                .make(n, &scenario.a, &AgentCtx::default())
                .and_then(|s| s.period_hint())
                .map(|p| (p / cfg.shifts.max(1)).max(1) | 1)
                .unwrap_or(cfg.shift_stride.max(1))
        } else {
            cfg.shift_stride.max(1)
        };
        let shift_jobs: Vec<u64> = (0..cfg.shifts).map(|i| i * stride).collect();

        let prepared: Option<Vec<PreparedPair>> = if algorithm.wake_sensitive() {
            None
        } else {
            Some(
                (0..seeds)
                    .map(|seed| {
                        let (ctx_a, ctx_b) = seed_ctxs(seed, 0);
                        match (
                            algorithm.make(n, &scenario.a, &ctx_a),
                            algorithm.make(n, &scenario.b, &ctx_b),
                        ) {
                            (Some(sa), Some(sb)) => {
                                Some((PreparedSchedule::new(sa), PreparedSchedule::new(sb)))
                            }
                            _ => None,
                        }
                    })
                    .collect(),
            )
        };

        Ok(PairSweepPlan {
            algorithm,
            n,
            k,
            ell,
            horizon,
            seeds,
            shift_jobs,
            scenario: scenario.clone(),
            prepared,
        })
    }

    /// Flat sample count (sample = shift-major, seed-minor).
    fn total_samples(&self) -> usize {
        self.shift_jobs.len() * self.seeds as usize
    }

    /// Evaluates one chunk of the flat sample grid — a wave-2 task's work.
    fn eval_chunk(&self, range: Range<usize>) -> (Vec<u64>, usize) {
        let mut local = Vec::with_capacity(range.len());
        let mut local_failures = 0usize;
        for sample in range {
            let shift = self.shift_jobs[sample / self.seeds as usize];
            let seed = (sample % self.seeds as usize) as u64;
            let outcome = if let Some(prepared) = &self.prepared {
                match &prepared[seed as usize] {
                    Some((sa, sb)) => verify::async_ttr_prepared(sa, sb, shift, self.horizon),
                    None => {
                        local_failures += 1;
                        continue;
                    }
                }
            } else {
                let (ctx_a, ctx_b) = seed_ctxs(seed, shift);
                let (Some(sa), Some(sb)) = (
                    self.algorithm.make(self.n, &self.scenario.a, &ctx_a),
                    self.algorithm.make(self.n, &self.scenario.b, &ctx_b),
                ) else {
                    local_failures += 1;
                    continue;
                };
                verify::async_ttr(&sa, &sb, shift, self.horizon)
            };
            match outcome {
                Some(ttr) => local.push(ttr),
                None => local_failures += 1,
            }
        }
        (local, local_failures)
    }

    /// Folds the chunk results (in chunk order, so the sample order is
    /// exactly the sequential one) into the cell's sweep summary.
    fn finish(&self, parts: Vec<(Vec<u64>, usize)>) -> Result<PairSweep, SweepError> {
        let mut samples = Vec::with_capacity(self.total_samples());
        let mut failures = 0usize;
        for (local, f) in parts {
            samples.extend(local);
            failures += f;
        }
        let summary = Summary::of(&samples).ok_or(SweepError::NoSamples { failures })?;
        Ok(PairSweep {
            algorithm: self.algorithm,
            n: self.n,
            k: self.k,
            ell: self.ell,
            summary,
            failures,
            horizon: self.horizon,
        })
    }
}

/// Runs a grid of cells as two flat [`pool::run_indexed`] waves: wave 1
/// builds every cell's plan with `plan`, wave 2 evaluates the
/// `(cell, range)` chunks of every planned cell's `len(plan)` samples with
/// `eval`, sized by the workspace-wide [`pool::chunk_size`] policy, so
/// stealing crosses cells. Each planned cell's chunk results then fold
/// through `finish` in chunk order — chunk boundaries never influence
/// results, because the folds reconstitute the sequential sample order.
/// Results come back per cell in submission order.
fn run_grid<C, P, R, O>(
    cells: Vec<C>,
    parallel: &ParallelConfig,
    plan: impl Fn(C) -> Result<P, SweepError> + Sync,
    len: impl Fn(&P) -> usize,
    eval: impl Fn(&P, Range<usize>) -> R + Sync,
    finish: impl Fn(&P, Vec<R>) -> Result<O, SweepError>,
) -> Vec<Result<O, SweepError>>
where
    C: Send,
    P: Send + Sync,
    R: Send,
{
    let plans = pool::run_indexed(cells, parallel, |_, cell| plan(cell));
    let threads = parallel.requested_threads();
    let chunks: Vec<Vec<(usize, Range<usize>)>> = plans
        .iter()
        .enumerate()
        .map(|(cell, p)| match p {
            Ok(p) => {
                let total = len(p);
                let chunk = pool::chunk_size(total, threads);
                (0..total)
                    .step_by(chunk)
                    .map(|start| (cell, start..(start + chunk).min(total)))
                    .collect()
            }
            Err(_) => Vec::new(),
        })
        .collect();
    let counts: Vec<usize> = chunks.iter().map(Vec::len).collect();
    let mut results = pool::run_indexed(
        chunks.into_iter().flatten().collect(),
        parallel,
        |_, (cell, range)| {
            let plan = plans[cell].as_ref();
            eval(plan.expect("only planned cells have chunks"), range)
        },
    )
    .into_iter();
    plans
        .into_iter()
        .zip(counts)
        .map(|(plan, k)| finish(&plan?, results.by_ref().take(k).collect()))
        .collect()
}

/// Sweeps a whole grid of cells in two flat waves: every cell's
/// validated `PairSweepPlan` is built first, then the `(shift × seed)`
/// chunks of all cells work-steal across one pool regardless of which
/// cell they belong to, and per-cell results fold back in submission
/// order.
///
/// Equivalent to calling [`sweep_pair_ttr`] per cell in order — the
/// sequential outer loop the artifact pipelines used to run — but a slow
/// cell no longer serializes the grid. Cell failures are per-cell `Err`s:
/// one impossible cell does not poison its neighbors. `tests/task_tree.rs`
/// pins the per-cell equivalence, `tests/repro_determinism.rs` the
/// bit-identical artifacts.
pub fn sweep_pair_grid(
    cells: Vec<SweepCell>,
    parallel: &ParallelConfig,
) -> Vec<Result<PairSweep, SweepError>> {
    run_grid(
        cells,
        parallel,
        |cell: SweepCell| PairSweepPlan::new(cell.algorithm, cell.n, &cell.scenario, &cell.cfg),
        PairSweepPlan::total_samples,
        PairSweepPlan::eval_chunk,
        PairSweepPlan::finish,
    )
}

/// Measures times-to-rendezvous for one algorithm on one scenario across
/// wake-up shifts (and seeds, for randomized algorithms) — the
/// single-cell case of [`sweep_pair_grid`].
///
/// Samples that miss the horizon are *counted* in `failures` and excluded
/// from the summary — for the deterministic algorithms a non-zero failure
/// count within their guarantee horizon indicates a bug and is asserted
/// against throughout the test suite.
///
/// Schedule construction is hoisted out of the `(shift × seed)` grid and
/// shared read-only across the work-stealing workers (see
/// `PairSweepPlan::new`).
///
/// # Errors
///
/// * [`SweepError::DisjointSets`] — the scenario's sets cannot rendezvous;
/// * [`SweepError::Unsupported`] — the algorithm refuses the scenario
///   (e.g. a channel exceeding the universe);
/// * [`SweepError::NoSamples`] — every sample missed the horizon.
pub fn sweep_pair_ttr(
    algorithm: Algorithm,
    n: u64,
    scenario: &PairScenario,
    cfg: &SweepConfig,
) -> Result<PairSweep, SweepError> {
    let parallel = ParallelConfig {
        threads: cfg.threads,
    };
    sweep_pair_grid(
        vec![SweepCell {
            algorithm,
            n,
            scenario: scenario.clone(),
            cfg: *cfg,
        }],
        &parallel,
    )
    .pop()
    .expect("one cell submitted, one result returned")
}

/// Parameters of a [`sweep_lower_bound`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerSweepConfig {
    /// Sweep shift `0` only (synchronous wake-up). The covering bound
    /// quantifies over shifts, so synchronous cells get the trivial bound.
    pub sync: bool,
    /// Sweep every shift in `[0, period_A)` when the period is at most
    /// this — the regime where `certified_bound ≤ witness_ttr` is a hard
    /// invariant rather than a sampled one.
    pub max_exhaustive_shifts: u64,
    /// Shifts to sample (spread over the period) when the period exceeds
    /// the exhaustive cap or is unknown.
    pub sampled_shifts: u64,
    /// Simulation cut-off override (0 = the algorithm default).
    pub horizon_override: u64,
    /// Worker threads (0 = auto-detect); results are bit-identical for
    /// every value.
    pub threads: usize,
}

impl Default for LowerSweepConfig {
    fn default() -> Self {
        LowerSweepConfig {
            sync: false,
            max_exhaustive_shifts: 1024,
            sampled_shifts: 64,
            horizon_override: 0,
            threads: 0,
        }
    }
}

/// One cell of the lower-bound reproduction grid: a certified lower bound
/// on the worst-over-shifts TTR plus the measured worst witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerBoundSweep {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Universe size.
    pub n: u64,
    /// `|A|`.
    pub k: usize,
    /// `|B|`.
    pub ell: usize,
    /// The certified lower bound ([`rdv_lower::best_bound`]'s covering
    /// argument; `0` when no bound applies).
    pub certified_bound: u64,
    /// What certified the bound.
    pub bound_kind: &'static str,
    /// Worst observed TTR over the swept shifts.
    pub witness_ttr: u64,
    /// The shift achieving `witness_ttr` (smallest such shift).
    pub witness_shift: u64,
    /// How many shifts were swept.
    pub shifts_swept: u64,
    /// Whether the sweep covered every shift in `[0, period_A)` — only
    /// then is `certified_bound ≤ witness_ttr` a certified invariant.
    pub exhaustive: bool,
    /// Shifts that missed the horizon (excluded from the witness).
    pub failures: usize,
    /// The horizon used.
    pub horizon: u64,
}

impl LowerBoundSweep {
    /// The cell as a JSON object — the `REPRO_lower` artifact row.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("algorithm", Value::from(self.algorithm.to_string())),
            ("n", Value::from(self.n)),
            ("k", Value::from(self.k)),
            ("ell", Value::from(self.ell)),
            ("lower", Value::from(self.certified_bound)),
            ("lower_kind", Value::from(self.bound_kind)),
            ("measured", Value::from(self.witness_ttr)),
            ("witness_shift", Value::from(self.witness_shift)),
            ("shifts_swept", Value::from(self.shifts_swept)),
            ("exhaustive", Value::from(self.exhaustive)),
            ("failures", Value::from(self.failures)),
            ("horizon", Value::from(self.horizon)),
        ])
    }

    /// Whether the lower slice of the sandwich invariant is *certified*
    /// to hold: either the sweep was not exhaustive (sampled witnesses
    /// may legitimately sit below the bound), some shift missed the
    /// horizon (the true worst case is even larger), or the bound is
    /// respected outright.
    pub fn lower_slice_ok(&self) -> bool {
        !self.exhaustive || self.failures > 0 || self.certified_bound <= self.witness_ttr
    }
}

/// One `(algorithm, scenario)` cell of a lower-bound grid — the
/// [`sweep_lower_grid`] counterpart of [`SweepCell`].
#[derive(Debug, Clone)]
pub struct LowerCell {
    /// The algorithm to measure.
    pub algorithm: Algorithm,
    /// Universe size.
    pub n: u64,
    /// The scenario to measure.
    pub scenario: PairScenario,
    /// Per-cell parameters. `cfg.threads` is ignored inside a grid — the
    /// grid's [`ParallelConfig`] governs both of its waves.
    pub cfg: LowerSweepConfig,
}

/// The validated state of one lower-bound cell: certified covering bound,
/// shift list, and hoisted schedules — computed by the grid's first wave,
/// shared read-only with the cell's shift-chunk tasks.
struct LowerSweepPlan {
    algorithm: Algorithm,
    n: u64,
    k: usize,
    ell: usize,
    horizon: u64,
    certified_bound: u64,
    bound_kind: &'static str,
    shifts: Vec<u64>,
    exhaustive: bool,
    scenario: PairScenario,
    prepared: Option<(PreparedSchedule<DynSchedule>, PreparedSchedule<DynSchedule>)>,
}

impl LowerSweepPlan {
    fn new(
        algorithm: Algorithm,
        n: u64,
        scenario: &PairScenario,
        cfg: &LowerSweepConfig,
    ) -> Result<Self, SweepError> {
        if !scenario.a.overlaps(&scenario.b) {
            return Err(SweepError::DisjointSets);
        }
        let k = scenario.a.len();
        let ell = scenario.b.len();
        let horizon = if cfg.horizon_override > 0 {
            cfg.horizon_override
        } else {
            algorithm.horizon(n, k, ell)
        };

        let (ctx_a, ctx_b) = seed_ctxs(0, 0);
        let (Some(sa), Some(sb)) = (
            algorithm.make(n, &scenario.a, &ctx_a),
            algorithm.make(n, &scenario.b, &ctx_b),
        ) else {
            return Err(SweepError::Unsupported { algorithm, n });
        };

        // The certified lower bound for this concrete pair of schedules.
        let (certified_bound, bound_kind) = if cfg.sync {
            (0, "trivial (single alignment)")
        } else if algorithm.wake_sensitive() {
            (0, "none (wake-sensitive schedule)")
        } else {
            let bound = rdv_lower::best_bound(&sa, &sb);
            if sa.period_hint().is_some() {
                (bound, "covering (Thm 7 density argument)")
            } else {
                (bound, "none (aperiodic schedule)")
            }
        };

        // The shift list: exhaustive over one period of σ_A when it fits,
        // sampled with a period-spread stride otherwise.
        let (shifts, exhaustive): (Vec<u64>, bool) = if cfg.sync {
            (vec![0], false)
        } else {
            match sa.period_hint() {
                Some(p) if p <= cfg.max_exhaustive_shifts => ((0..p).collect(), true),
                hint => {
                    let count = cfg.sampled_shifts.max(1);
                    let stride = hint.map(|p| (p / count).max(1) | 1).unwrap_or(13);
                    ((0..count).map(|i| i * stride).collect(), false)
                }
            }
        };

        let prepared = if algorithm.wake_sensitive() {
            None
        } else {
            Some((PreparedSchedule::new(sa), PreparedSchedule::new(sb)))
        };

        Ok(LowerSweepPlan {
            algorithm,
            n,
            k,
            ell,
            horizon,
            certified_bound,
            bound_kind,
            shifts,
            exhaustive,
            scenario: scenario.clone(),
            prepared,
        })
    }

    /// Evaluates one chunk of the shift list — a wave-2 task's work.
    /// Returns `(worst ttr with its smallest shift, failures)`.
    fn eval_chunk(&self, range: Range<usize>) -> (Option<(u64, u64)>, usize) {
        let mut worst: Option<(u64, u64)> = None;
        let mut failures = 0usize;
        for at in range {
            let shift = self.shifts[at];
            let outcome = match &self.prepared {
                Some((pa, pb)) => verify::async_ttr_prepared(pa, pb, shift, self.horizon),
                None => {
                    let (ctx_a, ctx_b) = seed_ctxs(0, shift);
                    match (
                        self.algorithm.make(self.n, &self.scenario.a, &ctx_a),
                        self.algorithm.make(self.n, &self.scenario.b, &ctx_b),
                    ) {
                        (Some(sa), Some(sb)) => verify::async_ttr(&sa, &sb, shift, self.horizon),
                        _ => None,
                    }
                }
            };
            match outcome {
                Some(ttr) if worst.is_none_or(|(w, _)| ttr > w) => worst = Some((ttr, shift)),
                Some(_) => {}
                None => failures += 1,
            }
        }
        (worst, failures)
    }

    /// Folds the chunk results (in chunk order — the strict `>` fold
    /// keeps the smallest witness shift independent of chunk boundaries)
    /// into the cell's lower-bound record.
    fn finish(
        &self,
        parts: Vec<(Option<(u64, u64)>, usize)>,
    ) -> Result<LowerBoundSweep, SweepError> {
        let mut worst: Option<(u64, u64)> = None;
        let mut failures = 0usize;
        for (local, f) in parts {
            failures += f;
            if let Some((ttr, shift)) = local {
                if worst.is_none_or(|(w, _)| ttr > w) {
                    worst = Some((ttr, shift));
                }
            }
        }
        let (witness_ttr, witness_shift) = worst.ok_or(SweepError::NoSamples { failures })?;
        Ok(LowerBoundSweep {
            algorithm: self.algorithm,
            n: self.n,
            k: self.k,
            ell: self.ell,
            certified_bound: self.certified_bound,
            bound_kind: self.bound_kind,
            witness_ttr,
            witness_shift,
            shifts_swept: self.shifts.len() as u64,
            exhaustive: self.exhaustive,
            failures,
            horizon: self.horizon,
        })
    }
}

/// Sweeps a whole lower-bound grid in two flat waves — the
/// [`sweep_pair_grid`] counterpart behind the `repro lower` pipeline's
/// measurement cells. Cells are planned first, then their shift chunks
/// work-steal across one pool, crossing cells.
pub fn sweep_lower_grid(
    cells: Vec<LowerCell>,
    parallel: &ParallelConfig,
) -> Vec<Result<LowerBoundSweep, SweepError>> {
    run_grid(
        cells,
        parallel,
        |cell: LowerCell| LowerSweepPlan::new(cell.algorithm, cell.n, &cell.scenario, &cell.cfg),
        |plan: &LowerSweepPlan| plan.shifts.len(),
        LowerSweepPlan::eval_chunk,
        LowerSweepPlan::finish,
    )
}

/// Measures one lower-bound cell: computes the certified covering bound
/// for the algorithm's concrete schedules on `scenario` and sweeps shifts
/// (exhaustively when the period fits the cap) for the worst measured
/// witness — the single-cell case of [`sweep_lower_grid`], and the unit
/// the `repro lower` pipeline's grid is built from.
///
/// Deterministic algorithms use their single seed-0 schedule; randomized
/// ones are measured on the seed-0 stream (the bound certifies that
/// concrete schedule, which is all a per-cell bound can mean for them).
/// Wake-sensitive algorithms (the beacons) rebuild schedules per shift
/// and carry no certified bound — their schedules change with the shift,
/// so no single covering argument applies.
///
/// # Errors
///
/// Same contract as [`sweep_pair_ttr`]: [`SweepError::DisjointSets`],
/// [`SweepError::Unsupported`], or [`SweepError::NoSamples`].
pub fn sweep_lower_bound(
    algorithm: Algorithm,
    n: u64,
    scenario: &PairScenario,
    cfg: &LowerSweepConfig,
) -> Result<LowerBoundSweep, SweepError> {
    let parallel = ParallelConfig {
        threads: cfg.threads,
    };
    sweep_lower_grid(
        vec![LowerCell {
            algorithm,
            n,
            scenario: scenario.clone(),
            cfg: *cfg,
        }],
        &parallel,
    )
    .pop()
    .expect("one cell submitted, one result returned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn ours_sweeps_clean_on_adversarial_pairs() {
        let scenario = workload::adversarial_overlap_one(16, 3, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 16,
            shift_stride: 11,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 0,
            threads: 0,
        };
        let sweep = sweep_pair_ttr(Algorithm::Ours, 16, &scenario, &cfg).unwrap();
        assert_eq!(sweep.failures, 0, "deterministic guarantee violated");
        assert!(sweep.summary.max <= sweep.horizon);
        assert_eq!(sweep.k, 3);
    }

    #[test]
    fn all_table1_algorithms_sweep_clean_small() {
        let n = 8u64;
        let scenario = workload::adversarial_overlap_one(n, 2, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 8,
            shift_stride: 13,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 0,
            threads: 0,
        };
        for algo in Algorithm::TABLE1 {
            let sweep = sweep_pair_ttr(algo, n, &scenario, &cfg)
                .unwrap_or_else(|e| panic!("{algo} failed: {e}"));
            assert_eq!(sweep.failures, 0, "{algo} missed its horizon");
        }
    }

    #[test]
    fn random_algorithm_uses_seeds() {
        let scenario = workload::adversarial_overlap_one(16, 3, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 4,
            shift_stride: 5,
            spread_over_period: false,
            seeds: 5,
            horizon_override: 0,
            threads: 0,
        };
        let sweep = sweep_pair_ttr(Algorithm::Random, 16, &scenario, &cfg).unwrap();
        assert_eq!(sweep.summary.count + sweep.failures, 4 * 5);
    }

    #[test]
    fn symmetric_wrapper_is_constant_time() {
        let scenario = workload::symmetric_pair(32, 5, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 24,
            shift_stride: 17,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 0,
            threads: 0,
        };
        let sweep = sweep_pair_ttr(Algorithm::OursSymmetric, 32, &scenario, &cfg).unwrap();
        assert_eq!(sweep.failures, 0);
        assert!(
            sweep.summary.max < 12,
            "symmetric TTR {} should be < 12",
            sweep.summary.max
        );
    }

    #[test]
    fn hoisted_sweep_matches_per_shift_construction() {
        // The hoisted/compiled parallel sweep must reproduce exactly the
        // samples a sequential per-(shift, seed) construction produces.
        let n = 16u64;
        let scenario = workload::adversarial_overlap_one(n, 3, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 12,
            shift_stride: 7,
            spread_over_period: false,
            seeds: 3,
            horizon_override: 0,
            threads: 0,
        };
        for algo in [
            Algorithm::Ours,
            Algorithm::OursSymmetric,
            Algorithm::Crseq,
            Algorithm::Drds,
            Algorithm::Random,
            Algorithm::BeaconA,
        ] {
            let sweep = sweep_pair_ttr(algo, n, &scenario, &cfg).unwrap();
            let horizon = algo.horizon(n, 3, 3);
            let seeds = if algo.is_deterministic() { 1 } else { 3 };
            let mut reference = Vec::new();
            let mut ref_failures = 0usize;
            for shift in (0..12u64).map(|i| i * 7) {
                for seed in 0..seeds {
                    let (ctx_a, ctx_b) = super::seed_ctxs(seed, shift);
                    let sa = algo.make(n, &scenario.a, &ctx_a).unwrap();
                    let sb = algo.make(n, &scenario.b, &ctx_b).unwrap();
                    match rdv_core::verify::naive::async_ttr(&sa, &sb, shift, horizon) {
                        Some(t) => reference.push(t),
                        None => ref_failures += 1,
                    }
                }
            }
            let ref_summary = crate::stats::Summary::of(&reference).unwrap();
            assert_eq!(sweep.failures, ref_failures, "{algo}");
            assert_eq!(sweep.summary.count, ref_summary.count, "{algo}");
            assert_eq!(sweep.summary.max, ref_summary.max, "{algo}");
            assert_eq!(sweep.summary.p50, ref_summary.p50, "{algo}");
            assert!(
                (sweep.summary.mean - ref_summary.mean).abs() < 1e-9,
                "{algo}"
            );
        }
    }

    #[test]
    fn horizon_override_respected() {
        let scenario = workload::adversarial_overlap_one(8, 2, 2).unwrap();
        let cfg = SweepConfig {
            shifts: 2,
            shift_stride: 1,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 5,
            threads: 0,
        };
        if let Ok(s) = sweep_pair_ttr(Algorithm::Ours, 8, &scenario, &cfg) {
            assert_eq!(s.horizon, 5);
            assert!(s.summary.max < 5);
        }
    }

    #[test]
    fn disjoint_sets_are_a_typed_error() {
        let scenario = PairScenario {
            a: rdv_core::channel::ChannelSet::new(vec![1, 2]).unwrap(),
            b: rdv_core::channel::ChannelSet::new(vec![3, 4]).unwrap(),
        };
        let err = sweep_pair_ttr(Algorithm::Ours, 8, &scenario, &SweepConfig::default())
            .expect_err("disjoint sets must not sweep");
        assert_eq!(err, SweepError::DisjointSets);
        assert!(err.to_string().contains("disjoint"));
    }

    #[test]
    fn oversized_set_is_a_typed_error() {
        // Channel 40 does not fit universe [8]: instantiation must fail
        // with a typed error instead of sweeping into silent failures.
        let scenario = PairScenario {
            a: rdv_core::channel::ChannelSet::new(vec![1, 40]).unwrap(),
            b: rdv_core::channel::ChannelSet::new(vec![1, 2]).unwrap(),
        };
        let err = sweep_pair_ttr(Algorithm::Ours, 8, &scenario, &SweepConfig::default())
            .expect_err("oversized set must not sweep");
        assert!(matches!(err, SweepError::Unsupported { n: 8, .. }), "{err}");
    }

    #[test]
    fn no_samples_is_a_typed_error() {
        // An overlapping pair with a horizon too short to ever meet: the
        // paper's parity trap ({1,2} cyclic vs itself at odd shift) is
        // overkill — a 1-slot horizon on a slow baseline suffices.
        let scenario = workload::adversarial_overlap_one(8, 4, 4).unwrap();
        let cfg = SweepConfig {
            shifts: 3,
            shift_stride: 1,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 1,
            threads: 0,
        };
        match sweep_pair_ttr(Algorithm::Crseq, 8, &scenario, &cfg) {
            Err(SweepError::NoSamples { failures }) => assert_eq!(failures, 3),
            other => {
                // A meeting at slot 0 for some shift is legitimate; then
                // the sweep must report the remaining misses as failures.
                let s = other.expect("either NoSamples or a partial sweep");
                assert!(s.failures > 0);
            }
        }
    }

    #[test]
    fn lower_bound_sweep_is_sandwiched_when_exhaustive() {
        let n = 12u64;
        let scenario = workload::adversarial_overlap_one(n, 3, 3).unwrap();
        let cfg = LowerSweepConfig {
            max_exhaustive_shifts: 1 << 14,
            ..LowerSweepConfig::default()
        };
        let cell = sweep_lower_bound(Algorithm::Ours, n, &scenario, &cfg).unwrap();
        assert!(cell.exhaustive, "period should fit the exhaustive cap");
        assert_eq!(cell.failures, 0);
        assert!(cell.lower_slice_ok());
        assert!(
            cell.certified_bound <= cell.witness_ttr,
            "covering bound {} exceeds exhaustive worst {}",
            cell.certified_bound,
            cell.witness_ttr
        );
        assert!(cell.witness_ttr <= cell.horizon);
    }

    #[test]
    fn lower_bound_sweep_sync_is_trivial() {
        let scenario = workload::adversarial_overlap_one(12, 3, 3).unwrap();
        let cfg = LowerSweepConfig {
            sync: true,
            ..LowerSweepConfig::default()
        };
        let cell = sweep_lower_bound(Algorithm::Ours, 12, &scenario, &cfg).unwrap();
        assert_eq!(cell.certified_bound, 0);
        assert_eq!(cell.shifts_swept, 1);
        assert!(!cell.exhaustive);
    }

    #[test]
    fn lower_bound_sweep_is_thread_count_invariant() {
        let scenario = workload::adversarial_overlap_one(16, 3, 4).unwrap();
        for algo in [Algorithm::Ours, Algorithm::Crseq, Algorithm::BeaconB] {
            let at = |threads| {
                let cfg = LowerSweepConfig {
                    max_exhaustive_shifts: 512,
                    sampled_shifts: 96,
                    threads,
                    ..LowerSweepConfig::default()
                };
                sweep_lower_bound(algo, 16, &scenario, &cfg)
                    .unwrap_or_else(|e| panic!("{algo}: {e}"))
            };
            let single = at(1);
            assert_eq!(single, at(2), "{algo} diverged at 2 threads");
            assert_eq!(single, at(8), "{algo} diverged at 8 threads");
        }
    }

    #[test]
    fn lower_bound_sweep_rejects_bad_scenarios() {
        let disjoint = PairScenario {
            a: rdv_core::channel::ChannelSet::new(vec![1, 2]).unwrap(),
            b: rdv_core::channel::ChannelSet::new(vec![3, 4]).unwrap(),
        };
        assert_eq!(
            sweep_lower_bound(Algorithm::Ours, 8, &disjoint, &LowerSweepConfig::default()),
            Err(SweepError::DisjointSets)
        );
        let oversized = PairScenario {
            a: rdv_core::channel::ChannelSet::new(vec![1, 40]).unwrap(),
            b: rdv_core::channel::ChannelSet::new(vec![1, 2]).unwrap(),
        };
        assert!(matches!(
            sweep_lower_bound(Algorithm::Ours, 8, &oversized, &LowerSweepConfig::default()),
            Err(SweepError::Unsupported { n: 8, .. })
        ));
    }

    #[test]
    fn sweep_json_is_stable_and_complete() {
        let scenario = workload::adversarial_overlap_one(16, 3, 3).unwrap();
        let cfg = SweepConfig {
            shifts: 8,
            shift_stride: 3,
            spread_over_period: false,
            seeds: 1,
            horizon_override: 0,
            threads: 0,
        };
        let sweep = sweep_pair_ttr(Algorithm::Ours, 16, &scenario, &cfg).unwrap();
        let json = serde_json::to_string(&sweep.to_json());
        for key in [
            "algorithm",
            "n",
            "k",
            "ell",
            "count",
            "max",
            "mean",
            "p50",
            "p95",
            "failures",
            "horizon",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
    }
}
