//! The engine workloads: one `Simulation::run_engine` call is the
//! end-to-end unit, and the traced run breaks the engine down by calling
//! each layer's public function from outside.

use crate::host::{cpu_seconds, THREADS};
use crate::trace::Tracer;
use crate::{guarded, Checks, Metric};
use rdv_core::bitplane;
use rdv_core::compiled::PreparedSchedule;
use rdv_core::fault::{FaultPlan, InPlayWindow};
use rdv_core::schedule::Schedule;
use rdv_sim::algo::DynSchedule;
use rdv_sim::engine::PLANE_BUCKET_CROSSOVER;
use rdv_sim::{
    workload, Algorithm, EngineConfig, FaultProfile, MeetingReport, ParallelConfig, PlanePolicy,
    ResolveMode, Simulation,
};
use std::collections::HashMap;
use std::hint::black_box;

/// Slots per arena block, as the engine documents it.
const BLOCK: usize = 512;
/// The engine's documented compiled-table budget across the population;
/// each agent's share is its `PreparedSchedule::new_capped` period cap.
const COMPILE_BUDGET_SLOTS: u64 = 1 << 23;

/// The oracle a workload's timed calls are checked against.
#[derive(Clone, Copy)]
pub enum Reference {
    /// `run_per_pair_reference_with`, one independent scan per pair.
    PerPair,
    /// A one-thread `PairMajor` + `Slotwise` engine run: the per-pair
    /// oracle would take minutes on millions of pairs.
    OneThreadSlotwise,
}

/// A clustered population and the horizon it runs to.
#[derive(Clone, Copy)]
pub struct EngineSpec {
    pub algo: Algorithm,
    pub n: u64,
    pub k: usize,
    pub agents: usize,
    pub max_wake: u64,
    pub horizon: u64,
    /// Runs under the `light` fault profile's plan, sensed by the
    /// population and applied by the engine.
    pub faulted: bool,
    pub reference: Reference,
}

/// A built population.
pub struct Population {
    pub sim: Simulation,
    pub plan: Option<FaultPlan>,
    pub horizon: u64,
}

impl Population {
    pub fn cfg(&self, threads: usize, mode: ResolveMode, plane: PlanePolicy) -> EngineConfig {
        EngineConfig {
            parallel: ParallelConfig::with_threads(threads),
            mode,
            plane,
            faults: self.plan,
        }
    }

    /// The configuration every end-to-end call uses: defaults at the
    /// benchmark's thread count.
    pub fn default_cfg(&self) -> EngineConfig {
        self.cfg(THREADS, ResolveMode::Auto, PlanePolicy::Auto)
    }

    pub fn wakes(&self) -> Vec<u64> {
        self.sim.agents().iter().map(|a| a.wake).collect()
    }

    pub fn reference(&self, kind: Reference) -> MeetingReport {
        match kind {
            Reference::PerPair => self
                .sim
                .run_per_pair_reference_with(self.horizon, &self.default_cfg()),
            Reference::OneThreadSlotwise => self.sim.run_engine(
                self.horizon,
                &self.cfg(1, ResolveMode::PairMajor, PlanePolicy::Slotwise),
            ),
        }
    }
}

/// Generates the population (`workload.gen`) and wraps it in a
/// simulation (`engine.new`).
pub fn build(spec: &EngineSpec, seed: u64, tr: &mut Tracer) -> Population {
    let plan = spec.faulted.then(|| {
        FaultProfile::named("light")
            .expect("the light profile is committed")
            .plan(seed, spec.horizon)
    });
    let agents = tr.span("workload.gen", |_| {
        workload::clustered_agents_with_faults(
            spec.algo,
            spec.n,
            spec.k,
            spec.agents,
            seed,
            spec.max_wake,
            plan,
        )
    });
    let sim = tr.span("engine.new", |_| Simulation::new(agents));
    Population {
        sim,
        plan,
        horizon: spec.horizon,
    }
}

/// What the layer replay found, beside its spans.
#[derive(Default)]
struct Replay {
    entries: Vec<((usize, usize), u64)>,
    missed: Vec<(usize, usize)>,
    tables: usize,
    fill_slots: u64,
    /// Blocks resolved by the pair-major bit-plane kernel and by the
    /// bucket scan.
    plane_blocks: u64,
    bucket_blocks: u64,
    /// Pairs scanned and matched by the bit-plane kernel.
    scanned: u64,
    matched: u64,
    bytes: u64,
    /// The first block's slotwise rows, for the unfaulted mask probe.
    first_rows: Vec<u64>,
}

/// Index of pair `(i, j)`, `i < j`, among the `n (n - 1) / 2` pairs.
fn pair_index(i: usize, j: usize, n: usize) -> usize {
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Replays one Auto run on one thread through the layers' public
/// functions, in the engine's order: pair discovery (`run_engine` at
/// horizon 0), compiling one prepared schedule per share group, then per
/// 512-slot block the fill of every agent that still has pending pairs
/// and the fault mask, and the resolve Auto picks for that block. A
/// pair-major block packs bit-planes (`pack_row`) and matches each
/// pending pair (`first_match`); a block with at least
/// `PLANE_BUCKET_CROSSOVER` pending pairs per in-play agent is resolved,
/// as the engine does, by grouping each slot's agents by channel — a
/// private engine step, so the replay restates it (`replay.bucket`)
/// rather than calling it. Its self times thus partition the run the
/// workload times into layers, and its meetings must equal the reference
/// report.
fn replay(pop: &Population, tr: &mut Tracer) -> Replay {
    let agents = pop.sim.agents();
    let n = agents.len();
    let horizon = pop.horizon;
    let plan = pop.plan.as_ref().filter(|p| !p.is_quiet());
    let discovered = tr.span("engine.discover", |_| {
        pop.sim.run_engine(0, &pop.default_cfg())
    });
    let mut pending: Vec<(usize, usize)> = discovered.missed_pairs().collect();

    // Share groups in first-appearance order, as the engine forms them.
    let mut by_key: HashMap<u64, usize> = HashMap::new();
    let mut next = 0usize;
    let group_of: Vec<usize> = agents
        .iter()
        .map(|a| {
            let g = match a.share_key {
                Some(key) => *by_key.entry(key).or_insert(next),
                None => next,
            };
            if g == next {
                next += 1;
            }
            g
        })
        .collect();
    let cap = COMPILE_BUDGET_SLOTS / n.max(1) as u64;
    let prepared: Vec<PreparedSchedule<&DynSchedule>> = tr.span("compiled.compile", |_| {
        let mut prepared = Vec::with_capacity(next);
        for (i, &g) in group_of.iter().enumerate() {
            if g == prepared.len() {
                prepared.push(PreparedSchedule::new_capped(&agents[i].schedule, cap));
            }
        }
        prepared
    });
    let tables = prepared.iter().filter(|p| p.table().is_some()).count();

    let windows: Vec<InPlayWindow> = (0..n)
        .map(|i| plan.map_or(InPlayWindow::ALWAYS, |p| p.agent_window(i)))
        .collect();
    let max_channel = agents
        .iter()
        .map(|a| a.set.max_channel().get())
        .max()
        .unwrap_or(0);
    let nbits = bitplane::plane_bits(max_channel);
    assert!(
        nbits <= bitplane::PLANE_BITS_BUDGET,
        "every benchmark universe fits the plane budget"
    );
    let mut load = vec![0u32; n];
    for &(i, j) in &pending {
        load[i] += 1;
        load[j] += 1;
    }
    let mut out = Replay {
        tables,
        ..Replay::default()
    };
    let mut locate = vec![0usize; n];
    // Pending-pair bitset of a bucket block, rebuilt on each.
    let mut pending_bits: Vec<u64> = Vec::new();
    let mut channel_bucket: Vec<Vec<usize>> = vec![Vec::new(); max_channel as usize + 1];
    let mut block_start = 0u64;
    while block_start < horizon && !pending.is_empty() {
        if plan.is_some() {
            pending.retain(|&(i, j)| {
                if windows[i].depart.min(windows[j].depart) <= block_start {
                    load[i] -= 1;
                    load[j] -= 1;
                    out.missed.push((i, j));
                    false
                } else {
                    true
                }
            });
            if pending.is_empty() {
                break;
            }
        }
        let len = (horizon - block_start).min(BLOCK as u64) as usize;
        let block_end = block_start + len as u64;
        let in_play: Vec<usize> = (0..n).filter(|&i| load[i] > 0).collect();
        for (k, &ai) in in_play.iter().enumerate() {
            locate[ai] = k;
        }
        let mut rows = vec![0u64; in_play.len() * len];
        tr.span("fill", |_| {
            for (&ai, row) in in_play.iter().zip(rows.chunks_exact_mut(len)) {
                let (a, w) = (&agents[ai], windows[ai]);
                if a.wake >= block_end || w.arrive >= block_end || w.depart <= block_start {
                    continue;
                }
                let from = a.wake.max(block_start).max(w.arrive);
                let lead = (from - block_start) as usize;
                prepared[group_of[ai]].fill_channels(from - a.wake, &mut row[lead..]);
            }
        });
        if let Some(p) = plan {
            tr.span("fault.mask", |_| {
                for (&ai, row) in in_play.iter().zip(rows.chunks_exact_mut(len)) {
                    let depart = windows[ai].depart;
                    for (x, c) in row.iter_mut().enumerate() {
                        let t = block_start + x as u64;
                        if *c != 0 && (t >= depart || !p.channel_available(*c, t)) {
                            *c = 0;
                        }
                    }
                }
            });
        }
        out.fill_slots += (in_play.len() * len) as u64;
        if pending.len() >= PLANE_BUCKET_CROSSOVER * in_play.len() {
            out.bucket_blocks += 1;
            tr.span("replay.bucket", |_| {
                pending_bits.clear();
                pending_bits.resize((n * (n - 1) / 2).div_ceil(64), 0);
                for &(i, j) in &pending {
                    let b = pair_index(i, j, n);
                    pending_bits[b / 64] |= 1 << (b % 64);
                }
                let mut touched = Vec::new();
                for x in 0..len {
                    for (k, &ai) in in_play.iter().enumerate() {
                        let c = rows[k * len + x] as usize;
                        if c != 0 {
                            if channel_bucket[c].is_empty() {
                                touched.push(c);
                            }
                            channel_bucket[c].push(ai);
                        }
                    }
                    for c in touched.drain(..) {
                        let group = std::mem::take(&mut channel_bucket[c]);
                        for (at, &i) in group.iter().enumerate() {
                            for &j in &group[at + 1..] {
                                let b = pair_index(i, j, n);
                                if pending_bits[b / 64] & (1 << (b % 64)) != 0 {
                                    pending_bits[b / 64] &= !(1 << (b % 64));
                                    out.entries.push(((i, j), block_start + x as u64));
                                    load[i] -= 1;
                                    load[j] -= 1;
                                }
                            }
                        }
                        channel_bucket[c] = group;
                        channel_bucket[c].clear();
                    }
                }
                pending.retain(|&(i, j)| {
                    let b = pair_index(i, j, n);
                    pending_bits[b / 64] & (1 << (b % 64)) != 0
                });
            });
        } else {
            out.plane_blocks += 1;
            let words = bitplane::plane_words(len);
            let row_words = (1 + nbits as usize) * words;
            let mut planes = vec![0u64; in_play.len() * row_words];
            tr.span("bitplane.pack", |_| {
                for (row, packed) in rows
                    .chunks_exact(len)
                    .zip(planes.chunks_exact_mut(row_words))
                {
                    bitplane::pack_row(row, nbits, words, packed);
                }
            });
            let scanned = pending.len() as u64;
            tr.span("bitplane.match", |_| {
                let plane =
                    |ai: usize| &planes[locate[ai] * row_words..(locate[ai] + 1) * row_words];
                pending.retain(|&(i, j)| {
                    match bitplane::first_match(plane(i), plane(j), nbits, words) {
                        Some(x) => {
                            out.entries.push(((i, j), block_start + x as u64));
                            load[i] -= 1;
                            load[j] -= 1;
                            false
                        }
                        None => true,
                    }
                });
            });
            let row_bytes = 8 * row_words as u64;
            out.scanned += scanned;
            out.matched += scanned - pending.len() as u64;
            out.bytes +=
                in_play.len() as u64 * (8 * len as u64 + row_bytes) + scanned * 2 * row_bytes;
        }
        if block_start == 0 {
            out.first_rows = rows;
        }
        block_start = block_end;
    }
    out.missed.extend(pending);
    out.missed.sort_unstable();
    out.entries.sort_unstable();
    out
}

/// Times `f` once inside a span of `name` and checks its report against
/// `reference`.
fn checked_mode(
    tr: &mut Tracer,
    checks: &mut Checks,
    name: &'static str,
    reference: &MeetingReport,
    f: impl FnOnce() -> MeetingReport,
) {
    let report = guarded(|| tr.span(name, |_| f()));
    checks.check(report.as_ref() == Some(reference), name);
}

/// The engine-layer probes of a traced run, on `pop`: every public
/// resolve mode, the layer replay with its discovery, compile, fill,
/// mask, pack, match and bucket spans, and the tracing overhead. Also
/// returns the replay's accounting lines.
pub fn layer_probes(
    pop: &Population,
    reference: &MeetingReport,
    seed: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Vec<Metric>, Vec<String>) {
    let h = pop.horizon;
    let t2 = pop.default_cfg();
    let t1 = pop.cfg(1, ResolveMode::Auto, PlanePolicy::Auto);
    let pair_major = pop.cfg(THREADS, ResolveMode::PairMajor, PlanePolicy::Auto);
    let slotwise = pop.cfg(THREADS, ResolveMode::PairMajor, PlanePolicy::Slotwise);
    let bucket = pop.cfg(THREADS, ResolveMode::BucketScan, PlanePolicy::Auto);
    let modes: [(&'static str, EngineConfig); 5] = [
        ("engine.mode_s.auto_t1", t1),
        ("engine.mode_s.auto_t2", t2),
        ("engine.mode_s.pair_major", pair_major),
        ("engine.mode_s.slotwise", slotwise),
        ("engine.mode_s.bucket", bucket),
    ];
    for (name, cfg) in modes {
        checked_mode(tr, checks, name, reference, || pop.sim.run_engine(h, &cfg));
    }

    let replayed = guarded(|| tr.span("engine.replay", |tr| replay(pop, tr)));
    checks.check(
        replayed.as_ref().is_some_and(|r| {
            r.entries.as_slice() == reference.first_meeting.as_slice()
                && r.missed.iter().copied().eq(reference.missed_pairs())
        }),
        "layer replay",
    );
    let r = replayed.unwrap_or_default();
    let (overhead, overhead_note) = trace_overhead(pop);
    if pop.plan.is_none() {
        // Unfaulted runs never mask; as a control, probe the availability
        // hash over the first block's rows under the light profile.
        let plan = FaultProfile::named("light")
            .expect("the light profile is committed")
            .plan(seed, h);
        let len = BLOCK.min(h as usize);
        tr.span("fault.mask_control", |_| {
            let mut available = 0u64;
            for row in r.first_rows.chunks_exact(len) {
                for (x, &c) in row.iter().enumerate() {
                    available += u64::from(c != 0 && plan.channel_available(c, x as u64));
                }
            }
            black_box(available)
        });
    }

    let st = crate::trace::self_times(tr.spans());
    let total = crate::trace::total_times(tr.spans());
    let s = |name: &str| st.get(name).copied().unwrap_or(0.0);
    let met = reference.first_meeting.len() as f64;
    let pairs = (reference.first_meeting.len() + reference.missed.len()) as f64;
    let replay_s = total.get("engine.replay").copied().unwrap_or(0.0);
    // Parallel scaling is a wall-clock property: in CPU time two threads
    // never beat one.
    let wall = |name: &str| {
        tr.spans()
            .iter()
            .find(|sp| sp.name == name)
            .map_or(f64::NAN, |sp| sp.end - sp.start)
    };
    let mut m = vec![
        Metric::new("engine.discover_s", s("engine.discover"), "s"),
        Metric::new("engine.pairs", pairs, "count"),
    ];
    for (name, _) in modes {
        m.push(Metric::new(name, s(name), "s"));
    }
    m.extend([
        Metric::new(
            "engine.scaling_eff",
            wall("engine.mode_s.auto_t1") / (THREADS as f64 * wall("engine.mode_s.auto_t2")),
            "ratio",
        ),
        Metric::new("engine.met_ratio", met / pairs, "ratio"),
        Metric::new("engine.replay_s", replay_s, "s"),
        Metric::new("engine.replay_other_s", s("engine.replay"), "s"),
        Metric::new("compiled.compile_s", s("compiled.compile"), "s"),
        Metric::new("compiled.tables", r.tables as f64, "count"),
        Metric::new("fill.slots_per_s", r.fill_slots as f64 / s("fill"), "1/s"),
        Metric::new("fill.slots", r.fill_slots as f64, "count"),
        Metric::new(
            "fault.mask_s",
            s("fault.mask") + s("fault.mask_control"),
            "s",
        ),
        Metric::new("bitplane.pack_s", s("bitplane.pack"), "s"),
        Metric::new("bitplane.match_s", s("bitplane.match"), "s"),
        Metric::new(
            "bitplane.hit_ratio",
            r.matched as f64 / r.scanned.max(1) as f64,
            "ratio",
        ),
        Metric::new("bitplane.bytes_computed", r.bytes as f64, "bytes"),
        Metric::new("engine.replay_bucket_s", s("replay.bucket"), "s"),
        Metric::new(
            "engine.replay_coverage",
            replay_s / s("engine.mode_s.auto_t1"),
            "ratio",
        ),
        Metric::new("trace.overhead_s", overhead, "s"),
    ]);
    let notes = vec![
        format!(
            "accounting: replay {replay_s:.4} s = discover {:.4} + compile {:.4} + fill {:.4} \
             + mask {:.4} + pack {:.4} + match {:.4} + bucket {:.4} + other {:.4} \
             ({} bit-plane blocks, {} bucket blocks)",
            s("engine.discover"),
            s("compiled.compile"),
            s("fill"),
            s("fault.mask"),
            s("bitplane.pack"),
            s("bitplane.match"),
            s("replay.bucket"),
            s("engine.replay"),
            r.plane_blocks,
            r.bucket_blocks,
        ),
        format!(
            "the replay is {:.3} of engine.mode_s.auto_t1 ({:.4} s), the same Auto run on \
             one thread; auto_t2 {:.4} s, pair_major {:.4} s, bucket {:.4} s",
            replay_s / s("engine.mode_s.auto_t1"),
            s("engine.mode_s.auto_t1"),
            s("engine.mode_s.auto_t2"),
            s("engine.mode_s.pair_major"),
            s("engine.mode_s.bucket"),
        ),
        overhead_note,
    ];
    (m, notes)
}

/// Alternating pairs of untraced and traced layer replays compared in
/// the overhead note.
const OVERHEAD_PAIRS: usize = 3;

/// The CPU cost of tracing one layer replay: the recorder's cost per
/// span, timed over many empty spans, times the spans a traced replay
/// records. Also returns a note comparing it with the direct measure,
/// a traced replay's CPU time minus an untraced one's over alternating
/// pairs, whose spread is the host's noise and usually far exceeds it.
fn trace_overhead(pop: &Population) -> (f64, String) {
    let timed = |enabled: bool| {
        let mut tr = Tracer::new(enabled);
        let start = cpu_seconds();
        black_box(replay(pop, &mut tr));
        (cpu_seconds() - start, tr.spans().len())
    };
    let mut spans = 0;
    let diffs: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|_| {
            let (plain, _) = timed(false);
            let (traced, n) = timed(true);
            spans = n;
            traced - plain
        })
        .collect();
    const EMPTY: usize = 100_000;
    let mut tr = Tracer::new(true);
    let start = cpu_seconds();
    for _ in 0..EMPTY {
        tr.span("empty", |_| ());
    }
    let per_span = (cpu_seconds() - start) / EMPTY as f64;
    let overhead = per_span * spans as f64;
    let q = crate::stats::quartiles(&diffs);
    let note = format!(
        "trace.overhead_s: {spans} spans per replay at {:.3} us each = {overhead:.6} s; \
         traced minus untraced replay over {OVERHEAD_PAIRS} pairs: quartiles {:.6} {:.6} {:.6} s",
        per_span * 1e6,
        q[0],
        q[1],
        q[2],
    );
    (overhead, note)
}

/// The population-description metrics of a traced run.
pub fn population_metrics(pop: &Population, gen_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("workload.gen_s", gen_s, "s"),
        Metric::new("workload.agents", pop.sim.agents().len() as f64, "count"),
        Metric::new(
            "workload.schedule_groups",
            pop.sim.schedule_groups() as f64,
            "count",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::pair_index;

    #[test]
    fn pair_index_enumerates_every_pair_once() {
        let n = 7;
        let mut seen = vec![false; n * (n - 1) / 2];
        for i in 0..n {
            for j in i + 1..n {
                let b = pair_index(i, j, n);
                assert!(!seen[b], "pair ({i}, {j}) collides");
                seen[b] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
