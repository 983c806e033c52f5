//! The multi-agent discrete-time simulator: a shared-arena engine that
//! fills every agent's schedule **once** per block and resolves all
//! pending pairs over the shared read-only block rows.
//!
//! # Pair discovery
//!
//! A run first lists its work: every pair whose channel sets overlap, as
//! `(u32, u32)` pairs in lexicographic order. Agents with identical sets
//! form one class; only a class's first member scans the flat
//! channel→agents index, marking its later co-channel agents into one
//! scratch row read back a word at a time, and every later member copies
//! the part of that list past its own index. The cost follows the output
//! and the number of distinct sets, not `n²`, and the list is allocated
//! once at its exact size.
//!
//! # The shared block arena
//!
//! The engine advances time in blocks of `BLOCK` (512) slots. Each block
//! runs as two flat waves on the work-stealing orchestrator
//! ([`pool::run_indexed`]):
//!
//! 1. **Fill** — every in-play agent's channels for the block are
//!    computed once, sharded into agent chunks; each fill task *returns*
//!    its chunk's rows as an owned buffer, and the resolve wave borrows
//!    the buffers read-only once the fill wave has joined — no atomics,
//!    so the fill loops autovectorize. At one thread both waves run
//!    inline on the caller's thread.
//!    Schedules are prepared once per run
//!    ([`PreparedSchedule::new_capped`], budgeted across the population)
//!    and reused across every block. `0` marks not-yet-awake slots
//!    (channels are 1-indexed, so the sentinel is unambiguous).
//! 2. **Resolve** — pending pairs are resolved in parallel over the
//!    published rows, in one of two modes (see [`ResolveMode`]).
//!
//! The per-pair engine this replaces re-filled each agent's schedule once
//! per *pair* it participated in — `O(pairs)` fills per block, ~500k
//! redundant fills per block on a dense 1k-agent population. The arena
//! pays `O(agents)` fills per block regardless of density.
//!
//! # Pair-major vs bucket resolution
//!
//! *Pair-major* scans each pending pair's two rows — `O(pairs · BLOCK)`
//! per block, unbeatable when pairs are scarce. When the universe fits
//! the plane budget, pair-major blocks pack each row into **bit-planes**
//! ([`rdv_core::bitplane`]): one presence plane plus one plane per
//! channel-id bit, so a single word-wide AND/XNOR chain resolves 64
//! slots of a pair comparison and `trailing_zeros` extracts the meeting
//! slot branch-free. Universes past the budget (e.g. 2⁴⁰ coalition
//! channels) keep the `u64`-per-slot rows. When pending pairs vastly
//! outnumber agents, the engine instead builds a per-slot channel→agents
//! bucket index from the rows and reads meetings straight out of the
//! buckets (two agents in one bucket *are* a meeting), which costs
//! `O(agents · BLOCK + meetings)` — see [`ResolveMode`] for the
//! crossover heuristic. Every mode and layout computes the exact
//! per-pair first meeting slot, so the report is bit-identical across
//! modes, layouts, and thread counts (`tests/multiuser_arena.rs`
//! property-tests this against a slot-by-slot reference).

use crate::algo::DynSchedule;
use crate::pool::{self, ParallelConfig};
use rdv_core::bitplane;
use rdv_core::channel::ChannelSet;
use rdv_core::compiled::PreparedSchedule;
use rdv_core::fault::{FaultPlan, InPlayWindow};
use rdv_core::schedule::Schedule;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::Range;

/// Slots per arena block: large enough to amortize fills and task
/// scheduling, small enough that the `n × BLOCK` arena of a 10k-agent
/// population stays cache- and memory-friendly (40 MiB).
const BLOCK: usize = 512;

/// Total compiled-schedule table budget across the population, in slots
/// (64 MiB of `u64` tables). Each agent gets an equal share as its
/// [`PreparedSchedule::new_capped`] period cap; agents whose period does
/// not fit fall back to their raw block-fill kernel.
const COMPILE_BUDGET_SLOTS: u64 = 1 << 23;

/// [`ResolveMode::Auto`] switches from pair-major to the bucket scan when
/// pending pairs exceed this multiple of in-play agents. The model:
/// pair-major costs ~`pending · BLOCK` row-scan steps per block, the
/// bucket scan ~`agents · BLOCK` gather steps plus the regrouping and
/// bucket-pair emissions — so the scan wins once each agent carries a
/// few dozen pending pairs. 16 is the measured crossover on clustered
/// populations (see `bench_report --suite multiuser`); the exact value only
/// matters near the boundary, where the two modes cost the same.
///
/// Public so density-aware consumers (the `bench_report` speedup gate)
/// classify cells by the same threshold the engine uses.
pub const BUCKET_CROSSOVER: usize = 16;

/// [`ResolveMode::Auto`]'s crossover when the pair-major kernel runs on
/// **bit-planes**: the packed kernel compares 64 slots per word op, so it
/// stays ahead of the bucket scan to much denser workloads than the
/// slotwise kernel's [`BUCKET_CROSSOVER`]. Measured on the clustered
/// 512-agent bench the packed row scan and the bucket scan cost about the
/// same near ~128 pending pairs per in-play agent.
pub const PLANE_BUCKET_CROSSOVER: usize = 128;

/// The bucket scan filters emissions through an `n(n−1)/2`-bit met-pair
/// bitset; cap the population it is allocated for (64 MiB at the cap).
/// Beyond it the engine stays pair-major.
const MAX_BUCKET_AGENTS: usize = 1 << 15;

/// One simulated agent.
pub struct Agent {
    /// The agent's channel set.
    pub set: ChannelSet,
    /// Absolute wake slot.
    pub wake: u64,
    /// The agent's schedule (local time).
    pub schedule: DynSchedule,
    /// Schedule-sharing key: agents carrying the **same** `Some` key
    /// promise their `schedule`s are interchangeable (identical
    /// `channel_at` for every slot — e.g. the same deterministic
    /// algorithm on the same channel set), letting the engine compile
    /// one period table per key instead of one per agent. Clustered
    /// populations repeat channel sets heavily, so this collapses the
    /// compile path from `O(agents)` to `O(distinct sets)`. `None` (the
    /// safe default) never shares.
    pub share_key: Option<u64>,
}

/// How the engine resolves pending pairs against the filled arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolveMode {
    /// Choose per block: pair-major until pending pairs reach a multiple
    /// of the in-play agents, bucket scan beyond. The multiple is
    /// [`PLANE_BUCKET_CROSSOVER`] (128) when the block's rows pack into
    /// bit-planes and [`BUCKET_CROSSOVER`] (16) when they stay slotwise.
    /// The choice is re-evaluated every block — dense populations start
    /// in bucket mode and drop back to pair-major as pairs meet and leave.
    #[default]
    Auto,
    /// Always scan each pending pair's two arena rows
    /// (`O(pairs · BLOCK)` per block).
    PairMajor,
    /// Always build the per-slot channel→agents bucket index
    /// (`O(agents · BLOCK + meetings)` per block). Falls back to
    /// pair-major above `MAX_BUCKET_AGENTS` (32 768) agents.
    BucketScan,
}

/// Row layout of pair-major blocks: whether the fill packs each agent's
/// row into bit-planes ([`rdv_core::bitplane`]) for the word-parallel
/// pair kernel.
///
/// Layout, like [`ResolveMode`], never changes the report — only how
/// fast it is computed. `Slotwise` is kept overridable so the
/// differential tests and the bench's bitplane-speedup baseline can pin
/// the reference layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanePolicy {
    /// Pack bit-planes whenever the block resolves pair-major and the
    /// universe's channel-id width fits
    /// [`bitplane::PLANE_BITS_BUDGET`]; wider universes keep the
    /// slotwise rows automatically.
    #[default]
    Auto,
    /// Always use the `u64`-per-slot rows (the reference layout).
    Slotwise,
}

/// Full engine configuration: thread policy plus resolution mode.
///
/// The default (auto threads, auto mode) is what [`Simulation::run`]
/// uses. Every combination produces a bit-identical [`MeetingReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Worker-thread policy for both arena phases.
    pub parallel: ParallelConfig,
    /// Pair-resolution mode (kept overridable for tests and benches; the
    /// default adapts per block).
    pub mode: ResolveMode,
    /// Row layout of pair-major blocks (kept overridable for the
    /// differential tests and the bitplane-speedup baseline; the default
    /// packs bit-planes whenever the universe fits the plane budget).
    pub plane: PlanePolicy,
    /// Optional deterministic fault plan — per-epoch channel outage masks
    /// and per-agent arrival/departure windows. `None` (the default) runs
    /// the fault-free paper model; a quiet plan (both rates zero) is
    /// observationally identical to `None`. Faults mask *presence*, not
    /// the schedule clock: an agent's schedule still runs on local time
    /// since its `wake`, but slots outside its in-play window, and slots
    /// whose channel is blacked out, become the no-meet sentinel.
    pub faults: Option<FaultPlan>,
}

/// A map from agent pairs `(i, j)`, `i < j`, to first-meeting slots,
/// backed by a pair-sorted vector — iteration order, `Debug`, and any
/// serialization derived from it are deterministic, unlike the
/// `HashMap` this replaces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeetingMap {
    /// Sorted by pair, each pair present at most once.
    entries: Vec<((usize, usize), u64)>,
}

impl MeetingMap {
    /// Sorts raw `(pair, slot)` entries into a map. Callers guarantee
    /// pair uniqueness (each engine records a pair's first meeting once).
    fn from_entries(mut entries: Vec<((usize, usize), u64)>) -> Self {
        entries.sort_unstable();
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate pair in meeting map"
        );
        MeetingMap { entries }
    }

    /// The first-meeting slot of pair `(i, j)`, in either order.
    pub fn get(&self, i: usize, j: usize) -> Option<u64> {
        let key = if i < j { (i, j) } else { (j, i) };
        self.entries
            .binary_search_by_key(&key, |&(pair, _)| pair)
            .ok()
            .map(|at| self.entries[at].1)
    }

    /// Whether pair `(i, j)` met.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.get(i, j).is_some()
    }

    /// Number of pairs that met.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair met.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `((i, j), slot)` in increasing pair order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), u64)> + '_ {
        self.entries.iter().copied()
    }

    /// The sorted `(pair, slot)` entries.
    pub fn as_slice(&self) -> &[((usize, usize), u64)] {
        &self.entries
    }
}

/// Why a pair with overlapping channel sets failed to meet — the
/// deterministic cause tag on every missed-pair record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissCause {
    /// Both agents were still in play when the horizon ran out: a longer
    /// run could have met them.
    HorizonExhausted,
    /// The pair's joint in-play window closed before the horizon — at
    /// least one agent departed (fault-plan churn) without meeting, so no
    /// horizon extension would help.
    Departed,
}

/// A pair that failed to meet, tagged with why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MissedPair {
    /// The pair `(i, j)`, `i < j`.
    pub pair: (usize, usize),
    /// Why they never met. Fault-free runs always report
    /// [`MissCause::HorizonExhausted`].
    pub cause: MissCause,
}

/// First-meeting results of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeetingReport {
    /// For each overlapping pair `(i, j)` (`i < j`) that met within the
    /// horizon: the absolute slot of the first meeting.
    pub first_meeting: MeetingMap,
    /// Pairs with overlapping sets that failed to meet within the
    /// horizon, sorted by pair, each tagged with its cause.
    pub missed: Vec<MissedPair>,
    /// The horizon used.
    pub horizon: u64,
}

impl MeetingReport {
    /// Time-to-rendezvous for a pair, measured from the later wake slot.
    pub fn ttr(&self, i: usize, j: usize, agents: &[Agent]) -> Option<u64> {
        let t = self.first_meeting.get(i, j)?;
        let both_awake = agents[i].wake.max(agents[j].wake);
        Some(t - both_awake)
    }

    /// Whether every overlapping pair met.
    pub fn all_met(&self) -> bool {
        self.missed.is_empty()
    }

    /// The missed pairs themselves, cause-agnostic, in sorted order.
    pub fn missed_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.missed.iter().map(|m| m.pair)
    }

    /// How many missed pairs carry `cause`.
    pub fn missed_with_cause(&self, cause: MissCause) -> usize {
        self.missed.iter().filter(|m| m.cause == cause).count()
    }
}

/// Index of pair `(i, j)`, `i < j`, in the flattened upper triangle of an
/// `n × n` matrix — the bit layout of the met-pair and overlap bitsets.
fn pair_bit(i: usize, j: usize, n: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

fn test_bit(bits: &[u64], at: usize) -> bool {
    bits[at / 64] & (1 << (at % 64)) != 0
}

fn set_bit(bits: &mut [u64], at: usize) {
    bits[at / 64] |= 1 << (at % 64);
}

/// Numbers `keys` in first-appearance order: equal `Some` keys share an
/// id, and every `None` gets a fresh one. Ids therefore appear in
/// ascending order of their first use — `ids[i]` equals the count of ids
/// before it exactly when index `i` opens a new one.
fn first_appearance_ids<K: Hash + Eq>(keys: impl Iterator<Item = Option<K>>) -> Vec<usize> {
    let mut by_key: HashMap<K, usize> = HashMap::new();
    let mut next = 0usize;
    keys.map(|key| {
        let id = match key {
            Some(key) => *by_key.entry(key).or_insert(next),
            None => next,
        };
        if id == next {
            next += 1;
        }
        id
    })
    .collect()
}

/// How one block's filled rows are laid out inside their chunk buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowLayout {
    /// One `u64` channel per slot — `len` words per agent row. The
    /// layout the bucket scan gathers from (it needs channel *values*)
    /// and the fallback for universes past the plane budget.
    Slotwise,
    /// Bit-planes: a presence plane plus `nbits` channel-bit planes of
    /// `words` words each per agent row (see [`bitplane::pack_row`]).
    Planes {
        /// Channel-id bit width of the universe.
        nbits: u32,
        /// Words per plane (`len.div_ceil(64)`).
        words: usize,
    },
}

impl RowLayout {
    /// Words each agent row occupies in its fill chunk for a `len`-slot
    /// block.
    fn row_words(self, len: usize) -> usize {
        match self {
            RowLayout::Slotwise => len,
            RowLayout::Planes { nbits, words } => (1 + nbits as usize) * words,
        }
    }
}

/// Read-only access to every filled row of one block: the owned chunk
/// buffers the fill wave returned, as plain `&[u64]` — the resolve
/// kernels never touch an atomic.
struct BlockRows<'a> {
    chunks: &'a [Vec<u64>],
    /// Agent index → (fill chunk, row index within the chunk). Entries
    /// of agents outside the block's in-play set are stale and never
    /// read (pending pairs only reference loaded agents).
    locate: &'a [(u32, u32)],
    row_words: usize,
}

impl<'a> BlockRows<'a> {
    fn row(&self, ai: usize) -> &'a [u64] {
        let (ci, k) = self.locate[ai];
        let chunk = &self.chunks[ci as usize];
        &chunk[k as usize * self.row_words..(k as usize + 1) * self.row_words]
    }
}

/// One block step of the arena engine as two [`pool::run_indexed`]
/// waves: every fill task returns its agents' rows as an owned buffer,
/// then every resolve task reads them through [`BlockRows`]. Returns the
/// resolve results in task order. With one thread both waves run inline
/// on the caller's thread.
fn fill_then_resolve<T, R>(
    fill_tasks: Vec<&[u32]>,
    tasks: Vec<T>,
    threads: usize,
    locate: &[(u32, u32)],
    row_words: usize,
    fill: impl Fn(&[u32]) -> Vec<u64> + Sync,
    resolve: impl Fn(&BlockRows<'_>, T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let cfg = ParallelConfig::with_threads(threads);
    let chunks = pool::run_indexed(fill_tasks, &cfg, |_, chunk| fill(chunk));
    let rows = BlockRows {
        chunks: &chunks,
        locate,
        row_words,
    };
    pool::run_indexed(tasks, &cfg, |_, task| resolve(&rows, task))
}

/// Fills `row` (one slot per entry) with the channels an agent hops for
/// the block starting at `block_start`, masked for presence: slots
/// before the agent wakes or arrives, at or after it departs, and slots
/// whose channel `plan` blacks out all become the no-meet sentinel `0`.
///
/// This is the one masking routine of the workspace: the arena fill
/// (whose slotwise *and* bit-plane blocks pack exactly this row) and the
/// per-pair reference both go through it, so the layouts cannot drift on
/// fault semantics (`tests/fault_injection.rs` pins them against each
/// other and a naive oracle).
fn fill_masked_row<S: Schedule>(
    schedule: &S,
    wake: u64,
    window: InPlayWindow,
    plan: Option<&FaultPlan>,
    block_start: u64,
    row: &mut [u64],
) {
    let len = row.len();
    let block_end = block_start + len as u64;
    if wake >= block_end || window.arrive >= block_end || window.depart <= block_start {
        row.fill(0);
        return;
    }
    let awake_from = wake.max(block_start).max(window.arrive);
    let lead = (awake_from - block_start) as usize;
    row[..lead].fill(0);
    schedule.fill_channels(awake_from - wake, &mut row[lead..]);
    if let Some(p) = plan {
        for (x, c) in row[lead..].iter_mut().enumerate() {
            let t = awake_from + x as u64;
            if t >= window.depart || !p.channel_available(*c, t) {
                *c = 0;
            }
        }
    }
}

/// A configured multi-agent simulation.
pub struct Simulation {
    agents: Vec<Agent>,
}

impl Simulation {
    /// Creates a simulation over the given agents.
    pub fn new(agents: Vec<Agent>) -> Self {
        Simulation { agents }
    }

    /// The agents.
    pub fn agents(&self) -> &[Agent] {
        &self.agents
    }

    /// The overlapping `(i, j)` pairs, `i < j`, in lexicographic order —
    /// the work list of a run.
    ///
    /// One output-sensitive path for every population. Agents are grouped
    /// into classes of identical channel sets, and only a class's first
    /// member `f` (in agent order) reads the channel→agents index: it
    /// marks the agents `j > f` of its channels' buckets into one scratch
    /// row and reads the row back a word at a time, giving the class's
    /// sorted neighbour list. Every later member `i` of the class overlaps
    /// exactly the listed agents past `i`, so it copies that suffix
    /// instead of marking again. The lists size the output exactly before
    /// it is filled, and each is dropped after its class's last member.
    fn overlapping_pairs(&self) -> Vec<(u32, u32)> {
        let n = self.agents.len();
        assert!(u32::try_from(n).is_ok(), "agent ids must fit in u32");
        let class_of = first_appearance_ids(self.agents.iter().map(|a| Some(a.set.as_slice())));
        // Each class's first and last member.
        let (mut firsts, mut lasts) = (Vec::new(), Vec::new());
        for (i, &class) in class_of.iter().enumerate() {
            if class == firsts.len() {
                firsts.push(i);
                lasts.push(i);
            }
            lasts[class] = i;
        }
        // Channel → agents index as flat arrays. Channel ids of any width
        // are ranked by sorting the distinct ones, each class's channels
        // become ranks, and a counting sort places every agent into its
        // channels' buckets — in ascending agent order.
        let set_of = |class: usize| self.agents[firsts[class]].set.as_slice();
        let mut channels: Vec<u64> = (0..firsts.len()).flat_map(set_of).copied().collect();
        channels.sort_unstable();
        channels.dedup();
        let ranks: Vec<Vec<usize>> = (0..firsts.len())
            .map(|class| {
                set_of(class)
                    .iter()
                    .map(|c| channels.binary_search(c).expect("every channel is ranked"))
                    .collect()
            })
            .collect();
        let mut starts = vec![0usize; channels.len() + 1];
        for &class in &class_of {
            for &r in &ranks[class] {
                starts[r + 1] += 1;
            }
        }
        for r in 0..channels.len() {
            starts[r + 1] += starts[r];
        }
        let mut next = starts.clone();
        let mut holders = vec![0u32; starts[channels.len()]];
        for (i, &class) in class_of.iter().enumerate() {
            for &r in &ranks[class] {
                holders[next[r]] = i as u32;
                next[r] += 1;
            }
        }

        // One byte per agent rather than one bit: marks are then plain
        // independent stores, not read-modify-write chains on a shared
        // word. Padded to whole 8-byte words for the read-back.
        let mut row = vec![0u8; n.div_ceil(8) * 8];
        let mut lists: Vec<Vec<u32>> = Vec::with_capacity(firsts.len());
        let mut total = 0usize;
        for (i, &class) in class_of.iter().enumerate() {
            if firsts[class] == i {
                for &r in &ranks[class] {
                    let bucket = &holders[starts[r]..starts[r + 1]];
                    for &j in &bucket[bucket.partition_point(|&j| j as usize <= i)..] {
                        row[j as usize] = 1;
                    }
                }
                let from = (i + 1) / 8;
                let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
                let tail = &mut row[from * 8..];
                let marked = tail
                    .chunks_exact(8)
                    .map(|w| word(w).count_ones())
                    .sum::<u32>();
                let mut list = Vec::with_capacity(marked as usize);
                for (w, bytes) in (from as u32..).zip(tail.chunks_exact_mut(8)) {
                    let mut bits = word(bytes);
                    if bits != 0 {
                        bytes.fill(0);
                        while bits != 0 {
                            list.push(w * 8 + bits.trailing_zeros() / 8);
                            bits &= bits - 1;
                        }
                    }
                }
                lists.push(list);
            }
            let list = &lists[class];
            total += list.len() - list.partition_point(|&j| j as usize <= i);
        }

        let mut pairs = Vec::with_capacity(total);
        for (i, &class) in class_of.iter().enumerate() {
            let list = &lists[class];
            let from = list.partition_point(|&j| j as usize <= i);
            pairs.extend(list[from..].iter().map(|&j| (i as u32, j)));
            if lasts[class] == i {
                lists[class] = Vec::new();
            }
        }
        pairs
    }

    /// Maps each agent to its schedule-sharing group: agents with equal
    /// `Some` [`Agent::share_key`]s share a group, keyless agents get
    /// their own. Group ids are assigned in first-appearance order, so
    /// `group_of[i] == prepared.len()` exactly when agent `i` opens a
    /// new group — the invariant the prepare loop in
    /// [`Self::run_engine`] relies on.
    fn schedule_group_indices(&self) -> Vec<usize> {
        first_appearance_ids(self.agents.iter().map(|a| a.share_key))
    }

    /// How many distinct schedules the arena engine prepares (and, when
    /// their periods fit the budget, compiles) for this population — the
    /// observable the share-key dedup regression tests pin.
    pub fn schedule_groups(&self) -> usize {
        self.schedule_group_indices()
            .into_iter()
            .max()
            .map_or(0, |g| g + 1)
    }

    /// Runs the simulation for `horizon` absolute slots, recording the
    /// first meeting slot of every overlapping pair.
    ///
    /// Equivalent to [`Self::run_engine`] under the default
    /// (auto-detected) configuration; the report is bit-identical for
    /// every thread count and resolution mode.
    pub fn run(&self, horizon: u64) -> MeetingReport {
        self.run_engine(horizon, &EngineConfig::default())
    }

    /// [`Self::run`] with an explicit thread-count policy.
    pub fn run_with(&self, horizon: u64, cfg: &ParallelConfig) -> MeetingReport {
        self.run_engine(
            horizon,
            &EngineConfig {
                parallel: *cfg,
                ..EngineConfig::default()
            },
        )
    }

    /// Tags a missed pair with its deterministic cause: `Departed` when
    /// the pair's joint in-play window under `plan` closed before the
    /// horizon (no extension would meet them), `HorizonExhausted`
    /// otherwise. A pure function of `(plan, pair, horizon)`, shared by
    /// the arena engine and the per-pair reference so their reports stay
    /// bit-identical. The work list's `u32` pair widens to the report's
    /// `usize` here.
    fn missed_pair((i, j): (u32, u32), horizon: u64, plan: Option<&FaultPlan>) -> MissedPair {
        let (i, j) = (i as usize, j as usize);
        let cause = match plan {
            None => MissCause::HorizonExhausted,
            Some(p) => {
                let close = p.agent_window(i).depart.min(p.agent_window(j).depart);
                if close < horizon {
                    MissCause::Departed
                } else {
                    MissCause::HorizonExhausted
                }
            }
        };
        MissedPair {
            pair: (i, j),
            cause,
        }
    }

    /// The shared-arena engine (see the module docs for the design).
    ///
    /// A meeting is two *awake* agents hopping on the same channel in the
    /// same slot. Agents whose sets do not overlap are ignored (they can
    /// never meet). Every configuration — any thread count, any
    /// [`ResolveMode`] — computes the exact per-pair first-meeting slot,
    /// so the report is identical regardless of `cfg`.
    pub fn run_engine(&self, horizon: u64, cfg: &EngineConfig) -> MeetingReport {
        let n = self.agents.len();
        // Quiet plans (both rates zero) take the unfaulted fast path so a
        // no-op plan is observationally identical to no plan.
        let plan = cfg.faults.filter(|p| !p.is_quiet());
        let mut pending = self.overlapping_pairs();
        if pending.is_empty() || horizon == 0 {
            return MeetingReport {
                first_meeting: MeetingMap::default(),
                missed: pending
                    .into_iter()
                    .map(|pair| Self::missed_pair(pair, horizon, plan.as_ref()))
                    .collect(),
                horizon,
            };
        }
        // Per-agent in-play windows of the fault plan, resolved once: the
        // fill phase masks outside-window slots to the no-meet sentinel
        // and the resolve phase retires pairs whose joint window closed.
        let windows: Option<Vec<InPlayWindow>> =
            plan.map(|p| (0..n).map(|i| p.agent_window(i)).collect());
        let mut departed: Vec<(u32, u32)> = Vec::new();
        let mut entries: Vec<((usize, usize), u64)> = Vec::new();
        // Pending-pair count per agent: agents at zero (disjoint sets, or
        // all their pairs already met) drop out of the block fill.
        let mut load = vec![0u32; n];
        for &(i, j) in &pending {
            load[i as usize] += 1;
            load[j as usize] += 1;
        }
        // Compiled-schedule reuse across blocks *and* across agents:
        // agents sharing a `share_key` share one prepared schedule. The
        // period cap stays the per-*agent* budget share — measured on the
        // clustered 512-agent bench, raising it to a per-group share
        // compiles tables too large for cache and costs the fill phase
        // ~2× — so sharing strictly reduces compile time and table
        // memory (groups ≤ agents) without changing which schedules
        // compile or how fills behave.
        let group_of = self.schedule_group_indices();
        let groups = group_of.iter().copied().max().map_or(0, |g| g + 1);
        let cap = COMPILE_BUDGET_SLOTS / n.max(1) as u64;
        let mut prepared: Vec<PreparedSchedule<&DynSchedule>> = Vec::with_capacity(groups);
        for (i, &g) in group_of.iter().enumerate() {
            if g == prepared.len() {
                prepared.push(PreparedSchedule::new_capped(&self.agents[i].schedule, cap));
            }
        }
        let max_channel = self
            .agents
            .iter()
            .map(|a| a.set.max_channel().get())
            .max()
            .unwrap_or(0);
        // Bit-plane eligibility is a run-level fact: the universe's
        // channel-id width either fits the plane budget or it does not
        // (the 2⁴⁰-channel coalition universe stays slotwise). Which
        // blocks actually pack planes is decided per block — the bucket
        // scan gathers channel values, so only pair-major blocks do.
        let nbits = bitplane::plane_bits(max_channel);
        let planes_ok = cfg.plane == PlanePolicy::Auto && nbits <= bitplane::PLANE_BITS_BUDGET;
        let bucket_usable = n <= MAX_BUCKET_AGENTS && cfg.mode != ResolveMode::PairMajor;
        // Met-pair bitset, the bucket scan's emission filter; allocated
        // lazily on the first bucket block (backfilled from `entries` so
        // earlier pair-major meetings are not re-emitted).
        let mut met: Vec<u64> = Vec::new();
        // Agent → (fill chunk, row offset) map, rebuilt per block from
        // the block's fill chunks; hoisted so the allocation is paid
        // once per run.
        let mut locate: Vec<(u32, u32)> = vec![(0, 0); n];

        let mut block_start = 0u64;
        while block_start < horizon && !pending.is_empty() {
            // Retire pairs whose joint in-play window has already closed:
            // no current or later block can meet them, so they leave the
            // work list (and their agents' load counts) now and are
            // tagged `Departed` in the final report.
            if let Some(w) = &windows {
                pending.retain(|&(i, j)| {
                    if w[i as usize].depart.min(w[j as usize].depart) <= block_start {
                        load[i as usize] -= 1;
                        load[j as usize] -= 1;
                        departed.push((i, j));
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
            let in_play: Vec<u32> = (0..n as u32).filter(|&i| load[i as usize] > 0).collect();
            let threads = cfg
                .parallel
                .effective_threads(in_play.len().max(pending.len()));
            let use_bucket = bucket_usable
                && match cfg.mode {
                    ResolveMode::BucketScan => true,
                    ResolveMode::Auto => {
                        // The packed pair kernel holds to much denser
                        // workloads than the slotwise one, so its
                        // crossover into the bucket scan sits higher.
                        let crossover = if planes_ok {
                            PLANE_BUCKET_CROSSOVER
                        } else {
                            BUCKET_CROSSOVER
                        };
                        pending.len() >= crossover * in_play.len()
                    }
                    ResolveMode::PairMajor => false,
                };
            if use_bucket && met.is_empty() {
                met = vec![0u64; (n * (n - 1) / 2).div_ceil(64)];
                for &((i, j), _) in &entries {
                    set_bit(&mut met, pair_bit(i, j, n));
                }
            }
            let layout = if planes_ok && !use_bucket {
                RowLayout::Planes {
                    nbits,
                    words: bitplane::plane_words(len),
                }
            } else {
                RowLayout::Slotwise
            };
            let row_words = layout.row_words(len);
            let fill_tasks: Vec<&[u32]> = in_play
                .chunks(pool::chunk_size(in_play.len(), threads))
                .collect();
            for (ci, chunk) in fill_tasks.iter().enumerate() {
                for (k, &ai) in chunk.iter().enumerate() {
                    locate[ai as usize] = (ci as u32, k as u32);
                }
            }
            let agents = &self.agents;
            let prepared = &prepared;
            let group_of = &group_of;
            let windows = &windows;
            let plan_ref = plan.as_ref();
            // Phase 1: each fill task computes its agents' masked rows
            // for the block and *returns* them as one owned buffer (in
            // the block's layout) — the resolve wave reads the buffers
            // read-only.
            let fill_chunk = move |chunk: &[u32]| -> Vec<u64> {
                let mut rows: Vec<u64> = Vec::with_capacity(chunk.len() * row_words);
                let mut scratch = [0u64; BLOCK];
                for &ai in chunk {
                    let ai = ai as usize;
                    let agent = &agents[ai];
                    let window = windows.as_ref().map_or(InPlayWindow::ALWAYS, |w| w[ai]);
                    fill_masked_row(
                        &prepared[group_of[ai]],
                        agent.wake,
                        window,
                        plan_ref,
                        block_start,
                        &mut scratch[..len],
                    );
                    match layout {
                        RowLayout::Planes { nbits, words } => {
                            let base = rows.len();
                            rows.resize(base + row_words, 0);
                            bitplane::pack_row(&scratch[..len], nbits, words, &mut rows[base..]);
                        }
                        RowLayout::Slotwise => rows.extend_from_slice(&scratch[..len]),
                    }
                }
                rows
            };
            if use_bucket {
                let slot_chunk = pool::chunk_size(len, threads);
                let slot_tasks: Vec<Range<usize>> = (0..len)
                    .step_by(slot_chunk)
                    .map(|lo| lo..(lo + slot_chunk).min(len))
                    .collect();
                let found = fill_then_resolve(
                    fill_tasks,
                    slot_tasks,
                    threads,
                    &locate,
                    row_words,
                    fill_chunk,
                    |rows, slots| {
                        bucket_scan(rows, &in_play, &met, n, max_channel, slots, block_start)
                    },
                );
                // Tasks cover ascending slot ranges and emit in ascending
                // slot order, so the first record of a pair is its first
                // meeting of the block.
                for (i, j, t) in found.into_iter().flatten() {
                    let (i, j) = (i as usize, j as usize);
                    let bit = pair_bit(i, j, n);
                    if !test_bit(&met, bit) {
                        set_bit(&mut met, bit);
                        entries.push(((i, j), t));
                        load[i] -= 1;
                        load[j] -= 1;
                    }
                }
                pending.retain(|&(i, j)| !test_bit(&met, pair_bit(i as usize, j as usize, n)));
            } else {
                let pair_tasks: Vec<&[(u32, u32)]> = pending
                    .chunks(pool::chunk_size(pending.len(), threads))
                    .collect();
                // The pair kernel: word-parallel over the planes, or the
                // slot-at-a-time scan on slotwise rows. Either way the
                // rows are plain slices the compiler can vectorize over.
                let results = fill_then_resolve(
                    fill_tasks,
                    pair_tasks,
                    threads,
                    &locate,
                    row_words,
                    fill_chunk,
                    |rows, chunk| {
                        chunk
                            .iter()
                            .map(|&(i, j)| {
                                let (ri, rj) = (rows.row(i as usize), rows.row(j as usize));
                                match layout {
                                    RowLayout::Planes { nbits, words } => {
                                        bitplane::first_match(ri, rj, nbits, words)
                                            .map(|x| block_start + x as u64)
                                    }
                                    RowLayout::Slotwise => (0..len).find_map(|x| {
                                        let c = ri[x];
                                        if c != 0 && c == rj[x] {
                                            Some(block_start + x as u64)
                                        } else {
                                            None
                                        }
                                    }),
                                }
                            })
                            .collect::<Vec<Option<u64>>>()
                    },
                );
                let mut outcomes = results.into_iter().flatten();
                let track_met = !met.is_empty();
                pending.retain(|&(i, j)| {
                    let (i, j) = (i as usize, j as usize);
                    match outcomes.next().expect("one outcome per pending pair") {
                        Some(t) => {
                            entries.push(((i, j), t));
                            if track_met {
                                set_bit(&mut met, pair_bit(i, j, n));
                            }
                            load[i] -= 1;
                            load[j] -= 1;
                            false
                        }
                        None => true,
                    }
                });
            }
            block_start = block_end;
        }
        pending.extend(departed);
        pending.sort_unstable();
        MeetingReport {
            first_meeting: MeetingMap::from_entries(entries),
            missed: pending
                .into_iter()
                .map(|pair| Self::missed_pair(pair, horizon, plan.as_ref()))
                .collect(),
            horizon,
        }
    }

    /// The seed per-pair engine, kept as the benchmark baseline and test
    /// reference: every pending pair is resolved by an independent
    /// two-agent block scan, re-filling each agent's schedule once per
    /// pair — `O(pairs)` fills per block, which is exactly the redundancy
    /// the arena engine eliminates. Produces the identical report.
    pub fn run_per_pair_reference(&self, horizon: u64, cfg: &ParallelConfig) -> MeetingReport {
        self.per_pair_reference_impl(horizon, cfg, None)
    }

    /// [`Self::run_per_pair_reference`] under a full engine config,
    /// honoring `cfg.faults` — the independent oracle the faulted arena
    /// engine is tested bit-identical against. Resolution mode is
    /// irrelevant here (every pair is an independent two-agent scan).
    pub fn run_per_pair_reference_with(&self, horizon: u64, cfg: &EngineConfig) -> MeetingReport {
        let plan = cfg.faults.filter(|p| !p.is_quiet());
        self.per_pair_reference_impl(horizon, &cfg.parallel, plan.as_ref())
    }

    fn per_pair_reference_impl(
        &self,
        horizon: u64,
        cfg: &ParallelConfig,
        plan: Option<&FaultPlan>,
    ) -> MeetingReport {
        let pending = self.overlapping_pairs();
        let threads = cfg.effective_threads(pending.len());
        let tasks: Vec<&[(u32, u32)]> = pending
            .chunks(pool::chunk_size(pending.len(), threads))
            .collect();
        let meetings: Vec<Vec<Option<u64>>> = pool::run_indexed(tasks, cfg, |_idx, chunk| {
            chunk
                .iter()
                .map(|&(i, j)| self.pair_first_meeting(i as usize, j as usize, horizon, plan))
                .collect()
        });
        let mut entries = Vec::new();
        let mut missed = Vec::new();
        for (&(i, j), met) in pending.iter().zip(meetings.iter().flatten()) {
            match met {
                Some(t) => entries.push(((i as usize, j as usize), *t)),
                None => missed.push((i, j)),
            }
        }
        missed.sort_unstable();
        MeetingReport {
            first_meeting: MeetingMap::from_entries(entries),
            missed: missed
                .into_iter()
                .map(|pair| Self::missed_pair(pair, horizon, plan))
                .collect(),
            horizon,
        }
    }

    /// First absolute slot at which agents `i` and `j` are both awake,
    /// both in play, and on the same *available* channel — the unit of
    /// parallelism of [`Self::run_per_pair_reference`]. The scan is
    /// clamped to the pair's joint in-play window, which is exactly what
    /// the arena engine's per-agent masking plus pair retirement compute.
    fn pair_first_meeting(
        &self,
        i: usize,
        j: usize,
        horizon: u64,
        plan: Option<&FaultPlan>,
    ) -> Option<u64> {
        let (ai, aj) = (&self.agents[i], &self.agents[j]);
        let (wi, wj) = match plan {
            Some(p) => (p.agent_window(i), p.agent_window(j)),
            None => (InPlayWindow::ALWAYS, InPlayWindow::ALWAYS),
        };
        let start = ai.wake.max(aj.wake).max(wi.arrive).max(wj.arrive);
        let end = horizon.min(wi.depart).min(wj.depart);
        if start >= end {
            return None;
        }
        let mut bufi = [0u64; BLOCK];
        let mut bufj = [0u64; BLOCK];
        let mut t = start;
        while t < end {
            let len = (end - t).min(BLOCK as u64) as usize;
            fill_masked_row(&ai.schedule, ai.wake, wi, plan, t, &mut bufi[..len]);
            fill_masked_row(&aj.schedule, aj.wake, wj, plan, t, &mut bufj[..len]);
            for x in 0..len {
                // Masked slots are 0 in *both* buffers, so a shared
                // blackout cannot read as a meeting — the same sentinel
                // contract the arena rows (and the presence plane) carry.
                let c = bufi[x];
                if c != 0 && c == bufj[x] {
                    return Some(t + x as u64);
                }
            }
            t += len as u64;
        }
        None
    }
}

/// Largest spectrum the bucket scan regroups through channel-indexed
/// counting buckets (`O(agents)` per slot); sparser spectra — e.g. the
/// 2⁴⁰-channel coalition universe — fall back to sorting each slot's
/// entries (`O(agents log agents)`).
const COUNTING_BUCKET_MAX_CHANNEL: u64 = 1 << 16;

/// Largest met-pair bitset (in `u64` words; 8 MiB) a bucket task clones
/// as its within-task emission filter. A freshly met pair keeps
/// co-occupying buckets for the rest of its block, so the filter is on
/// the scan's hottest path — a bit probe beats a hash probe by an order
/// of magnitude. Populations whose bitset exceeds the clone budget use a
/// hash set instead.
const LOCAL_FILTER_MAX_WORDS: usize = 1 << 20;

/// Within-task dedup filter of the bucket scan: admits each pair at most
/// once per task, and never a pair that already met in an earlier block.
enum PairFilter<'a> {
    /// A private clone of the met bitset; admitted pairs are marked
    /// locally so repeats are rejected by the same probe.
    Bits { local: Vec<u64> },
    /// Shared met bitset plus a hash set of locally admitted pairs, for
    /// populations whose bitset is too large to clone per task.
    Hash {
        met: &'a [u64],
        seen: HashSet<(u32, u32)>,
    },
}

impl<'a> PairFilter<'a> {
    fn new(met: &'a [u64]) -> Self {
        if met.len() <= LOCAL_FILTER_MAX_WORDS {
            PairFilter::Bits {
                local: met.to_vec(),
            }
        } else {
            PairFilter::Hash {
                met,
                seen: HashSet::new(),
            }
        }
    }

    /// Whether `(i, j)` is new to this task and unmet before the block.
    fn admit(&mut self, i: u32, j: u32, n: usize) -> bool {
        let bit = pair_bit(i as usize, j as usize, n);
        match self {
            PairFilter::Bits { local } => {
                if test_bit(local, bit) {
                    false
                } else {
                    set_bit(local, bit);
                    true
                }
            }
            PairFilter::Hash { met, seen } => !test_bit(met, bit) && seen.insert((i, j)),
        }
    }
}

/// The bucket resolve task: per slot of `slots`, groups the in-play
/// agents' row entries by channel and emits every co-bucketed pair not
/// yet met (`met` filters pairs from earlier blocks, `seen` dedupes
/// within the task, keeping the earliest slot since slots ascend).
///
/// `rows` must be slotwise — the gather needs channel *values*, which is
/// why bucket blocks never pack bit-planes. It is agent-major — each
/// agent's row is read sequentially — because reading the block
/// column-wise would take a cache miss per agent per slot. Grouping
/// indexes straight into per-channel buckets when the spectrum is small
/// enough to preallocate (the common population case) and sorts
/// otherwise.
fn bucket_scan(
    rows: &BlockRows<'_>,
    in_play: &[u32],
    met: &[u64],
    n: usize,
    max_channel: u64,
    slots: Range<usize>,
    block_start: u64,
) -> Vec<(u32, u32, u64)> {
    // Exact-capacity rows: almost every in-play agent contributes to
    // every slot, and letting the vectors grow geometrically instead was
    // measurably the scan's biggest cost.
    let mut per_slot: Vec<Vec<(u64, u32)>> = (0..slots.len())
        .map(|_| Vec::with_capacity(in_play.len()))
        .collect();
    for &ai in in_play {
        let row = &rows.row(ai as usize)[slots.start..slots.end];
        for (x, &c) in row.iter().enumerate() {
            if c != 0 {
                per_slot[x].push((c, ai));
            }
        }
    }
    let counting = max_channel <= COUNTING_BUCKET_MAX_CHANNEL;
    let mut channel_bucket: Vec<Vec<u32>> = if counting {
        vec![Vec::new(); max_channel as usize + 1]
    } else {
        Vec::new()
    };
    let mut touched: Vec<u64> = Vec::new();
    let mut found = Vec::new();
    let mut filter = PairFilter::new(met);
    let mut emit = |group: &[u32], t: u64, found: &mut Vec<(u32, u32, u64)>| {
        for (at, &i) in group.iter().enumerate() {
            for &j in &group[at + 1..] {
                // Groups are built in ascending agent order, so i < j.
                if filter.admit(i, j, n) {
                    found.push((i, j, t));
                }
            }
        }
    };
    for (x, entries) in per_slot.iter_mut().enumerate() {
        let t = block_start + (slots.start + x) as u64;
        if counting {
            for &(c, ai) in entries.iter() {
                let bucket = &mut channel_bucket[c as usize];
                if bucket.is_empty() {
                    touched.push(c);
                }
                bucket.push(ai);
            }
            for &c in &touched {
                let bucket = &mut channel_bucket[c as usize];
                if bucket.len() >= 2 {
                    emit(bucket, t, &mut found);
                }
                bucket.clear();
            }
            touched.clear();
        } else {
            entries.sort_unstable();
            let mut lo = 0;
            while lo < entries.len() {
                let c = entries[lo].0;
                let mut hi = lo + 1;
                while hi < entries.len() && entries[hi].0 == c {
                    hi += 1;
                }
                if hi - lo >= 2 {
                    let group: Vec<u32> = entries[lo..hi].iter().map(|&(_, ai)| ai).collect();
                    emit(&group, t, &mut found);
                }
                lo = hi;
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{AgentCtx, Algorithm};

    fn agent(algo: Algorithm, n: u64, channels: &[u64], wake: u64, seed: u64) -> Agent {
        let set = ChannelSet::new(channels.iter().copied()).unwrap();
        let ctx = AgentCtx {
            wake,
            agent_seed: seed,
            shared_seed: 42,
            faults: None,
        };
        Agent {
            schedule: algo.make(n, &set, &ctx).expect("valid agent"),
            set,
            wake,
            share_key: None,
        }
    }

    fn staggered_population(
        algos: &[Algorithm],
        sets: &[&[u64]],
        n: u64,
        stride: u64,
    ) -> Vec<Agent> {
        sets.iter()
            .zip(algos.iter().cycle())
            .enumerate()
            .map(|(i, (s, &algo))| agent(algo, n, s, (i as u64) * stride, i as u64))
            .collect()
    }

    #[test]
    fn two_agents_meet() {
        let a = agent(Algorithm::Ours, 16, &[1, 5, 9], 0, 0);
        let b = agent(Algorithm::Ours, 16, &[5, 12], 7, 1);
        let sim = Simulation::new(vec![a, b]);
        let report = sim.run(100_000);
        assert!(report.all_met());
        let ttr = report.ttr(0, 1, sim.agents()).unwrap();
        assert!(ttr < 100_000);
        // Symmetric access works too.
        assert_eq!(report.ttr(1, 0, sim.agents()), Some(ttr));
    }

    #[test]
    fn disjoint_agents_ignored() {
        let a = agent(Algorithm::Ours, 16, &[1, 2], 0, 0);
        let b = agent(Algorithm::Ours, 16, &[3, 4], 0, 1);
        let sim = Simulation::new(vec![a, b]);
        let report = sim.run(1_000);
        assert!(report.all_met()); // nothing pending
        assert_eq!(report.ttr(0, 1, sim.agents()), None);
    }

    #[test]
    fn meeting_respects_wake_times() {
        // Before both are awake no meeting can be recorded.
        let a = agent(Algorithm::Ours, 8, &[3], 0, 0);
        let b = agent(Algorithm::Ours, 8, &[3], 50, 1);
        let sim = Simulation::new(vec![a, b]);
        let report = sim.run(200);
        let t = report.first_meeting.get(0, 1).unwrap();
        assert_eq!(t, 50, "constant channel agents meet the slot both awake");
        assert_eq!(report.ttr(0, 1, sim.agents()), Some(0));
    }

    #[test]
    fn many_agents_all_pairs() {
        // Five agents on a small universe; every overlapping pair must meet
        // within the Theorem 3 bound.
        let sets: [&[u64]; 5] = [&[1, 2], &[2, 3], &[3, 4], &[4, 5, 1], &[1, 3, 5]];
        let agents = staggered_population(&[Algorithm::Ours], &sets, 5, 13);
        let sim = Simulation::new(agents);
        let report = sim.run(1 << 16);
        assert!(report.all_met(), "missed: {:?}", report.missed);
    }

    #[test]
    fn arena_engine_matches_per_slot_reference() {
        // The arena engine must agree exactly with a slot-by-slot
        // reference over staggered wakes and a horizon that is not a
        // multiple of the block size.
        let sets: [&[u64]; 4] = [&[1, 2, 9], &[2, 5], &[5, 9, 11], &[1, 11]];
        let agents = staggered_population(&[Algorithm::Ours], &sets, 12, 317);
        let horizon = 2_777u64;
        let sim = Simulation::new(agents);
        let report = sim.run(horizon);
        let agents = sim.agents();
        for i in 0..agents.len() {
            for j in i + 1..agents.len() {
                if !agents[i].set.overlaps(&agents[j].set) {
                    continue;
                }
                let expected = (0..horizon).find(|&t| {
                    t >= agents[i].wake
                        && t >= agents[j].wake
                        && agents[i].schedule.channel_at(t - agents[i].wake)
                            == agents[j].schedule.channel_at(t - agents[j].wake)
                });
                assert_eq!(report.first_meeting.get(i, j), expected, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn every_mode_and_thread_count_matches() {
        // Mixed algorithms, staggered wakes, a horizon off the block
        // boundary: every (mode × thread count) combination and the
        // per-pair reference must produce the identical report.
        let sets: [&[u64]; 5] = [&[1, 2, 9], &[2, 5], &[5, 9, 11], &[1, 11], &[3, 4]];
        let algos = [
            Algorithm::Ours,
            Algorithm::Crseq,
            Algorithm::Drds,
            Algorithm::Ours,
            Algorithm::Random,
        ];
        let agents = staggered_population(&algos, &sets, 12, 271);
        let sim = Simulation::new(agents);
        let horizon = 3_333u64;
        let baseline = sim.run_with(horizon, &ParallelConfig::with_threads(1));
        for mode in [
            ResolveMode::Auto,
            ResolveMode::PairMajor,
            ResolveMode::BucketScan,
        ] {
            for threads in [1usize, 2, 8] {
                let cfg = EngineConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    mode,
                    plane: PlanePolicy::Auto,
                    faults: None,
                };
                assert_eq!(
                    baseline,
                    sim.run_engine(horizon, &cfg),
                    "mode = {mode:?}, threads = {threads}"
                );
            }
        }
        for threads in [1usize, 2, 8] {
            assert_eq!(
                baseline,
                sim.run_per_pair_reference(horizon, &ParallelConfig::with_threads(threads)),
                "per-pair reference at {threads} threads"
            );
        }
        assert_eq!(baseline, sim.run(horizon));
    }

    #[test]
    fn clustered_agents_dedupe_compiled_tables() {
        // 200 agents over 61 possible contiguous blocks: the arena engine
        // must prepare one schedule per *distinct* set, not per agent.
        let agents = crate::workload::clustered_agents(Algorithm::Ours, 64, 4, 200, 11, 128);
        let mut distinct: std::collections::HashSet<Vec<u64>> = std::collections::HashSet::new();
        for a in &agents {
            distinct.insert(a.set.as_slice().to_vec());
        }
        let sim = Simulation::new(agents);
        assert_eq!(
            sim.schedule_groups(),
            distinct.len(),
            "one compiled-table group per distinct (algorithm, set)"
        );
        assert!(
            sim.schedule_groups() < sim.agents().len(),
            "a clustered population must actually share schedules"
        );
    }

    #[test]
    fn share_keys_do_not_change_the_report() {
        // The deduped engine must produce the identical report with the
        // share keys stripped (every agent compiled separately).
        let n = 48u64;
        let horizon = 6_000u64;
        let keyed = Simulation::new(crate::workload::clustered_agents(
            Algorithm::Ours,
            n,
            4,
            60,
            5,
            300,
        ));
        assert!(keyed.schedule_groups() < 60);
        let mut stripped_agents =
            crate::workload::clustered_agents(Algorithm::Ours, n, 4, 60, 5, 300);
        for a in &mut stripped_agents {
            a.share_key = None;
        }
        let stripped = Simulation::new(stripped_agents);
        assert_eq!(stripped.schedule_groups(), 60);
        for mode in [
            ResolveMode::Auto,
            ResolveMode::PairMajor,
            ResolveMode::BucketScan,
        ] {
            for threads in [1usize, 4] {
                let cfg = EngineConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    mode,
                    plane: PlanePolicy::Auto,
                    faults: None,
                };
                assert_eq!(
                    keyed.run_engine(horizon, &cfg),
                    stripped.run_engine(horizon, &cfg),
                    "dedupe changed the report ({mode:?}, {threads} threads)"
                );
            }
        }
    }

    #[test]
    fn random_agents_never_share() {
        // Seeded-random schedules differ per agent even on equal sets —
        // share_key must refuse them.
        assert_eq!(
            crate::workload::share_key(
                Algorithm::Random,
                16,
                &ChannelSet::new(vec![1, 2, 3]).unwrap()
            ),
            None
        );
        let agents = crate::workload::clustered_agents(Algorithm::Random, 16, 4, 24, 3, 64);
        let sim = Simulation::new(agents);
        assert_eq!(sim.schedule_groups(), 24);
    }

    #[test]
    fn share_keys_distinguish_universes() {
        // The same set under different universe sizes yields different
        // schedules (word lengths and primes scale with n), so the keys
        // must differ — equal keys would share a wrong compiled table.
        let set = ChannelSet::new(vec![1, 2, 3, 4]).unwrap();
        let k64 = crate::workload::share_key(Algorithm::Ours, 64, &set).unwrap();
        let k128 = crate::workload::share_key(Algorithm::Ours, 128, &set).unwrap();
        assert_ne!(k64, k128);
        // And different algorithms on the same (n, set) never collide.
        let crseq = crate::workload::share_key(Algorithm::Crseq, 64, &set).unwrap();
        assert_ne!(k64, crseq);
    }

    #[test]
    fn meeting_map_accessors() {
        let map = MeetingMap::from_entries(vec![((2, 5), 40), ((0, 1), 7)]);
        assert_eq!(map.get(0, 1), Some(7));
        assert_eq!(map.get(1, 0), Some(7));
        assert_eq!(map.get(5, 2), Some(40));
        assert_eq!(map.get(0, 2), None);
        assert!(map.contains(2, 5));
        assert_eq!(map.len(), 2);
        assert!(!map.is_empty());
        // Iteration is sorted regardless of insertion order.
        let pairs: Vec<(usize, usize)> = map.iter().map(|(p, _)| p).collect();
        assert_eq!(pairs, vec![(0, 1), (2, 5)]);
        assert_eq!(map.as_slice(), &[((0, 1), 7), ((2, 5), 40)]);
    }

    #[test]
    fn horizon_cuts_off() {
        let a = agent(Algorithm::Ours, 16, &[1, 5, 9], 0, 0);
        let b = agent(Algorithm::Ours, 16, &[5, 12], 0, 1);
        let sim = Simulation::new(vec![a, b]);
        let report = sim.run(1);
        // With a 1-slot horizon the pair may or may not have met; report
        // must be internally consistent either way.
        assert_eq!(report.all_met(), report.first_meeting.contains(0, 1));
        // A zero horizon reports every pair missed — fault-free runs
        // always tag misses as horizon exhaustion.
        let empty = sim.run(0);
        assert!(empty.first_meeting.is_empty());
        assert_eq!(
            empty.missed,
            vec![MissedPair {
                pair: (0, 1),
                cause: MissCause::HorizonExhausted,
            }]
        );
    }

    #[test]
    fn quiet_fault_plan_is_observationally_no_plan() {
        let sets: [&[u64]; 4] = [&[1, 2, 9], &[2, 5], &[5, 9, 11], &[1, 11]];
        let agents = staggered_population(&[Algorithm::Ours], &sets, 12, 200);
        let sim = Simulation::new(agents);
        let clean = sim.run(3_000);
        let quiet = sim.run_engine(
            3_000,
            &EngineConfig {
                faults: Some(FaultPlan::new(99, 64, 0, 0, 3_000)),
                ..EngineConfig::default()
            },
        );
        assert_eq!(clean, quiet);
    }

    #[test]
    fn outage_masks_delay_or_deny_meetings_identically_everywhere() {
        // Heavy outages must never *create* meetings (a faulted meeting
        // slot is also a clean meeting slot on an available channel), and
        // every (mode × thread count) plus the per-pair reference must
        // agree bit-for-bit on the faulted report.
        let sets: [&[u64]; 5] = [&[1, 2, 9], &[2, 5], &[5, 9, 11], &[1, 11], &[2, 9, 11]];
        let agents = staggered_population(&[Algorithm::Ours, Algorithm::Crseq], &sets, 12, 113);
        let sim = Simulation::new(agents);
        let horizon = 3_333u64;
        let plan = FaultPlan::new(7, 48, 300, 0, horizon);
        let clean = sim.run(horizon);
        let base_cfg = EngineConfig {
            parallel: ParallelConfig::with_threads(1),
            mode: ResolveMode::Auto,
            plane: PlanePolicy::Auto,
            faults: Some(plan),
        };
        let faulted = sim.run_engine(horizon, &base_cfg);
        for (pair, t) in faulted.first_meeting.iter() {
            assert!(
                plan.channel_available(
                    sim.agents()[pair.0]
                        .schedule
                        .channel_at(t - sim.agents()[pair.0].wake)
                        .into(),
                    t
                ),
                "pair {pair:?} met on a blacked-out channel at {t}"
            );
            let clean_t = clean.first_meeting.get(pair.0, pair.1).unwrap();
            assert!(t >= clean_t, "faults made pair {pair:?} meet earlier");
        }
        for mode in [
            ResolveMode::Auto,
            ResolveMode::PairMajor,
            ResolveMode::BucketScan,
        ] {
            for threads in [1usize, 2, 8] {
                let cfg = EngineConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    mode,
                    plane: PlanePolicy::Auto,
                    faults: Some(plan),
                };
                assert_eq!(
                    faulted,
                    sim.run_engine(horizon, &cfg),
                    "faulted report diverged: mode = {mode:?}, threads = {threads}"
                );
                assert_eq!(
                    faulted,
                    sim.run_per_pair_reference_with(horizon, &cfg),
                    "per-pair faulted reference diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn churn_retires_departed_pairs_with_the_departed_cause() {
        // Full churn: every agent gets a bounded window. Pairs whose
        // joint window closes before the horizon and never met must be
        // tagged Departed; the arena engine and the per-pair reference
        // must agree on both the tags and the meetings.
        let sets: [&[u64]; 6] = [&[1, 2], &[2, 3], &[3, 4], &[4, 5, 1], &[1, 3, 5], &[2, 5]];
        let agents = staggered_population(&[Algorithm::Ours], &sets, 6, 29);
        let sim = Simulation::new(agents);
        let horizon = 2_048u64;
        let plan = FaultPlan::new(1234, 64, 0, 1000, horizon);
        let cfg = EngineConfig {
            parallel: ParallelConfig::with_threads(2),
            mode: ResolveMode::Auto,
            plane: PlanePolicy::Auto,
            faults: Some(plan),
        };
        let report = sim.run_engine(horizon, &cfg);
        assert_eq!(report, sim.run_per_pair_reference_with(horizon, &cfg));
        for m in &report.missed {
            let (i, j) = m.pair;
            let close = plan.agent_window(i).depart.min(plan.agent_window(j).depart);
            let expected = if close < horizon {
                MissCause::Departed
            } else {
                MissCause::HorizonExhausted
            };
            assert_eq!(m.cause, expected, "pair {:?}", m.pair);
        }
        // The meetings that do happen land inside both windows.
        for ((i, j), t) in report.first_meeting.iter() {
            assert!(plan.agent_window(i).contains(t), "agent {i} not in play");
            assert!(plan.agent_window(j).contains(t), "agent {j} not in play");
        }
    }

    #[test]
    fn bucket_scan_hash_filter_matches_pair_major() {
        // Past 11 585 agents the met bitset outgrows the per-task clone
        // budget, so bucket tasks filter emissions through the hash set.
        // Two random channels out of 60 000 keep the overlaps sparse;
        // wakes past the block leave some pairs unmet.
        let n = 11_600usize;
        assert!((n * (n - 1) / 2).div_ceil(64) > LOCAL_FILTER_MAX_WORDS);
        let agents: Vec<Agent> = (0..n as u64)
            .map(|i| {
                let seed = pool::stream_seed(7, i);
                let (a, b) = (1 + seed % 60_000, 1 + (seed >> 32) % 60_000);
                agent(Algorithm::Random, 60_000, &[a, b], (seed >> 16) % 640, seed)
            })
            .collect();
        let sim = Simulation::new(agents);
        let horizon = BLOCK as u64;
        let bucket = sim.run_engine(
            horizon,
            &EngineConfig {
                parallel: ParallelConfig::with_threads(2),
                mode: ResolveMode::BucketScan,
                ..EngineConfig::default()
            },
        );
        let reference = sim.run_engine(
            horizon,
            &EngineConfig {
                parallel: ParallelConfig::with_threads(1),
                mode: ResolveMode::PairMajor,
                plane: PlanePolicy::Slotwise,
                faults: None,
            },
        );
        assert!(
            !bucket.first_meeting.is_empty() && !bucket.missed.is_empty(),
            "the population must both meet and miss within one block"
        );
        assert_eq!(bucket, reference);
    }
}
