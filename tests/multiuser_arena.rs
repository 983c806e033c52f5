//! Correctness contract of the shared-arena multi-user engine: on random
//! populations with staggered wakes and off-block horizons, both
//! resolution modes — pair-major and bucket scan — and both row layouts
//! — bit-plane and slotwise — must reproduce a naive per-slot reference
//! **bit-identically**, at 1, 2, and 8 worker threads, including the
//! universes whose channel ids exceed the plane budget (where the auto
//! layout must fall back to slotwise rows).
//!
//! Pair discovery — the engine's work list — is pinned separately
//! against a nested `ChannelSet::overlaps` scan on populations that mix
//! repeated and all-distinct channel sets, at channel ids up to 2⁴⁰.

use blind_rendezvous::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdv_core::schedule::CyclicSchedule;
use rdv_sim::algo::AgentCtx;
use rdv_sim::engine::{
    Agent, EngineConfig, MissCause, MissedPair, PlanePolicy, ResolveMode, Simulation,
};
use rdv_sim::ParallelConfig;
use std::collections::{BTreeSet, HashSet};

/// A random population description: per agent, a channel set (within a
/// shared universe) and a wake slot.
fn population() -> impl Strategy<Value = (u64, Vec<(Vec<u64>, u64)>)> {
    (6u64..18).prop_flat_map(|n| {
        let agent = (
            proptest::collection::btree_set(1..=n, 1..=5),
            0u64..700, // staggered wakes, some beyond whole blocks
        )
            .prop_map(|(set, wake)| (set.into_iter().collect::<Vec<u64>>(), wake));
        (Just(n), proptest::collection::vec(agent, 2..9))
    })
}

fn build(n: u64, spec: &[(Vec<u64>, u64)]) -> Vec<Agent> {
    spec.iter()
        .enumerate()
        .map(|(i, (channels, wake))| {
            let set = ChannelSet::new(channels.iter().copied()).expect("non-empty");
            let ctx = AgentCtx {
                wake: *wake,
                agent_seed: i as u64,
                shared_seed: 5,
                faults: None,
            };
            // Mix a deterministic and a seeded-random algorithm across the
            // population so schedules differ in period structure.
            let algo = if i % 3 == 2 {
                Algorithm::Random
            } else {
                Algorithm::Ours
            };
            Agent {
                schedule: algo.make(n, &set, &ctx).expect("valid agent"),
                set,
                wake: *wake,
                share_key: None,
            }
        })
        .collect()
}

/// The same population shapes with every channel id shifted far above
/// the plane budget (`plane_bits > PLANE_BITS_BUDGET`), on cheap cyclic
/// schedules — the universe where the bit-plane layout must fall back to
/// slotwise rows.
fn build_above_plane_budget(spec: &[(Vec<u64>, u64)]) -> Vec<Agent> {
    const BASE: u64 = 1u64 << rdv_core::bitplane::PLANE_BITS_BUDGET;
    spec.iter()
        .enumerate()
        .map(|(i, (channels, wake))| {
            let shifted: Vec<u64> = channels.iter().map(|c| BASE + c).collect();
            let set = ChannelSet::new(shifted.iter().copied()).expect("non-empty");
            let mut period: Vec<Channel> = shifted.iter().map(|&c| Channel::new(c)).collect();
            let rot = i % period.len();
            period.rotate_left(rot);
            Agent {
                schedule: Box::new(CyclicSchedule::new(period).expect("non-empty")),
                set,
                wake: *wake,
                share_key: None,
            }
        })
        .collect()
}

/// Sorted `(pair, first-meeting slot)` entries, as `MeetingMap::as_slice`
/// lays them out.
type MetEntries = Vec<((usize, usize), u64)>;

/// The naive slot-by-slot reference: first co-channel slot of every
/// overlapping pair, scanned through `channel_at` one slot at a time.
fn reference(agents: &[Agent], horizon: u64) -> (MetEntries, Vec<MissedPair>) {
    let mut met = Vec::new();
    let mut missed = Vec::new();
    for i in 0..agents.len() {
        for j in i + 1..agents.len() {
            if !agents[i].set.overlaps(&agents[j].set) {
                continue;
            }
            let start = agents[i].wake.max(agents[j].wake);
            let first = (start..horizon).find(|&t| {
                agents[i].schedule.channel_at(t - agents[i].wake)
                    == agents[j].schedule.channel_at(t - agents[j].wake)
            });
            match first {
                Some(t) => met.push(((i, j), t)),
                // Fault-free runs can only miss by running out of horizon.
                None => missed.push(MissedPair {
                    pair: (i, j),
                    cause: MissCause::HorizonExhausted,
                }),
            }
        }
    }
    (met, missed)
}

/// The set-overlap reference for discovery: every `(i, j)`, `i < j`,
/// whose channel sets overlap, by the nested scan.
fn nested_overlaps(agents: &[Agent]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for i in 0..agents.len() {
        for j in i + 1..agents.len() {
            if agents[i].set.overlaps(&agents[j].set) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// An agent hopping cyclically over `channels`, rotated by `rot` — cheap
/// for any channel width, and all discovery reads is the set.
fn cyclic_agent(channels: Vec<u64>, rot: usize, wake: u64) -> Agent {
    let set = ChannelSet::new(channels).expect("non-empty");
    let mut period: Vec<Channel> = set.iter().collect();
    period.rotate_left(rot % set.len());
    Agent {
        schedule: Box::new(CyclicSchedule::new(period).expect("non-empty")),
        set,
        wake,
        share_key: None,
    }
}

/// A discovery population of `size` agents on rotated cyclic schedules.
/// Each agent, with probability `repeated_quarters / 4`, takes one of a
/// small palette of repeated sets (so palette classes first appear at
/// random positions, late ones included, with their members interleaved
/// among other classes); the rest get fresh sets, distinct from every
/// other fresh set. Channels are `base + 1 ..= base + 40`, so `base`
/// near 2⁴⁰ exercises universes far wider than any dense index.
fn discovery_population(size: usize, repeated_quarters: u64, base: u64, seed: u64) -> Vec<Agent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let draw = |rng: &mut StdRng| {
        let k = rng.gen_range(1..=4usize);
        let mut set = BTreeSet::new();
        while set.len() < k {
            set.insert(base + rng.gen_range(1..=40u64));
        }
        set.into_iter().collect::<Vec<u64>>()
    };
    let palette_len = rng.gen_range(1..=6usize);
    let palette: Vec<Vec<u64>> = (0..palette_len).map(|_| draw(&mut rng)).collect();
    let mut fresh: HashSet<Vec<u64>> = palette.iter().cloned().collect();
    (0..size)
        .map(|i| {
            let channels = if rng.gen_range(0..4u64) < repeated_quarters {
                palette[rng.gen_range(0..palette.len())].clone()
            } else {
                loop {
                    let set = draw(&mut rng);
                    if fresh.insert(set.clone()) {
                        break set;
                    }
                }
            };
            cyclic_agent(channels, i, (i as u64 * 7) % 300)
        })
        .collect()
}

/// Population sizes discovery must handle: empty, one and two agents,
/// around the old index threshold (255–257), and a few hundred.
const DISCOVERY_SIZES: [usize; 7] = [0, 1, 2, 255, 256, 257, 600];

#[test]
fn discovery_copies_late_class_suffixes_across_words() {
    // Classes X and Y alternate for 130 agents (past two 64-agent
    // words); class L first appears at agent 130 and then interleaves
    // with further X and Y members, so every later L member copies the
    // part of L's list past its own index. L overlaps X but not Y, and a
    // singleton Z at agent 150 overlaps everything. Run at small ids and
    // at ids past 2⁴⁰.
    for base in [0u64, 1 << 40] {
        let (x, y, l) = ([1, 2], [3], [2, 7]);
        let z = [1, 3, 7];
        let shifted = |set: &[u64]| set.iter().map(|c| base + c).collect::<Vec<u64>>();
        let mut sets: Vec<&[u64]> = (0..130)
            .map(|i| if i % 2 == 0 { &x[..] } else { &y[..] })
            .collect();
        sets.extend((0..70).map(|i| match i % 3 {
            0 => &l[..],
            1 => &x[..],
            _ => &y[..],
        }));
        sets.insert(150, &z);
        let agents: Vec<Agent> = sets
            .iter()
            .map(|set| cyclic_agent(shifted(set), 0, 0))
            .collect();
        let sim = Simulation::new(agents);
        let found: Vec<(usize, usize)> = sim.run(0).missed_pairs().collect();
        assert_eq!(found, nested_overlaps(sim.agents()), "base {base}");
        assert!(found.contains(&(130, 131)) && !found.contains(&(130, 132)));
    }
}

#[test]
fn discovered_pairs_run_identically_through_arena_and_per_pair_engines() {
    // A mixed population whose palette classes interleave with distinct
    // sets: the engine's `(u32, u32)` work list must produce the same
    // report as the per-pair reference at every thread count.
    let sim = Simulation::new(discovery_population(257, 2, 0, 91));
    let horizon = 700;
    let baseline = sim.run_per_pair_reference_with(horizon, &EngineConfig::default());
    assert!(
        !baseline.first_meeting.is_empty(),
        "the population must meet"
    );
    for threads in [1usize, 2, 8] {
        let cfg = EngineConfig {
            parallel: ParallelConfig::with_threads(threads),
            ..EngineConfig::default()
        };
        assert_eq!(
            sim.run_engine(horizon, &cfg),
            baseline,
            "arena at {threads} threads"
        );
        assert_eq!(
            sim.run_per_pair_reference_with(horizon, &cfg),
            baseline,
            "per-pair reference at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arena_modes_match_naive_reference_at_every_thread_count(
        (n, spec) in population(),
        horizon in 600u64..1500, // off-block horizons straddle 1–3 blocks
    ) {
        let agents = build(n, &spec);
        let sim = Simulation::new(agents);
        let (expected_met, expected_missed) = reference(sim.agents(), horizon);
        for mode in [ResolveMode::Auto, ResolveMode::PairMajor, ResolveMode::BucketScan] {
            for threads in [1usize, 2, 8] {
                for plane in [PlanePolicy::Auto, PlanePolicy::Slotwise] {
                    let cfg = EngineConfig {
                        parallel: ParallelConfig::with_threads(threads),
                        mode,
                        plane,
                        faults: None,
                    };
                    let report = sim.run_engine(horizon, &cfg);
                    prop_assert_eq!(
                        report.first_meeting.as_slice(),
                        expected_met.as_slice(),
                        "meetings diverged: mode {:?}, {} threads, {:?}", mode, threads, plane
                    );
                    prop_assert_eq!(
                        &report.missed,
                        &expected_missed,
                        "missed diverged: mode {:?}, {} threads, {:?}", mode, threads, plane
                    );
                    prop_assert_eq!(report.horizon, horizon);
                }
            }
        }
    }

    #[test]
    fn auto_layout_falls_back_bit_identically_above_the_plane_budget(
        (_n, spec) in population(),
        horizon in 600u64..1500,
    ) {
        // Same population shapes, but every channel id shifted above
        // 2^PLANE_BITS_BUDGET: the auto layout must decline to pack
        // planes (rather than widen past the budget) and still match
        // both the naive reference and the forced-slotwise engine.
        let agents = build_above_plane_budget(&spec);
        let sim = Simulation::new(agents);
        let (expected_met, expected_missed) = reference(sim.agents(), horizon);
        for mode in [ResolveMode::Auto, ResolveMode::PairMajor] {
            for plane in [PlanePolicy::Auto, PlanePolicy::Slotwise] {
                for threads in [1usize, 2, 8] {
                    let cfg = EngineConfig {
                        parallel: ParallelConfig::with_threads(threads),
                        mode,
                        plane,
                        faults: None,
                    };
                    let report = sim.run_engine(horizon, &cfg);
                    prop_assert_eq!(
                        report.first_meeting.as_slice(),
                        expected_met.as_slice(),
                        "meetings diverged: mode {:?}, {} threads, {:?}", mode, threads, plane
                    );
                    prop_assert_eq!(
                        &report.missed,
                        &expected_missed,
                        "missed diverged: mode {:?}, {} threads, {:?}", mode, threads, plane
                    );
                }
            }
        }
    }

    #[test]
    fn per_pair_reference_engine_agrees_with_arena(
        (n, spec) in population(),
        horizon in 600u64..1500,
    ) {
        let agents = build(n, &spec);
        let sim = Simulation::new(agents);
        let arena = sim.run(horizon);
        for threads in [1usize, 2, 8] {
            let per_pair = sim.run_per_pair_reference(horizon, &ParallelConfig::with_threads(threads));
            prop_assert_eq!(&arena, &per_pair, "per-pair engine diverged at {} threads", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn discovery_matches_the_nested_overlap_scan(
        size_at in 0usize..DISCOVERY_SIZES.len(),
        repeated_quarters in 0u64..=4,
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // A zero-horizon run reports the whole work list as missed, in
        // pair order: exactly the discovered pairs.
        let base = if wide { (1u64 << 40) - 20 } else { 0 };
        let agents = discovery_population(DISCOVERY_SIZES[size_at], repeated_quarters, base, seed);
        let sim = Simulation::new(agents);
        let report = sim.run(0);
        prop_assert!(report.first_meeting.is_empty());
        prop_assert_eq!(
            report.missed_pairs().collect::<Vec<_>>(),
            nested_overlaps(sim.agents()),
            "size {}, {}/4 repeated, base {}", DISCOVERY_SIZES[size_at], repeated_quarters, base
        );
    }
}
