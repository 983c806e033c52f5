//! The orchestrator contract for multi-level jobs. Sweep grids run as two
//! flat `pool::run_indexed` waves (plan every cell, then evaluate every
//! cell's sample chunks), and the result must be **indistinguishable**
//! from sweeping each cell on its own — for every grid shape, including
//! empty grids, grids whose cells all fail, single cells and mixed grids —
//! at every thread count. A panicking task must propagate instead of
//! deadlocking the pool. The hardened runner inverts that last clause:
//! under `run_indexed_quarantined` a panicking task is *recorded* in its
//! result slot and the rest of the grid completes; `retry_with_backoff`
//! rounds out the fault-tolerant orchestrator surface.

use blind_rendezvous::prelude::ChannelSet;
use blind_rendezvous::sim::pool::{self, ParallelConfig, TaskPanic};
use blind_rendezvous::sim::sweep::{sweep_pair_grid, sweep_pair_ttr, SweepCell};
use blind_rendezvous::sim::workload::{self, PairScenario};
use blind_rendezvous::sim::{Algorithm, SweepConfig, SweepError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A two-wave job shaped like a sweep grid: wave 1 expands each of 16
/// parents into 4 children, wave 2 runs every child of every parent as
/// one flat `run_indexed` submission. `expand_bomb` / `child_bomb` name
/// the (parent) or (parent, child) task that panics.
fn two_wave_job(expand_bomb: Option<usize>, child_bomb: Option<(u64, u64)>) -> Vec<u64> {
    let cfg = ParallelConfig::with_threads(4);
    let children: Vec<Vec<(u64, u64)>> =
        pool::run_indexed((0..16u64).collect::<Vec<_>>(), &cfg, |pi, p| {
            if Some(pi) == expand_bomb {
                panic!("expansion bomb");
            }
            (0..4u64).map(|c| (p, c)).collect()
        });
    pool::run_indexed(
        children.into_iter().flatten().collect::<Vec<_>>(),
        &cfg,
        |_, (p, c)| {
            if Some((p, c)) == child_bomb {
                panic!("child bomb");
            }
            p * 4 + c
        },
    )
}

#[test]
fn child_panic_propagates_without_deadlock() {
    assert_eq!(two_wave_job(None, None), (0..64u64).collect::<Vec<_>>());
    // First, middle and last child: wherever the panicking task sits in
    // the second wave, its siblings finish and the panic reaches the caller.
    for bomb in [(0u64, 0u64), (7, 2), (15, 3)] {
        let result = catch_unwind(AssertUnwindSafe(|| two_wave_job(None, Some(bomb))));
        assert!(
            result.is_err(),
            "the panic of child {bomb:?} must propagate to the caller"
        );
    }
}

#[test]
fn expand_panic_propagates_without_deadlock() {
    for bomb in [0usize, 11, 15] {
        let result = catch_unwind(AssertUnwindSafe(|| two_wave_job(Some(bomb), None)));
        assert!(
            result.is_err(),
            "the expansion panic of parent {bomb} must propagate to the caller"
        );
    }
}

/// The grid cells the pipeline-shaped equivalence tests submit: several
/// algorithm classes (compiled-deterministic, long-period, randomized,
/// wake-sensitive) across two universes.
fn grid_cells() -> Vec<SweepCell> {
    let cfg = SweepConfig {
        shifts: 12,
        shift_stride: 7,
        spread_over_period: true,
        seeds: 3,
        horizon_override: 0,
        threads: 1,
    };
    let mut cells = Vec::new();
    for algo in [
        Algorithm::Ours,
        Algorithm::JumpStay,
        Algorithm::Random,
        Algorithm::BeaconB,
    ] {
        for n in [12u64, 16] {
            cells.push(SweepCell {
                algorithm: algo,
                n,
                scenario: workload::adversarial_overlap_one(n, 3, 3).expect("fits"),
                cfg,
            });
        }
    }
    cells
}

/// A scenario no algorithm can sweep: the two sets share no channel.
fn disjoint() -> PairScenario {
    PairScenario {
        a: ChannelSet::new(vec![1, 2]).expect("valid"),
        b: ChannelSet::new(vec![3, 4]).expect("valid"),
    }
}

#[test]
fn empty_failed_and_single_cell_grids_match_per_cell_sweeps() {
    let good = grid_cells();
    let failing = |algorithm, scenario: PairScenario| SweepCell {
        algorithm,
        n: 8,
        scenario,
        cfg: good[0].cfg,
    };
    let oversized = PairScenario {
        a: ChannelSet::new(vec![1, 40]).expect("valid"),
        b: ChannelSet::new(vec![1, 2]).expect("valid"),
    };
    let shapes: Vec<Vec<SweepCell>> = vec![
        vec![],
        vec![
            failing(Algorithm::Ours, disjoint()),
            failing(Algorithm::Crseq, oversized.clone()),
            failing(Algorithm::Random, disjoint()),
        ],
        vec![good[2].clone()],
        vec![
            failing(Algorithm::Ours, oversized),
            good[0].clone(),
            failing(Algorithm::JumpStay, disjoint()),
            good[5].clone(),
        ],
    ];
    for cells in shapes {
        let per_cell: Vec<Result<String, SweepError>> = cells
            .iter()
            .map(|c| {
                sweep_pair_ttr(c.algorithm, c.n, &c.scenario, &c.cfg)
                    .map(|s| serde_json::to_string(&s.to_json()))
            })
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let grid: Vec<Result<String, SweepError>> =
                sweep_pair_grid(cells.clone(), &ParallelConfig::with_threads(threads))
                    .into_iter()
                    .map(|r| r.map(|s| serde_json::to_string(&s.to_json())))
                    .collect();
            assert_eq!(
                grid,
                per_cell,
                "a {}-cell grid diverged from per-cell sweeps at {threads} threads",
                cells.len()
            );
        }
    }
}

#[test]
fn grid_submission_matches_per_cell_sweeps_at_every_thread_count() {
    let cells = grid_cells();
    let per_cell: Vec<String> = cells
        .iter()
        .map(|c| {
            let sweep = sweep_pair_ttr(c.algorithm, c.n, &c.scenario, &c.cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", c.algorithm));
            serde_json::to_string(&sweep.to_json())
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let grid: Vec<String> =
            sweep_pair_grid(cells.clone(), &ParallelConfig::with_threads(threads))
                .into_iter()
                .map(|r| serde_json::to_string(&r.expect("cell sweeps").to_json()))
                .collect();
        assert_eq!(
            grid, per_cell,
            "grid diverged from per-cell sweeps at {threads} threads"
        );
    }
}

#[test]
fn one_bad_cell_does_not_poison_its_grid_neighbors() {
    let mut cells = grid_cells();
    cells.insert(
        1,
        SweepCell {
            algorithm: Algorithm::Ours,
            n: 8,
            scenario: disjoint(),
            cfg: cells[0].cfg,
        },
    );
    for threads in [1usize, 8] {
        let results = sweep_pair_grid(cells.clone(), &ParallelConfig::with_threads(threads));
        assert_eq!(results.len(), cells.len());
        assert_eq!(
            results[1].as_ref().err(),
            Some(&SweepError::DisjointSets),
            "the disjoint cell must fail typed, threads = {threads}"
        );
        for (i, r) in results.iter().enumerate() {
            if i != 1 {
                assert!(
                    r.is_ok(),
                    "cell {i} poisoned by its neighbor at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn quarantined_task_panics_are_recorded_not_propagated() {
    for threads in [1usize, 2, 8] {
        let results = pool::run_indexed_quarantined(
            (0..16u64).collect::<Vec<_>>(),
            &ParallelConfig::with_threads(threads),
            |i, v| {
                if i == 5 {
                    panic!("cell bomb {i}");
                }
                v * 2
            },
            |_, _| {},
        );
        assert_eq!(results.len(), 16, "grid truncated at {threads} threads");
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                assert_eq!(
                    r.as_ref().err(),
                    Some(&TaskPanic {
                        message: "cell bomb 5".to_string()
                    }),
                    "poisoned cell not recorded at {threads} threads"
                );
            } else {
                assert_eq!(
                    r.as_ref().ok(),
                    Some(&(i as u64 * 2)),
                    "cell {i} poisoned by its neighbor at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn retry_backoff_doubles_budgets_and_stops_on_first_ok() {
    // Budgets must follow base · 2^round, and success must short-circuit.
    let mut seen = Vec::new();
    let out = pool::retry_with_backoff(5, 3, |round, budget| {
        seen.push((round, budget));
        if round == 2 {
            Ok(budget)
        } else {
            Err("not yet")
        }
    });
    assert_eq!(out, Ok(12));
    assert_eq!(seen, vec![(0, 3), (1, 6), (2, 12)]);

    // Exhaustion returns the last error with the number of rounds used.
    let out: Result<(), _> = pool::retry_with_backoff(3, 1, |round, _| Err(round));
    assert_eq!(out, Err((2, 3)));

    // A zero base budget stays zero through every doubling — the
    // deterministic exhaustion seam the sabotaged pipeline cells rely on.
    let mut budgets = Vec::new();
    let out: Result<(), _> = pool::retry_with_backoff(4, 0, |_, budget| {
        budgets.push(budget);
        Err(())
    });
    assert_eq!(out, Err(((), 4)));
    assert_eq!(budgets, vec![0, 0, 0, 0]);
}
