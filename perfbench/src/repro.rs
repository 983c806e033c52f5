//! The `repro` pipelines as a workload: one end-to-end call regenerates
//! all four artifacts, and the traced run times the sweep, render,
//! artifact-write and journal layers on their own.

use crate::host::THREADS;
use crate::trace::{Span, Tracer};
use crate::{guarded, Checks, Metric};
use blind_rendezvous::checkpoint::Journal;
use blind_rendezvous::pipelines::{self, faults, lower, sdp, table1};
use blind_rendezvous::report::{self, PipelineOutput, Tier};
use rdv_sim::{sweep_pair_grid, FaultProfile, ParallelConfig};
use std::path::{Path, PathBuf};

/// One regeneration: each pipeline's artifact stem and output.
pub type Outputs = Vec<(&'static str, PipelineOutput)>;

/// Alternating pairs of Table 1 runs, without and with a journal, that
/// `checkpoint.journal_s` is the median difference of.
const JOURNAL_PAIRS: usize = 5;

/// An artifact file name and the exact bytes `repro` would write to it.
pub type Artifacts = Vec<(String, Vec<u8>)>;

/// Runs the four pipelines at `tier`, each inside its own span.
pub fn regenerate(tier: Tier, threads: usize, tr: &mut Tracer) -> Outputs {
    let light = FaultProfile::named("light").expect("the light profile is committed");
    vec![
        (
            table1::STEM,
            tr.span("pipeline.table1", |_| table1::run(tier, threads)),
        ),
        (
            lower::STEM,
            tr.span("pipeline.lower", |_| lower::run(tier, threads)),
        ),
        (
            sdp::STEM,
            tr.span("pipeline.sdp", |_| sdp::run(tier, threads)),
        ),
        (
            faults::STEM,
            tr.span("pipeline.faults", |_| {
                faults::run(tier, threads, light, faults::Sabotage::NONE)
            }),
        ),
    ]
}

/// The artifact bytes of `outputs`, as `report::write_artifacts` renders
/// them.
pub fn artifacts(outputs: &Outputs) -> Artifacts {
    outputs
        .iter()
        .flat_map(|(stem, out)| {
            [
                (
                    format!("{stem}.json"),
                    (serde_json::to_string_pretty(&out.json) + "\n").into_bytes(),
                ),
                (format!("{stem}.md"), out.markdown.clone().into_bytes()),
            ]
        })
        .collect()
}

/// Whether a regeneration is clean (no violated bound, no failed cell)
/// and byte-identical to `expected`.
pub fn matches(outputs: &Outputs, expected: &Artifacts) -> bool {
    outputs
        .iter()
        .all(|(_, o)| o.violations.is_empty() && o.failed_cells.is_empty())
        && artifacts(outputs) == *expected
}

/// The committed smoke-tier artifacts in the current directory, or `None`
/// when any is missing.
pub fn committed_smoke() -> Option<Artifacts> {
    let stems = [table1::STEM, lower::STEM, sdp::STEM, faults::STEM];
    stems
        .iter()
        .flat_map(|stem| [format!("{stem}.json"), format!("{stem}.md")])
        .map(|name| std::fs::read(&name).ok().map(|bytes| (name, bytes)))
        .collect()
}

/// Semantic pair-slots of a Table 1 regeneration, read from its artifact
/// rows: for every sweep sample, the slots from the later wake to the
/// first meeting inclusive, or the whole horizon for a sample that missed
/// it — the sweep-side twin of the engine's pair-slot count.
pub fn table1_pair_slots(artifacts: &Artifacts) -> u64 {
    let name = format!("{}.json", table1::STEM);
    let (_, bytes) = artifacts
        .iter()
        .find(|(n, _)| *n == name)
        .expect("regenerate emits table1");
    let json = serde_json::from_str(std::str::from_utf8(bytes).expect("artifacts are UTF-8"))
        .expect("the table1 artifact parses");
    let field = |row: &serde_json::Value, key: &str| {
        row.get(key)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("table1 row without a numeric {key}"))
    };
    json.get("rows")
        .and_then(|r| r.as_array())
        .expect("the table1 artifact has rows")
        .iter()
        .map(|row| {
            let count = field(row, "count");
            let ttr_sum = (count * field(row, "mean")).round();
            (ttr_sum + count + field(row, "failures") * field(row, "horizon")) as u64
        })
        .sum()
}

/// A scratch directory inside the checkout, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Self {
        let dir = Path::new(".perfbench").join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The pipeline-layer probes of a traced run at `tier`: one traced
/// regeneration (its spans give each pipeline's time), the Table 1 grid
/// through `sweep_pair_grid` alone, writing the artifacts, and Table 1
/// with and without a fresh checkpoint journal. Every output must match
/// `expected`. Also returns notes on the spread of the journaling cost.
pub fn layer_probes(
    tier: Tier,
    expected: &Artifacts,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Vec<Metric>, Vec<String>) {
    let outputs = guarded(|| regenerate(tier, THREADS, tr));
    checks.check(
        outputs.as_ref().is_some_and(|o| matches(o, expected)),
        "probe regeneration",
    );

    let grid = guarded(|| {
        tr.span("sweep.table1_grid", |_| {
            sweep_pair_grid(
                pipelines::table1_cells(tier, THREADS),
                &ParallelConfig::with_threads(THREADS),
            )
        })
    });
    let cells = grid.as_ref().map_or(0, Vec::len);
    checks.check(
        grid.as_ref().is_some_and(|g| g.iter().all(Result::is_ok)),
        "table1 grid sweep",
    );

    let scratch = Scratch::new("probe");
    if let Some(outputs) = &outputs {
        let written = guarded(|| {
            tr.span("report.write", |_| {
                for (stem, out) in outputs {
                    report::write_artifacts(scratch.path(), stem, out);
                }
            })
        });
        let on_disk = expected.iter().all(|(name, bytes)| {
            std::fs::read(scratch.path().join(name)).ok().as_deref() == Some(bytes.as_slice())
        });
        checks.check(written.is_some() && on_disk, "written artifacts");
    }

    // Journaling cost: Table 1 with a fresh journal minus Table 1 without
    // one, over alternating pairs, so a drift of the host between the two
    // halves does not land in the difference.
    let mut journal_costs = Vec::new();
    for pair in 0..JOURNAL_PAIRS {
        let plain = guarded(|| tr.span("checkpoint.plain", |_| table1::run(tier, THREADS)));
        let journaled = guarded(|| {
            let path = scratch.path().join(format!("table1-{pair}.journal"));
            let journal = Journal::create(&path, &table1::fingerprint(tier))
                .expect("creating a journal in the scratch directory");
            tr.span("checkpoint.journaled", |_| {
                table1::run_with(tier, THREADS, Some(&journal))
            })
        });
        let json = |o: &Option<PipelineOutput>| o.as_ref().map(|o| serde_json::to_string(&o.json));
        checks.check(
            plain.is_some() && json(&plain) == json(&journaled),
            "journaled table1",
        );
        let last = |name: &str| {
            tr.spans()
                .iter()
                .rev()
                .find(|s| s.name == name)
                .map_or(f64::NAN, Span::cpu)
        };
        journal_costs.push(last("checkpoint.journaled") - last("checkpoint.plain"));
    }
    let q = crate::stats::quartiles(&journal_costs);
    let notes = vec![format!(
        "checkpoint.journal_s over {JOURNAL_PAIRS} pairs: quartiles {:.6} {:.6} {:.6} s",
        q[0], q[1], q[2]
    )];

    let st = crate::trace::self_times(tr.spans());
    let s = |name: &str| st.get(name).copied().unwrap_or(0.0);
    let metrics = vec![
        Metric::new("sweep.table1_grid_s", s("sweep.table1_grid"), "s"),
        Metric::new("sweep.cells", cells as f64, "count"),
        Metric::new("pipeline.table1_s", s("pipeline.table1"), "s"),
        Metric::new("pipeline.lower_s", s("pipeline.lower"), "s"),
        Metric::new("pipeline.sdp_s", s("pipeline.sdp"), "s"),
        Metric::new("pipeline.faults_s", s("pipeline.faults"), "s"),
        Metric::new("report.write_s", s("report.write"), "s"),
        Metric::new(
            "checkpoint.journal_s",
            crate::stats::median(&journal_costs),
            "s",
        ),
    ];
    (metrics, notes)
}
