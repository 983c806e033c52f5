//! The host and build stamp every result carries, so that results are
//! only ever compared between like hosts, and the process's peak memory.

use serde_json::Value;
use std::path::Path;

/// Worker threads every timed call uses.
pub const THREADS: usize = 2;

/// Host threads, physical cores, CPU model, commit, source digest, seed
/// and the benchmark's own thread count.
pub fn stamp(seed: u64) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let (commit, _) = blind_rendezvous::history::writer_context();
    Value::object([
        (
            "host_threads",
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("cores", Value::from(physical_cores(&cpuinfo))),
        ("cpu_model", Value::from(model)),
        ("commit", Value::from(commit)),
        ("source_digest", Value::from(source_digest())),
        ("seed", Value::from(seed)),
        ("bench_threads", Value::from(THREADS)),
    ])
}

/// Distinct `(physical id, core id)` pairs in `/proc/cpuinfo`; falls back
/// to the processor count when the file carries no topology.
fn physical_cores(cpuinfo: &str) -> usize {
    let mut cores = std::collections::BTreeSet::new();
    let mut processors = 0;
    let (mut phys, mut core) = (None, None);
    for line in cpuinfo.lines().chain(std::iter::once("")) {
        let field = |key: &str| {
            line.strip_prefix(key)
                .and_then(|r| r.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        };
        if line.starts_with("processor") {
            processors += 1;
        } else if let Some(v) = field("physical id") {
            phys = Some(v);
        } else if let Some(v) = field("core id") {
            core = Some(v);
        } else if line.trim().is_empty() {
            if let (Some(p), Some(c)) = (phys.take(), core.take()) {
                cores.insert((p, c));
            }
        }
    }
    if cores.is_empty() {
        processors
    } else {
        cores.len()
    }
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from, in sorted order: identifies the code measured when the
/// checkout carries no commit id.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "vendor",
        "perfbench",
    ] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

fn collect(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        if matches!(
            p.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock")
        ) {
            out.push(p.to_path_buf());
        }
    } else if let Ok(dir) = std::fs::read_dir(p) {
        for entry in dir.flatten() {
            let path = entry.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&path, out);
        }
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run, user and system, summed over every
/// thread it has had, including threads that have exited. Unlike wall
/// time it excludes the time a virtual machine's host stole from its
/// vCPUs, which on a shared host drifts by tens of percent over minutes.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and
    // `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Resets the peak resident set (`VmHWM`) to the current one, so the
/// next [`peak_rss_mib`] covers only what ran since. Best effort: on a
/// kernel without the reset the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
