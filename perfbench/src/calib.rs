//! Host-speed calibration of the gated times.
//!
//! On a shared host the CPU time of the same call drifts by a fifth or
//! more within minutes, because the other tenants of a physical core
//! (its SMT sibling, its caches) change how much work a CPU second buys.
//! A fixed probe, run just before and just after each timed call, sees
//! the same drift: it is throughput-bound integer work on an L2-sized
//! buffer, one copy per worker thread at once, like the engine's fill
//! and match. Each call's CPU seconds are scaled by the reference speed
//! over the probes' speed, so the gated figures read as CPU seconds on
//! the host in its reference state. The probe is the benchmark's own code
//! and calls nothing in the program, so a change to the program moves the
//! call and not the probe.

use crate::host::{cpu_seconds, THREADS};
use std::hint::black_box;

/// The probe's median CPU seconds on the host the bounds were set on
/// (2-vCPU Intel Xeon VM at 2.1 GHz): the speed every calibrated figure
/// is scaled to.
pub const PROBE_REFERENCE_S: f64 = 0.019;

/// Independent xorshift lanes, so the loop is throughput-bound, not
/// latency-bound: a latency-bound chain leaves the core's ports idle and
/// does not notice a busy SMT sibling.
const LANES: usize = 8;
const ALU_ROUNDS: u32 = 2_000_000;
/// 256 KiB of `u32` per thread, swept `SWEEP_REPS` times.
const SWEEP_WORDS: usize = 64 << 10;
const SWEEP_REPS: usize = 80;

/// The probe's buffers, one per worker thread, allocated once.
pub struct Probe {
    buffers: Vec<Vec<u32>>,
}

impl Probe {
    pub fn new() -> Self {
        let buffers = (0..THREADS)
            .map(|t| {
                (0..SWEEP_WORDS as u32)
                    .map(|i| (i ^ t as u32).wrapping_mul(0x9E37_79B1))
                    .collect()
            })
            .collect();
        Probe { buffers }
    }

    /// Process CPU seconds of one probe: every worker thread runs the
    /// fixed work at the same time.
    pub fn run(&self) -> f64 {
        let start = cpu_seconds();
        std::thread::scope(|s| {
            let (first, rest) = self.buffers.split_first().expect("at least one thread");
            let others: Vec<_> = rest.iter().map(|b| s.spawn(|| work(b))).collect();
            black_box(work(first));
            for h in others {
                black_box(h.join().expect("probe thread"));
            }
        });
        cpu_seconds() - start
    }
}

fn work(buf: &[u32]) -> u64 {
    let mut x: [u64; LANES] = black_box([1, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..ALU_ROUNDS {
        for v in &mut x {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
        }
    }
    let buf = black_box(buf);
    let mut acc = [0u64; 4];
    for _ in 0..SWEEP_REPS {
        for c in buf.chunks_exact(4) {
            acc[0] = acc[0].wrapping_add(u64::from(c[0]));
            acc[1] ^= u64::from(c[1]);
            acc[2] = acc[2].wrapping_add(u64::from(c[2]));
            acc[3] ^= u64::from(c[3]);
        }
    }
    x.iter().chain(&acc).fold(0, |a, b| a ^ b)
}

/// `cpu` seconds scaled to the reference speed by the mean of the probes
/// taken just before and just after them.
pub fn calibrated(cpu: f64, before: f64, after: f64) -> f64 {
    cpu * PROBE_REFERENCE_S * 2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_mean_probe() {
        // Probes at the reference speed leave a time unchanged.
        let r = PROBE_REFERENCE_S;
        assert!((calibrated(0.5, r, r) - 0.5).abs() < 1e-12);
        // A host running at half speed (probes twice as long) halves it.
        assert!((calibrated(0.5, 2.0 * r, 2.0 * r) - 0.25).abs() < 1e-12);
        // Before and after are averaged, not one of them taken.
        assert!((calibrated(0.6, r, 2.0 * r) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn the_probe_takes_time() {
        assert!(Probe::new().run() > 0.0);
    }
}
