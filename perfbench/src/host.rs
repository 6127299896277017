//! Host speed, for timings that must compare across runs.
//!
//! The host this benchmark runs on is shared: the speed of a fixed,
//! single-threaded loop was seen to change by 30% between runs a minute
//! apart and by 2× within an hour. `exec_large` and `tune_mix` are
//! CPU-bound, so their timings follow the host. Each run times a fixed
//! piece of work (hashing, map churn, allocation, sorting: the kind of
//! work the compiler and executor do) between the operations it
//! measures, and scales its timings to a host on which that work takes
//! [`REFERENCE_MS`]. The benchmark's own code does this work, so a
//! change to the program cannot move it.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Time of one [`HostClock::sample`] on the reference host.
pub const REFERENCE_MS: f64 = 4.0;

#[derive(Default)]
pub struct HostClock {
    samples_ms: Vec<f64>,
}

fn fixed_work() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..20_000u64 {
        h ^= i;
        h = h.wrapping_mul(0x0100_0000_01b3);
        map.entry(h % 4096).or_default().push(h);
    }
    let mut v: Vec<u64> = map.values().flatten().copied().collect();
    v.sort_unstable();
    let mut s = 0u64;
    for _ in 0..8 {
        for x in &v {
            s = s.wrapping_add(x >> 3) ^ (s << 1);
        }
    }
    s ^ v.len() as u64
}

impl HostClock {
    /// Time the fixed work once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        for _ in 0..3 {
            black_box(fixed_work());
        }
        self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Median time of the fixed work on this host (ms).
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// Factor that turns a time measured in this run into the time on
    /// the reference host (a rate is divided by it).
    pub fn to_reference(&self) -> f64 {
        REFERENCE_MS / self.median_ms().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_reference_over_the_median() {
        let mut c = HostClock::default();
        c.sample();
        c.sample();
        assert!(c.median_ms() > 0.0);
        assert!((c.to_reference() * c.median_ms() - REFERENCE_MS).abs() < 1e-9);
    }
}
