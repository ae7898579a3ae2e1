//! Benchmark of the Loki simulator workspace.
//!
//! Runs named workloads through the workspace's public APIs, checks that the
//! simulated outputs are correct, and reports end-to-end metrics (host time,
//! memory, and the modelled SLO, accuracy and cost) and per-layer metrics
//! (spans timed from outside the program by decorators around its layer
//! traits). See `README.md` in this directory for every metric.

pub mod check;
pub mod host;
pub mod measure;
pub mod spans;
pub mod timed;
pub mod workload;

/// splitmix64: a well-mixed 64-bit step.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulation seeds of a run at benchmark seed `seed`: `count` seeds
/// drawn from it, so the same benchmark seed always gives the same inputs.
pub fn sim_seeds(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|k| splitmix64(seed ^ splitmix64(k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_seeds_are_reproducible_and_distinct() {
        let seeds = sim_seeds(7, 8);
        assert_eq!(seeds, sim_seeds(7, 8));
        assert_ne!(seeds, sim_seeds(8, 8));
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 8);
    }
}
