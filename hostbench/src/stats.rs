//! Order statistics, seed derivation and digests shared by every workload.

/// Jobs a tail percentile must leave beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)` (1-based), clamped to `1..=n`. `None` when empty.
pub fn nearest_rank(sorted: &[f64], percentile: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((percentile / 100.0) * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied()
}

/// Median by nearest rank (the lower middle value for even counts, so the
/// result is always an observed value). Sorts a copy.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// The highest percentile that leaves at least [`TAIL_BEYOND`] jobs beyond
/// it, as `(percentile, value)`: rank `n − 10` of `n` ascending values,
/// i.e. percentile `100 · (n − 10) / n`. `None` below eleven jobs.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    let rank = n.checked_sub(TAIL_BEYOND).filter(|&r| r >= 1)?;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// SplitMix64 finalizer: a bijection on `u64` with full avalanche.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of job `index` of a run with workload seed `workload_seed`.
///
/// `mix` is a bijection, so for one workload seed distinct job indices map
/// to distinct seeds: jobs of a run never share a seed.
pub fn job_seed(workload_seed: u64, index: u64) -> u64 {
    mix(mix(workload_seed).wrapping_add(index))
}

/// Seed of set-up stream `stream` (dataset `k`, ...), kept apart from the
/// job seeds by a fixed domain tag.
pub fn setup_seed(workload_seed: u64, stream: u64) -> u64 {
    job_seed(workload_seed ^ 0x5e70_9da7_a5ee_d000, stream)
}

/// FNV-1a over `text`: the digest of a simulated report's `Debug` form,
/// which prints every float with enough digits to round-trip exactly.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_leaves_ten_jobs_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, value) = tail(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, value) = tail(&hundred).unwrap();
        assert_eq!((p, value), (90.0, 90.0));
        // Exactly ten values lie beyond the reported one, and its nearest
        // rank at the reported percentile is itself.
        assert_eq!(hundred.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(nearest_rank(&hundred, p), Some(value));
        let many: Vec<f64> = (1..=337).map(f64::from).collect();
        let (p, value) = tail(&many).unwrap();
        assert_eq!((p, value), (100.0 * 327.0 / 337.0, 327.0));
    }

    #[test]
    fn job_seeds_are_deterministic_and_distinct_within_a_run() {
        for workload_seed in [0, 1, 7, u64::MAX] {
            let seeds: Vec<u64> = (0..10_000).map(|i| job_seed(workload_seed, i)).collect();
            let again: Vec<u64> = (0..10_000).map(|i| job_seed(workload_seed, i)).collect();
            assert_eq!(seeds, again);
            let distinct: BTreeSet<u64> = seeds.iter().copied().collect();
            assert_eq!(distinct.len(), seeds.len());
            assert_ne!(job_seed(workload_seed, 0), setup_seed(workload_seed, 0));
        }
        assert_ne!(job_seed(1, 0), job_seed(2, 0));
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest("1.0"), digest("1.00"));
    }
}
