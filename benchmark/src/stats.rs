//! Order statistics over latency samples.

/// The `q`-quantile (0 < q ≤ 1) of an ascending slice by the nearest-rank
/// rule: the smallest sample that at least `q · n` samples do not exceed.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of floating-point values (mean of the two middle ones for an even
/// count). Returns 0.0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force oracle: scan the sorted vector for the first sample that
    /// covers the requested share.
    fn oracle(sorted: &[u64], q: f64) -> u64 {
        for &candidate in sorted {
            let covered = sorted.iter().filter(|&&s| s <= candidate).count();
            if covered as f64 >= q * sorted.len() as f64 {
                return candidate;
            }
        }
        *sorted.last().unwrap()
    }

    #[test]
    fn percentile_matches_the_sorted_vector_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0..500u64)).collect();
            samples.sort_unstable();
            for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(percentile(&samples, q), oracle(&samples, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[5], 0.99), 5);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 1.0), 4);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
