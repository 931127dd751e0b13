/// Sizing policy for per-run Bloom filters.
///
/// The paper uses four hash functions and sizes the default filter for the
/// maximum number of operations in a consistency point: 32 KB for 32,000
/// operations (≈2.4 % expected false-positive rate), shrinking the filter by
/// halving when a run contains fewer records, and allowing growth up to 1 MB
/// for the Combined read store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomConfig {
    /// Number of hash functions (the paper uses 4).
    pub hashes: u32,
    /// Bits allocated per expected entry before rounding to a power of two.
    /// 32 KB for 32,000 entries ≈ 8.2 bits/entry; we use 8.
    pub bits_per_entry: u32,
    /// Lower bound on the filter size in bits (one halving step never goes
    /// below this).
    pub min_bits: usize,
    /// Upper bound on the filter size in bits (1 MB for the Combined RS).
    pub max_bits: usize,
}

impl Default for BloomConfig {
    fn default() -> Self {
        BloomConfig {
            hashes: 4,
            bits_per_entry: 8,
            min_bits: 1024,
            max_bits: 1024 * 1024 * 8, // 1 MB
        }
    }
}

impl BloomConfig {
    /// Bits to allocate for a filter expected to hold `entries` keys:
    /// `bits_per_entry * entries`, rounded up to a power of two and clamped
    /// to `[min_bits, max_bits]`.
    pub fn bits_for(&self, entries: usize) -> usize {
        let raw = (entries.max(1)).saturating_mul(self.bits_per_entry as usize);
        raw.next_power_of_two().clamp(self.min_bits, self.max_bits)
    }
}

/// A Bloom filter over `u64` keys (physical block numbers).
///
/// The filter supports the halving operation described by Broder &
/// Mitzenmacher and used by the paper to shrink filters of small runs: a
/// power-of-two filter can be compressed to half its size in linear time by
/// OR-ing its two halves, at the cost of a higher false-positive rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    hashes: u32,
    entries: usize,
}

impl BloomFilter {
    /// Creates an empty filter with exactly `num_bits` bits (rounded up to a
    /// non-zero power of two) and `hashes` hash functions.
    pub fn new(num_bits: usize, hashes: u32) -> Self {
        let num_bits = num_bits.max(64).next_power_of_two();
        BloomFilter {
            bits: vec![0u64; num_bits / 64],
            num_bits,
            hashes: hashes.max(1),
            entries: 0,
        }
    }

    /// Creates a filter sized for `entries` keys according to `config`.
    pub fn for_entries(entries: usize, config: &BloomConfig) -> Self {
        Self::new(config.bits_for(entries), config.hashes)
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of keys inserted so far.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Memory consumed by the bit array, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Number of hash functions.
    pub fn hashes(&self) -> u32 {
        self.hashes
    }

    /// The raw 64-bit words of the bit array, for persisting the filter in a
    /// consistency-point manifest.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Reconstructs a filter from words previously captured via
    /// [`words`](Self::words). `words.len()` must be a non-zero power of two
    /// (every filter this type builds satisfies that); other lengths are
    /// rounded up with zero-fill, which can only make the filter report
    /// false negatives for keys it never saw — callers validating manifests
    /// should reject such lengths upstream.
    pub fn from_parts(mut words: Vec<u64>, hashes: u32, entries: usize) -> Self {
        let len = words.len().max(1).next_power_of_two();
        words.resize(len, 0);
        BloomFilter {
            num_bits: len * 64,
            bits: words,
            hashes: hashes.max(1),
            entries,
        }
    }

    /// The `k` probe positions of `key` in a filter of `num_bits` bits. Takes
    /// the geometry by value so [`insert`](Self::insert) can set bits while
    /// iterating.
    fn positions(num_bits: usize, hashes: u32, key: u64) -> impl Iterator<Item = usize> {
        // Two independent 64-bit mixes combined with double hashing
        // (Kirsch–Mitzenmacher) give the k probe positions.
        let h1 = splitmix64(key ^ 0x9e37_79b9_7f4a_7c15);
        let h2 = splitmix64(key.rotate_left(31) ^ 0xbf58_476d_1ce4_e5b9) | 1;
        let mask = (num_bits - 1) as u64;
        (0..hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) & mask) as usize)
    }

    /// Inserts `key` into the filter.
    pub fn insert(&mut self, key: u64) {
        for pos in Self::positions(self.num_bits, self.hashes, key) {
            self.bits[pos / 64] |= 1 << (pos % 64);
        }
        self.entries += 1;
    }

    /// Returns `true` if `key` *may* have been inserted; `false` means it
    /// definitely was not.
    pub fn may_contain(&self, key: u64) -> bool {
        Self::positions(self.num_bits, self.hashes, key)
            .all(|pos| self.bits[pos / 64] & (1 << (pos % 64)) != 0)
    }

    /// Returns `true` if any key in `min..=max` may be present.
    ///
    /// For small ranges each key is probed individually; for ranges larger
    /// than `probe_limit` the filter conservatively answers `true`, since
    /// probing would cost more than simply reading the run.
    pub fn may_contain_range(&self, min: u64, max: u64, probe_limit: u64) -> bool {
        if min > max {
            return false;
        }
        // `max - min` (not +1) avoids overflow when the range spans the full
        // key space; the off-by-one only makes the answer more conservative.
        if max - min >= probe_limit {
            return true;
        }
        (min..=max).any(|k| self.may_contain(k))
    }

    /// Halves the filter size by OR-ing its upper half onto its lower half.
    ///
    /// Returns `false` (and leaves the filter unchanged) once the filter has
    /// reached 64 bits, the minimum representable size.
    pub fn halve(&mut self) -> bool {
        if self.num_bits <= 64 {
            return false;
        }
        let half_words = self.bits.len() / 2;
        for i in 0..half_words {
            let upper = self.bits[half_words + i];
            self.bits[i] |= upper;
        }
        self.bits.truncate(half_words);
        self.num_bits /= 2;
        true
    }

    /// Repeatedly halves the filter until it is no larger than
    /// `target_bits` (or cannot shrink further). Used to right-size the
    /// default filter when a run holds fewer records than the sizing assumed.
    pub fn shrink_to(&mut self, target_bits: usize) {
        while self.num_bits > target_bits.max(64) {
            if !self.halve() {
                break;
            }
        }
    }

    /// Estimated false-positive probability given the current load.
    pub fn estimated_fp_rate(&self) -> f64 {
        let k = self.hashes as f64;
        let n = self.entries as f64;
        let m = self.num_bits as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::for_entries(1000, &BloomConfig::default());
        for k in (0..1000u64).map(|i| i * 37 + 5) {
            f.insert(k);
        }
        for k in (0..1000u64).map(|i| i * 37 + 5) {
            assert!(f.may_contain(k), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let mut f = BloomFilter::for_entries(32_000, &BloomConfig::default());
        for k in 0..32_000u64 {
            f.insert(k);
        }
        let fps = (1_000_000..1_100_000u64)
            .filter(|&k| f.may_contain(k))
            .count();
        let rate = fps as f64 / 100_000.0;
        // Paper quotes ~2.4% expected; allow generous slack.
        assert!(rate < 0.06, "false positive rate too high: {rate}");
        assert!(f.estimated_fp_rate() < 0.06);
    }

    #[test]
    fn default_sizing_matches_paper() {
        let cfg = BloomConfig::default();
        // 32,000 ops -> 32 KB (= 262,144 bits) in the paper; with 8 bits per
        // entry rounded to a power of two we land on exactly 256 Kibit.
        assert_eq!(cfg.bits_for(32_000), 262_144);
        assert_eq!(
            BloomFilter::for_entries(32_000, &cfg).size_bytes(),
            32 * 1024
        );
        // Cap at 1 MB.
        assert_eq!(cfg.bits_for(10_000_000), 1024 * 1024 * 8);
    }

    #[test]
    fn halving_preserves_membership() {
        let mut f = BloomFilter::new(4096, 4);
        let keys: Vec<u64> = (0..100).map(|i| i * 13 + 1).collect();
        for &k in &keys {
            f.insert(k);
        }
        assert!(f.halve());
        assert_eq!(f.num_bits(), 2048);
        for &k in &keys {
            assert!(
                f.may_contain(k),
                "halving introduced a false negative for {k}"
            );
        }
    }

    #[test]
    fn halve_stops_at_minimum() {
        let mut f = BloomFilter::new(64, 4);
        assert!(!f.halve());
        assert_eq!(f.num_bits(), 64);
    }

    #[test]
    fn shrink_to_target() {
        let mut f = BloomFilter::new(1 << 20, 4);
        f.insert(1);
        f.shrink_to(1 << 10);
        assert_eq!(f.num_bits(), 1 << 10);
        assert!(f.may_contain(1));
    }

    #[test]
    fn range_membership() {
        let mut f = BloomFilter::new(4096, 4);
        f.insert(500);
        assert!(f.may_contain_range(490, 510, 64));
        assert!(
            f.may_contain_range(0, u64::MAX, 64),
            "huge ranges answer true"
        );
        assert!(!f.may_contain_range(10, 5, 64), "empty range answers false");
        // A range of unrelated keys is (very likely) rejected.
        let miss = f.may_contain_range(100_000, 100_003, 64);
        assert!(!miss || f.estimated_fp_rate() > 0.0);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 4);
        assert!(!f.may_contain(1));
        assert!(!f.may_contain(u64::MAX));
        assert_eq!(f.entries(), 0);
    }
}
