//! The two-level adaptive sampling scheme of §3.2.
//!
//! **Level 1** (once per row-group): sample `SAMPLE_VECTORS` equidistant
//! vectors, `SAMPLE_VALUES` equidistant values from each; brute-force the full
//! (e, f) search space (253 combinations for doubles) on each sampled vector;
//! keep the `k` most frequent winners. The pooled sample also drives the
//! ALP-vs-ALP_rd scheme decision (§3.4).
//!
//! **Level 2** (once per vector, only when `k' > 1`): sample `SECOND_VALUES`
//! equidistant values from the vector, evaluate the `k'` candidates in order,
//! early-exiting after two consecutive non-improvements.

use fastlanes::VECTOR_SIZE;

use crate::encode::{decode_one, encode_one};
use crate::traits::AlpFloat;

/// Sampling parameters (§4 "Sampling Parameters"). Defaults are the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerParams {
    /// `w`: vectors per row-group (paper: 100).
    pub vectors_per_rowgroup: usize,
    /// Vectors sampled per row-group in level 1 (paper: 8).
    pub sample_vectors: usize,
    /// Values sampled per vector in level 1 (paper: 32).
    pub sample_values: usize,
    /// `k`: maximum number of candidate combinations kept (paper: 5).
    pub max_combinations: usize,
    /// `s`: values sampled per vector in level 2 (paper: 32).
    pub second_level_values: usize,
}

impl Default for SamplerParams {
    fn default() -> Self {
        Self {
            vectors_per_rowgroup: 100,
            sample_vectors: 8,
            sample_values: 32,
            max_combinations: 5,
            second_level_values: 32,
        }
    }
}

impl SamplerParams {
    /// Validates the configuration: every count must be nonzero. A zero
    /// `vectors_per_rowgroup` used to be silently clamped to 1 deep inside
    /// the compressor; zero sampling counts divide by zero in
    /// [`equidistant_indices`]. Both are now rejected up front.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let checks = [
            ("vectors_per_rowgroup", self.vectors_per_rowgroup),
            ("sample_vectors", self.sample_vectors),
            ("sample_values", self.sample_values),
            ("max_combinations", self.max_combinations),
            ("second_level_values", self.second_level_values),
        ];
        for (param, value) in checks {
            if value == 0 {
                return Err(ConfigError { param });
            }
        }
        Ok(())
    }
}

/// A sampling parameter held a value the compressor cannot honor (today:
/// zero, where a positive count is required). Returned by
/// [`SamplerParams::validate`] and surfaced through every constructor that
/// accepts custom parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the rejected parameter.
    pub param: &'static str,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid sampler configuration: `{}` must be nonzero", self.param)
    }
}

impl std::error::Error for ConfigError {}

/// An (exponent, factor) candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combination {
    /// Exponent `e`.
    pub e: u8,
    /// Factor `f <= e`.
    pub f: u8,
}

/// Estimated compressed footprint of a sample under one combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleScore {
    /// Estimated size in bits (packed integers + exception overhead).
    pub bits: usize,
    /// Number of sampled values that failed to round-trip.
    pub exceptions: usize,
}

/// Scores `sample` under `(e, f)`: estimated bits = `len * width(max-min)`
/// plus `(BITS + 16)` bits per exception — the cost model of §3.2.
pub fn score_sample<F: AlpFloat>(sample: &[F], e: u8, f: u8) -> SampleScore {
    // No score exceeds `usize::MAX`, so the bounded scorer runs to the end.
    let unreachable = SampleScore { bits: usize::MAX, exceptions: sample.len() };
    score_within(sample, e, f, usize::MAX).unwrap_or(unreachable)
}

/// Cost-model bits of one exception: the raw value plus its `u16` position.
const fn exception_bits<F: AlpFloat>() -> usize {
    F::BITS as usize + 16
}

/// [`score_sample`] that gives up as soon as the combination provably scores
/// more than `limit` bits, returning `None`.
///
/// After any prefix of the sample, `len * width_so_far + exceptions_so_far *
/// (BITS + 16)` is a lower bound on the final score: the frame width only
/// grows as values are added, and exceptions only accumulate. A combination
/// whose bound exceeds `limit` can therefore never score `<= limit`, and a
/// combination that does score `<= limit` is always scored in full.
fn score_within<F: AlpFloat>(sample: &[F], e: u8, f: u8, limit: usize) -> Option<SampleScore> {
    let mut exceptions = 0usize;
    let mut width = 0usize;
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for &n in sample {
        let d = encode_one(n, e, f);
        let dec: F = decode_one(d, e, f);
        if dec.to_bits_u64() == n.to_bits_u64() {
            min = min.min(d);
            max = max.max(d);
            width = fastlanes::bits_needed((max as u64).wrapping_sub(min as u64));
        } else {
            exceptions += 1;
        }
        if sample.len() * width + exceptions * exception_bits::<F>() > limit {
            return None;
        }
    }
    Some(SampleScore {
        bits: sample.len() * width + exceptions * exception_bits::<F>(),
        exceptions,
    })
}

/// Brute-force search over the full `(e, f)` space; ties prefer higher `e`,
/// then higher `f` (§3.2).
///
/// Each combination is scored only until its running lower bound exceeds
/// the best score so far (see [`score_within`]). Every combination that
/// could win or tie is still scored in full, so the winner and its score are
/// those of the exhaustive search.
pub fn full_search<F: AlpFloat>(sample: &[F]) -> (Combination, SampleScore) {
    let none = SampleScore { bits: usize::MAX, exceptions: usize::MAX };
    search_within(sample, usize::MAX).unwrap_or((Combination { e: 0, f: 0 }, none))
}

/// [`full_search`] restricted to combinations scoring at most `limit` bits:
/// the exhaustive search's winner when it scores `<= limit`, `None` when no
/// combination does.
fn search_within<F: AlpFloat>(sample: &[F], limit: usize) -> Option<(Combination, SampleScore)> {
    let mut best = None;
    let mut bound = limit;
    for e in 0..=F::MAX_EXPONENT {
        for f in 0..=e {
            // `e` ascends and `f` ascends within `e`, so accepting a score
            // equal to the bound makes the *later* (higher-e, then higher-f)
            // combination win ties — the paper's tie-break rule.
            if let Some(s) = score_within(sample, e, f, bound) {
                bound = s.bits;
                best = Some((Combination { e, f }, s));
            }
        }
    }
    best
}

/// Outcome of level-1 sampling for one row-group.
#[derive(Debug, Clone)]
pub struct FirstLevelOutcome {
    /// The `k' <= k` candidate combinations, most frequent first.
    pub combinations: Vec<Combination>,
    /// Estimated bits/value of the pooled sample under the top candidate.
    pub estimated_bits_per_value: f64,
    /// Fraction of pooled sample values that were exceptions.
    pub exception_fraction: f64,
}

impl FirstLevelOutcome {
    /// Whether the row-group should switch to ALP_rd (§3.4): the decimal
    /// encoding is deemed hopeless when the estimate approaches the
    /// uncompressed width or exceptions dominate.
    pub fn should_use_rd<F: AlpFloat>(&self) -> bool {
        self.estimated_bits_per_value >= F::BITS as f64 * 0.96 || self.exception_fraction > 0.35
    }
}

/// Indices of `count` samples of a `len`-element sequence: one per
/// equal-width stratum, at a deterministic hash-jittered offset.
///
/// The paper samples strictly equidistantly; a fixed stride, however, aliases
/// with periodic data (e.g. a value pattern whose period divides the stride
/// makes every sample land in the same residue class, so the search only ever
/// sees one sub-population). The jitter keeps the samples spread while
/// breaking that resonance; it is deterministic, so compression stays
/// reproducible.
pub fn equidistant_indices(len: usize, count: usize) -> Vec<usize> {
    equidistant(len, count).collect()
}

/// The allocation-free form of [`equidistant_indices`].
fn equidistant(len: usize, count: usize) -> impl Iterator<Item = usize> {
    let count = count.min(len);
    let stride = len.checked_div(count).unwrap_or(1);
    (0..count).map(move |i| {
        let jitter = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % stride;
        i * stride + jitter
    })
}

/// Copies the `count` equidistant samples of `vector` into `buf`, returning
/// the filled prefix. A vector holds at most `VECTOR_SIZE` values, so a
/// `VECTOR_SIZE` buffer fits any sample.
fn gather<'a, F: AlpFloat>(vector: &[F], count: usize, buf: &'a mut [F; VECTOR_SIZE]) -> &'a [F] {
    let mut n = 0;
    for (slot, idx) in buf.iter_mut().zip(equidistant(vector.len(), count)) {
        *slot = vector[idx];
        n += 1;
    }
    &buf[..n]
}

/// Level-1 sampling over one row-group, presented as a slice of (up to
/// `vectors_per_rowgroup * 1024`) values.
pub fn first_level<F: AlpFloat>(rowgroup: &[F], params: &SamplerParams) -> FirstLevelOutcome {
    let n_vectors = rowgroup.len().div_ceil(VECTOR_SIZE);
    let vector_ids = equidistant_indices(n_vectors, params.sample_vectors);

    let mut winners: Vec<Combination> = Vec::with_capacity(vector_ids.len());
    let mut buf = [F::from_bits_u64(0); VECTOR_SIZE];
    let mut sampled_values = 0usize;
    let mut best_bits = 0usize;
    let mut best_exceptions = 0usize;

    for &vid in &vector_ids {
        let start = vid * VECTOR_SIZE;
        let end = (start + VECTOR_SIZE).min(rowgroup.len());
        let sample = gather(&rowgroup[start..end], params.sample_values, &mut buf);
        // The previous sampled vector's winner usually scores close to
        // this one's: its score bounds the search from the start, so poor
        // combinations are dropped after a few values. The winner is the
        // exhaustive one either way (see `search_within`).
        let seeded =
            winners.last().and_then(|c| search_within(sample, score_sample(sample, c.e, c.f).bits));
        let (combo, score) = seeded.unwrap_or_else(|| full_search(sample));
        winners.push(combo);
        // The scheme decision uses what a *per-vector adaptive* encoder can
        // achieve — each sampled vector under its own best combination —
        // so mixed row-groups (e.g. zero bursts next to value bursts) are
        // not mistaken for incompressible real doubles.
        sampled_values += sample.len();
        best_bits += score.bits;
        best_exceptions += score.exceptions;
    }

    // Frequency-rank the winners; ties prefer higher e, then higher f.
    let mut counts: Vec<(Combination, usize)> = Vec::new();
    for &w in &winners {
        match counts.iter_mut().find(|(c, _)| *c == w) {
            Some((_, n)) => *n += 1,
            None => counts.push((w, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.e.cmp(&a.0.e)).then(b.0.f.cmp(&a.0.f)));
    counts.truncate(params.max_combinations);
    let combinations: Vec<Combination> = counts.into_iter().map(|(c, _)| c).collect();

    let (est_bits, exc_frac) = if sampled_values == 0 {
        (0.0, 0.0)
    } else {
        (best_bits as f64 / sampled_values as f64, best_exceptions as f64 / sampled_values as f64)
    };

    FirstLevelOutcome {
        combinations,
        estimated_bits_per_value: est_bits,
        exception_fraction: exc_frac,
    }
}

/// Counters the §4.2 "Sampling Overhead" analysis reports.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SamplerStats {
    /// Vectors encoded with the decimal (non-rd) scheme.
    pub vectors_encoded: usize,
    /// Vectors whose second-level sampling was skipped because `k' == 1`.
    pub second_level_skipped: usize,
    /// Histogram over how many candidate combinations each vector tried
    /// (index = combinations tried; index 0 unused).
    pub combinations_tried: [usize; 8],
    /// Row-groups encoded with plain ALP.
    pub rowgroups_alp: usize,
    /// Row-groups that fell back to ALP_rd.
    pub rowgroups_rd: usize,
    /// Vectors whose row-group candidates all failed locally and that were
    /// re-searched individually (see `rescue_if_poor`).
    pub rescued_vectors: usize,
}

impl SamplerStats {
    /// Folds another accumulation into `self`. Every counter is a sum, so
    /// parallel workers can accumulate per-row-group partials and merge them
    /// at the join barrier in any order without changing the totals.
    pub fn merge(&mut self, other: &SamplerStats) {
        self.vectors_encoded += other.vectors_encoded;
        self.second_level_skipped += other.second_level_skipped;
        for (mine, theirs) in self.combinations_tried.iter_mut().zip(other.combinations_tried) {
            *mine += theirs;
        }
        self.rowgroups_alp += other.rowgroups_alp;
        self.rowgroups_rd += other.rowgroups_rd;
        self.rescued_vectors += other.rescued_vectors;
    }
}

/// Level-2 sampling: picks the combination for one vector from the row-group
/// candidates, with the greedy two-strikes early exit of §3.2.
pub fn second_level<F: AlpFloat>(
    vector: &[F],
    candidates: &[Combination],
    params: &SamplerParams,
    stats: &mut SamplerStats,
) -> Combination {
    stats.vectors_encoded += 1;
    let mut buf = [F::from_bits_u64(0); VECTOR_SIZE];
    let sample = gather(vector, params.second_level_values, &mut buf);

    if candidates.len() <= 1 {
        stats.second_level_skipped += 1;
        stats.combinations_tried[1.min(candidates.len())] += 1;
        let combo = candidates.first().copied().unwrap_or(Combination { e: 0, f: 0 });
        return rescue_if_poor(sample, combo, score_sample(sample, combo.e, combo.f), stats);
    }

    let mut best = candidates[0];
    let mut best_score = score_sample(sample, best.e, best.f);
    let mut worse_streak = 0usize;
    let mut tried = 1usize;
    for &c in &candidates[1..] {
        tried += 1;
        // Only a strictly smaller score improves, so a candidate may stop
        // being scored once its lower bound reaches the best score.
        match score_within(sample, c.e, c.f, best_score.bits.saturating_sub(1)) {
            Some(s) if s.bits < best_score.bits => {
                best = c;
                best_score = s;
                worse_streak = 0;
            }
            _ => {
                worse_streak += 1;
                if worse_streak == 2 {
                    break;
                }
            }
        }
    }
    stats.combinations_tried[tried.min(7)] += 1;
    rescue_if_poor(sample, best, best_score, stats)
}

/// Robustness guard (deviation from the paper, see DESIGN.md): if the
/// row-group's candidates all fail on this particular vector — which happens
/// when the level-1 sample missed a locally different sub-population (e.g. a
/// burst of values inside a mostly-zero column) — fall back to a full search
/// on the vector's own sample. `score` is `combo`'s score on `sample`. The
/// guard only triggers on pathological vectors.
fn rescue_if_poor<F: AlpFloat>(
    sample: &[F],
    combo: Combination,
    score: SampleScore,
    stats: &mut SamplerStats,
) -> Combination {
    if score.exceptions * 4 > sample.len() {
        stats.rescued_vectors += 1;
        // Only a combination scoring strictly below `combo` replaces it
        // (`score.bits >= BITS + 16`: the sample holds an exception).
        if let Some((best, _)) = search_within(sample, score.bits - 1) {
            return best;
        }
    }
    combo
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The exhaustive search the pruned one must reproduce: every
    /// combination scored in full, ties to the later combination.
    fn full_search_unpruned<F: AlpFloat>(sample: &[F]) -> (Combination, SampleScore) {
        let mut best = Combination { e: 0, f: 0 };
        let mut best_score = SampleScore { bits: usize::MAX, exceptions: usize::MAX };
        for e in 0..=F::MAX_EXPONENT {
            for f in 0..=e {
                let s = score_sample(sample, e, f);
                if s.bits <= best_score.bits {
                    best = Combination { e, f };
                    best_score = s;
                }
            }
        }
        (best, best_score)
    }

    /// Level 2 as specified: every tried candidate and the rescue scored in
    /// full.
    fn second_level_unpruned<F: AlpFloat>(
        vector: &[F],
        candidates: &[Combination],
        params: &SamplerParams,
        stats: &mut SamplerStats,
    ) -> Combination {
        stats.vectors_encoded += 1;
        let sample: Vec<F> = equidistant_indices(vector.len(), params.second_level_values)
            .into_iter()
            .map(|i| vector[i])
            .collect();
        let best = if candidates.len() <= 1 {
            stats.second_level_skipped += 1;
            stats.combinations_tried[1.min(candidates.len())] += 1;
            candidates.first().copied().unwrap_or(Combination { e: 0, f: 0 })
        } else {
            let mut best = candidates[0];
            let mut best_bits = usize::MAX;
            let mut worse_streak = 0usize;
            let mut tried = 0usize;
            for &c in candidates {
                tried += 1;
                let s = score_sample(&sample, c.e, c.f);
                if s.bits < best_bits {
                    best = c;
                    best_bits = s.bits;
                    worse_streak = 0;
                } else {
                    worse_streak += 1;
                    if worse_streak == 2 {
                        break;
                    }
                }
            }
            stats.combinations_tried[tried.min(7)] += 1;
            best
        };
        let s = score_sample(&sample, best.e, best.f);
        if s.exceptions * 4 > sample.len() {
            stats.rescued_vectors += 1;
            let (rescue, rescue_score) = full_search_unpruned(&sample);
            if rescue_score.bits < s.bits {
                return rescue;
            }
        }
        best
    }

    /// Small integers and short decimals: many combinations tie.
    fn tie_heavy_f64() -> impl Strategy<Value = f64> {
        (0i64..4, 0u32..3).prop_map(|(d, p)| d as f64 / 10f64.powi(p as i32))
    }

    /// Arbitrary bit patterns: nearly every value is an exception.
    fn exception_f64() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    fn mixed_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            3 => tie_heavy_f64(),
            3 => (any::<i32>(), 0u32..8).prop_map(|(d, p)| d as f64 / 10f64.powi(p as i32)),
            1 => exception_f64(),
        ]
    }

    fn mixed_f32() -> impl Strategy<Value = f32> {
        prop_oneof![
            3 => (0i64..4, 0u32..3).prop_map(|(d, p)| d as f32 / 10f32.powi(p as i32)),
            3 => (any::<i16>(), 0u32..5).prop_map(|(d, p)| d as f32 / 10f32.powi(p as i32)),
            1 => any::<u32>().prop_map(f32::from_bits),
        ]
    }

    fn combination() -> impl Strategy<Value = Combination> {
        (0u8..=21, any::<u8>()).prop_map(|(e, f)| Combination { e, f: f % (e + 1) })
    }

    /// The pruned search, unseeded and seeded with any combination's score,
    /// equals the exhaustive one.
    fn assert_search_exact<F: AlpFloat>(sample: &[F], seed: Combination) {
        let exhaustive = full_search_unpruned(sample);
        assert_eq!(full_search(sample), exhaustive);
        if seed.e <= F::MAX_EXPONENT {
            let limit = score_sample(sample, seed.e, seed.f).bits;
            assert_eq!(search_within(sample, limit), Some(exhaustive));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn pruned_search_is_exact_on_tie_heavy_samples(
            sample in vec(tie_heavy_f64(), 0..40),
            seed in combination(),
        ) {
            assert_search_exact(&sample, seed);
        }

        #[test]
        fn pruned_search_is_exact_on_all_exception_samples(
            sample in vec(exception_f64(), 0..40),
            seed in combination(),
        ) {
            assert_search_exact(&sample, seed);
        }

        #[test]
        fn pruned_search_is_exact_on_mixed_samples(
            sample in vec(mixed_f64(), 0..40),
            seed in combination(),
        ) {
            assert_search_exact(&sample, seed);
        }

        #[test]
        fn pruned_search_is_exact_on_f32_samples(
            sample in vec(mixed_f32(), 0..40),
            seed in combination(),
        ) {
            assert_search_exact(&sample, seed);
        }

        #[test]
        fn second_level_matches_the_unpruned_reference(
            vector in vec(mixed_f64(), 1..1025),
            candidates in vec(combination(), 0..6),
        ) {
            let params = SamplerParams::default();
            let (mut fast, mut reference) = (SamplerStats::default(), SamplerStats::default());
            assert_eq!(
                second_level(&vector, &candidates, &params, &mut fast),
                second_level_unpruned(&vector, &candidates, &params, &mut reference)
            );
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn first_level_matches_the_unpruned_search() {
        let params = SamplerParams::default();
        for (i, d) in datagen_like_columns().iter().enumerate() {
            let outcome = first_level(d, &params);
            let n_vectors = d.len().div_ceil(VECTOR_SIZE);
            let mut winners = Vec::new();
            let (mut bits, mut exceptions, mut values) = (0usize, 0usize, 0usize);
            for vid in equidistant_indices(n_vectors, params.sample_vectors) {
                let vector = &d[vid * VECTOR_SIZE..((vid + 1) * VECTOR_SIZE).min(d.len())];
                let sample: Vec<f64> = equidistant_indices(vector.len(), params.sample_values)
                    .into_iter()
                    .map(|j| vector[j])
                    .collect();
                let (combo, score) = full_search_unpruned(&sample);
                winners.push(combo);
                bits += score.bits;
                exceptions += score.exceptions;
                values += sample.len();
            }
            assert!(outcome.combinations.iter().all(|c| winners.contains(c)), "column {i}");
            assert_eq!(outcome.estimated_bits_per_value, bits as f64 / values as f64, "column {i}");
            assert_eq!(outcome.exception_fraction, exceptions as f64 / values as f64, "column {i}");
        }
    }

    /// Columns whose sampled vectors disagree, so the seeded searches start
    /// from a poor bound as well as a good one.
    fn datagen_like_columns() -> Vec<Vec<f64>> {
        let n = 20 * VECTOR_SIZE + 300;
        vec![
            (0..n).map(|i| (i % 1000) as f64 / 100.0).collect(),
            (0..n)
                .map(|i| if (i / VECTOR_SIZE).is_multiple_of(3) { 0.0 } else { i as f64 / 7.0 })
                .collect(),
            (0..n)
                .map(|i| match (i / VECTOR_SIZE) % 4 {
                    0 => (i % 97) as f64,
                    1 => ((i as f64) + 0.1).sqrt(),
                    2 => (i as f64 * 13.0) / 1000.0,
                    _ => f64::from_bits(0x7FF8_0000_0000_0000 | i as u64),
                })
                .collect(),
        ]
    }

    fn decimals(precision: u32, count: usize) -> Vec<f64> {
        // i / 10^p — correctly rounded decimal-to-double (see DESIGN.md).
        let div = 10f64.powi(precision as i32);
        (0..count).map(|i| (i as f64 * 7.0 + 13.0) / div).collect()
    }

    #[test]
    fn sample_indices_are_strata_bounded_and_sorted() {
        for (len, count) in [(10, 3), (1024, 32), (1000, 7), (4096, 32)] {
            let idx = equidistant_indices(len, count);
            assert_eq!(idx.len(), count);
            let stride = len / count;
            for (i, &x) in idx.iter().enumerate() {
                assert!(x >= i * stride && x < (i + 1) * stride, "len {len} count {count} i {i}");
            }
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(equidistant_indices(2, 5), vec![0, 1]);
        assert_eq!(equidistant_indices(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn sample_indices_break_periodic_aliasing() {
        // With a plain stride of 32 on 1024 values, all samples share
        // index % 4; the jitter must hit several residue classes.
        let idx = equidistant_indices(1024, 32);
        let classes: std::collections::HashSet<usize> = idx.iter().map(|&i| i % 4).collect();
        assert!(classes.len() > 1, "{idx:?}");
    }

    #[test]
    fn full_search_finds_lossless_combo_for_decimals() {
        let sample = decimals(2, 32);
        let (combo, score) = full_search(&sample);
        assert_eq!(score.exceptions, 0, "combo {combo:?}");
        // Must at least neutralize 2 decimal places.
        assert!(combo.e as i32 - combo.f as i32 >= 2);
    }

    #[test]
    fn score_prefers_factor_that_shrinks_integers() {
        // Values like 123.00 (2 decimals of zeros): high factor shrinks d.
        let sample: Vec<f64> = (0..32).map(|i| (i * 100) as f64).collect();
        let with_factor = score_sample(&sample, 14, 14);
        let without_factor = score_sample(&sample, 14, 0);
        assert_eq!(with_factor.exceptions, 0);
        assert!(with_factor.bits < without_factor.bits);
    }

    #[test]
    fn first_level_converges_to_one_combo_on_uniform_data() {
        let rowgroup = decimals(3, 8 * 1024);
        let outcome = first_level(&rowgroup, &SamplerParams::default());
        assert!(!outcome.combinations.is_empty());
        assert_eq!(outcome.combinations.len(), 1, "{:?}", outcome.combinations);
        assert!(!outcome.should_use_rd::<f64>());
    }

    #[test]
    fn first_level_flags_real_doubles_for_rd() {
        // Full-precision values: essentially nothing round-trips.
        let rowgroup: Vec<f64> =
            (0..8192).map(|i| ((i as f64) + 0.1).sqrt().sin() * 1e-3).collect();
        let outcome = first_level(&rowgroup, &SamplerParams::default());
        assert!(outcome.should_use_rd::<f64>(), "{outcome:?}");
    }

    #[test]
    fn second_level_skips_when_single_candidate() {
        let mut stats = SamplerStats::default();
        let v = decimals(2, 1024);
        let combo = second_level(
            &v,
            &[Combination { e: 14, f: 12 }],
            &SamplerParams::default(),
            &mut stats,
        );
        assert_eq!(combo, Combination { e: 14, f: 12 });
        assert_eq!(stats.second_level_skipped, 1);
    }

    #[test]
    fn second_level_picks_better_candidate() {
        let mut stats = SamplerStats::default();
        let v = decimals(4, 1024); // needs >= 4 decimals of headroom
        let good = Combination { e: 14, f: 10 };
        let bad = Combination { e: 2, f: 0 }; // cannot represent 4 decimals
        let combo = second_level(&v, &[bad, good], &SamplerParams::default(), &mut stats);
        assert_eq!(combo, good);
    }

    #[test]
    fn paper_defaults() {
        let p = SamplerParams::default();
        assert_eq!(
            (
                p.vectors_per_rowgroup,
                p.sample_vectors,
                p.sample_values,
                p.max_combinations,
                p.second_level_values
            ),
            (100, 8, 32, 5, 32)
        );
    }
}
