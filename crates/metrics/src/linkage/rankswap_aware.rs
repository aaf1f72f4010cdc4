//! Rank-swapping-aware record linkage (RSRL).
//!
//! Nin, Herranz & Torra (2008) observed that rank swapping confines each
//! value within a known rank window, so an intruder can do much better than
//! generic nearest-neighbour linkage: for every attribute of a masked
//! record, the true source must hold an original value whose *rank interval*
//! intersects the window around the masked value's rank. Intersecting the
//! per-attribute candidate sets yields a (often very small) candidate pool;
//! the intruder picks uniformly, so the masked record is credited
//! `1/|candidates|` when its true source survived the intersection.
//!
//! The attacker's assumed window is a parameter (the real swap window is
//! unknown to them); we default to 5% of the records, configurable through
//! [`crate::MetricConfig::rsrl_window_fraction`].
//!
//! # Candidate counts by box sum
//!
//! Present categories of an original column occupy consecutive,
//! non-overlapping rank intervals in their total order, so the categories
//! whose interval meets a window form one run of *rank coordinates* (a
//! category's position among the present ones). The candidate pool of a
//! masked pattern is then a box in the original's joint counts over rank
//! coordinates, and [`PreparedOriginal`] keeps those counts as an
//! a-dimensional prefix-sum grid (over the same space and cap as its link
//! table): a pool costs `2^a` lookups, and the self-compatibility of a
//! record is `a` bound checks. The windows are found with the very
//! comparisons [`compatible_categories`] makes, so a `NaN` midrank admits
//! nothing and counts 0. Above [`crate::LINK_TABLE_MAX_SLOTS`] the count
//! walks the original's pattern postings instead; both are exact integers.

use cdp_dataset::{Code, PatternId, PatternIndex, SubTable};

use crate::linkage::credits_value;
use crate::prepared::{MaskedStats, PreparedOriginal};

/// The original categories of attribute `k` whose rank interval intersects
/// the window of `window` positions around `midrank`. A `NaN` midrank (a
/// category absent from the masked file, see
/// [`MaskedStats::midrank`]) is compatible with nothing: every interval
/// comparison against `NaN` is false.
pub fn compatible_categories(
    prep: &PreparedOriginal,
    k: usize,
    midrank: f64,
    window: f64,
) -> Vec<bool> {
    let lo = midrank - window;
    let hi = midrank + window;
    let starts = prep.rank_start(k);
    let counts = prep.counts(k);
    let mut ok = vec![false; prep.cats(k)];
    for (v, flag) in ok.iter_mut().enumerate() {
        if counts[v] == 0 {
            continue;
        }
        let first = starts[v] as f64;
        let last = (starts[v] + counts[v] as usize - 1) as f64;
        // original rank interval of category v intersects [lo, hi]
        *flag = first <= hi && last >= lo;
    }
    ok
}

/// Re-identification credit of masked record `i` under an assumed rank
/// window of `window` positions.
pub fn rsrl_credit(
    prep: &PreparedOriginal,
    stats: &MaskedStats,
    masked: &SubTable,
    i: usize,
    window: f64,
) -> f64 {
    let n = prep.n_rows();
    let a = prep.n_attrs();

    // Per attribute: which original categories are rank-compatible with the
    // masked value of record i.
    let compatible: Vec<Vec<bool>> = (0..a)
        .map(|k| compatible_categories(prep, k, stats.midrank(k, masked.get(i, k)), window))
        .collect();

    let mut candidates = 0usize;
    let mut self_in = false;
    'records: for j in 0..n {
        for k in 0..a {
            if !compatible[k][prep.orig().get(j, k) as usize] {
                continue 'records;
            }
        }
        candidates += 1;
        self_in |= j == i;
    }
    if self_in && candidates > 0 {
        1.0 / candidates as f64
    } else {
        0.0
    }
}

/// Credits for every masked record (all-pairs reference scan).
pub fn rsrl_credits(
    prep: &PreparedOriginal,
    stats: &MaskedStats,
    masked: &SubTable,
    window: f64,
) -> Vec<f64> {
    (0..prep.n_rows())
        .map(|i| rsrl_credit(prep, stats, masked, i, window))
        .collect()
}

/// Count the original records whose every attribute is rank-compatible,
/// via the posting lists of the original's patterns
/// ([`PreparedOriginal`] keeps them): pick the attribute whose compatible
/// posting lists are shortest (the *blocking key*), walk only those
/// postings, and check the remaining attributes per distinct pattern. The
/// count is an integer — `Σ multiplicity` over compatible patterns equals
/// the number of compatible records exactly.
fn count_candidates(prep: &PreparedOriginal, compat: &[Vec<bool>]) -> u64 {
    let mut pivot = 0usize;
    let mut best_mass = usize::MAX;
    for (k, ok) in compat.iter().enumerate() {
        let mass: usize = ok
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(v, _)| prep.postings(k, v as Code).len())
            .sum();
        if mass < best_mass {
            best_mass = mass;
            pivot = k;
        }
    }
    let idx = prep.pattern_index();
    let mut cand = 0u64;
    for (v, &ok) in compat[pivot].iter().enumerate() {
        if !ok {
            continue;
        }
        'pid: for &pid in prep.postings(pivot, v as Code) {
            let codes = idx.codes_of(pid);
            for (k, ok2) in compat.iter().enumerate() {
                if k != pivot && !ok2[codes[k] as usize] {
                    continue 'pid;
                }
            }
            cand += u64::from(idx.multiplicity(pid));
        }
    }
    cand
}

/// [`count_candidates`] for masked pattern `q`: the posting-list walk over
/// the [`compatible_categories`] of each of its values. The RSRL count
/// above [`crate::LINK_TABLE_MAX_SLOTS`], and the oracle of the rank box.
pub(super) fn count_candidates_of(
    prep: &PreparedOriginal,
    stats: &MaskedStats,
    q: &[Code],
    window: f64,
) -> u64 {
    let compat: Vec<Vec<bool>> = q
        .iter()
        .enumerate()
        .map(|(k, &x)| compatible_categories(prep, k, stats.midrank(k, x), window))
        .collect();
    count_candidates(prep, &compat)
}

/// The RSRL candidate pools of masked patterns, keyed by pattern id and
/// filled on demand. A pattern's pool is, per attribute, the run of rank
/// coordinates its window admits ([`PreparedOriginal::rank_window`]), and
/// the number of original records inside every run — a box count in the
/// preparation's rank grid, or [`count_candidates_of`] above the grid's
/// cap. Both are the same exact integer.
pub(crate) struct CandidatePools {
    a: usize,
    /// `runs[pid·a + k]`: the run of attribute `k` of pattern `pid`.
    runs: Vec<(u32, u32)>,
    /// `1/candidates` (0 for an empty pool) per pooled pattern.
    share: Vec<Option<f64>>,
}

impl CandidatePools {
    /// No pools yet, for a masked index of `n_patterns` pattern ids.
    pub(crate) fn new(prep: &PreparedOriginal, n_patterns: usize) -> Self {
        let a = prep.n_attrs();
        CandidatePools {
            a,
            runs: vec![(0, 0); n_patterns * a],
            share: vec![None; n_patterns],
        }
    }

    /// Pool masked pattern `pid` (codes `q`) under the masked file's
    /// `stats`, replacing any earlier pool. Returns its candidate count.
    pub(crate) fn pool(
        &mut self,
        prep: &PreparedOriginal,
        stats: &MaskedStats,
        pid: PatternId,
        q: &[Code],
        window: f64,
    ) -> u64 {
        let runs = &mut self.runs[pid as usize * self.a..][..self.a];
        for (k, (run, &x)) in runs.iter_mut().zip(q).enumerate() {
            *run = prep.rank_window(k, stats.midrank(k, x), window);
        }
        let candidates = prep
            .rank_box_count(runs)
            .unwrap_or_else(|| count_candidates_of(prep, stats, q, window));
        self.share[pid as usize] = Some(if candidates > 0 {
            1.0 / candidates as f64
        } else {
            0.0
        });
        candidates
    }

    /// Whether pattern `pid` has a pool.
    pub(crate) fn is_pooled(&self, pid: PatternId) -> bool {
        self.share[pid as usize].is_some()
    }

    /// Credit of a masked record carrying pattern `pid` whose original
    /// record carries original pattern `orig_pid`, or `None` when `pid` is
    /// not pooled: `1/candidates` when the original record survives every
    /// attribute's window (`a` run checks), else 0.
    #[inline]
    pub(crate) fn credit(
        &self,
        prep: &PreparedOriginal,
        pid: PatternId,
        orig_pid: PatternId,
    ) -> Option<f64> {
        let share = self.share[pid as usize]?;
        let runs = &self.runs[pid as usize * self.a..][..self.a];
        let coords = prep.pattern_rank_coords(orig_pid);
        // branch-free: whether a record survives is data-dependent, so a
        // branch per attribute (or per cell) would mispredict
        let mut self_in = true;
        for (&(lo, hi), &x) in runs.iter().zip(coords) {
            self_in &= (lo <= x) & (x < hi);
        }
        // `share` or +0.0, bit for bit (`share` is finite and ≥ 0)
        Some(share * f64::from(u8::from(self_in)))
    }
}

/// Blocked equivalent of [`rsrl_credits`]: the window runs and candidate
/// count are computed once per distinct masked pattern of `index` (which
/// must index the masked file behind `stats`), then fanned out to the
/// records.
pub fn rsrl_credits_blocked(
    prep: &PreparedOriginal,
    stats: &MaskedStats,
    index: &PatternIndex,
    window: f64,
) -> Vec<f64> {
    let mut pools = CandidatePools::new(prep, index.n_patterns());
    for (pid, q, _) in index.iter_live() {
        pools.pool(prep, stats, pid, q, window);
    }
    let original = prep.pattern_index();
    (0..prep.n_rows())
        .map(|i| {
            let credit = pools.credit(prep, index.pattern_of(i), original.pattern_of(i));
            credit.expect("live patterns are pooled")
        })
        .collect()
}

/// RSRL of a masked file, in `[0, 100]`. `window_fraction` is the intruder's
/// assumed swap window as a fraction of the record count.
pub fn rsrl(prep: &PreparedOriginal, masked: &SubTable, window_fraction: f64) -> f64 {
    let stats = MaskedStats::build(prep, masked);
    let window = (window_fraction * prep.n_rows() as f64).max(1.0);
    credits_value(&rsrl_credits(prep, &stats, masked, window))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_dataset::{Attribute, Schema};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// Random `a`-attribute table of `n` rows, category counts from `cats`
    /// (1-category attributes included), mixed kinds.
    fn random_table(
        a: usize,
        n: usize,
        cats: std::ops::RangeInclusive<usize>,
        seed: u64,
    ) -> SubTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let attrs: Vec<Attribute> = (0..a)
            .map(|i| {
                let c = rng.gen_range(cats.clone());
                if rng.gen_bool(0.5) {
                    Attribute::ordinal(format!("A{i}"), c)
                } else {
                    Attribute::nominal(format!("A{i}"), c)
                }
            })
            .collect();
        let schema = Arc::new(Schema::new(attrs).unwrap());
        // skewed draws, so nominal frequency orders and absent codes occur
        let columns: Vec<Vec<Code>> = (0..a)
            .map(|k| {
                let c = schema.attr(k).n_categories() as Code;
                (0..n)
                    .map(|_| rng.gen_range(0..c).min(rng.gen_range(0..c)))
                    .collect()
            })
            .collect();
        SubTable::new(schema, (0..a).collect(), columns).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The rank box counts exactly the records the posting-list walk
        /// counts, for arbitrary windows: `NaN` midranks, midranks off
        /// either end of the ranks, 1-category attributes, absent codes,
        /// and a `wide` input above `LINK_TABLE_MAX_SLOTS`, which has no
        /// box and pools through the walk. The runs admit exactly the
        /// categories `compatible_categories` flags, so self-compatibility
        /// agrees too.
        #[test]
        fn box_count_equals_the_posting_walk(
            a in 1usize..=4, n in 1usize..=60, seed in any::<u64>(), wide in any::<bool>()
        ) {
            let original = if wide {
                random_table(7, n, 5..=6, seed)
            } else {
                random_table(a, n, 1..=6, seed)
            };
            let prep = PreparedOriginal::new(&original);
            let a = prep.n_attrs();
            prop_assert_eq!(prep.rank_box_count(&vec![(0, 0); a]).is_none(), wide);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            for _ in 0..24 {
                let window = rng.gen_range(1.0..=n as f64 + 1.0);
                let midranks: Vec<f64> = (0..a)
                    .map(|_| {
                        if rng.gen_bool(0.15) {
                            f64::NAN
                        } else {
                            (rng.gen_range(-2.0..n as f64 + 2.0) * 2.0f64).round() / 2.0
                        }
                    })
                    .collect();
                let compat: Vec<Vec<bool>> = midranks
                    .iter()
                    .enumerate()
                    .map(|(k, &m)| compatible_categories(&prep, k, m, window))
                    .collect();
                let runs: Vec<(u32, u32)> = midranks
                    .iter()
                    .enumerate()
                    .map(|(k, &m)| prep.rank_window(k, m, window))
                    .collect();
                for (k, (flags, &(lo, hi))) in compat.iter().zip(&runs).enumerate() {
                    for (v, &flag) in flags.iter().enumerate() {
                        if prep.counts(k)[v] > 0 {
                            let x = prep.rank_coords(k)[v];
                            prop_assert_eq!(lo <= x && x < hi, flag, "attr {} cat {}", k, v);
                        }
                    }
                }
                let walked = count_candidates(&prep, &compat);
                match prep.rank_box_count(&runs) {
                    Some(boxed) => prop_assert_eq!(boxed, walked),
                    None => prop_assert!(wide),
                }
                if midranks.iter().any(|m| m.is_nan()) {
                    prop_assert_eq!(walked, 0);
                }
            }
            // through the pools, on a masked file whose absent categories
            // have NaN midranks
            let mut masked = original.clone();
            for k in 0..a {
                let c = masked.attr(k).n_categories() as Code;
                for r in 0..n {
                    if rng.gen_bool(0.4) {
                        masked.set(r, k, rng.gen_range(0..c) / 2);
                    }
                }
            }
            let stats = MaskedStats::build(&prep, &masked);
            let index = PatternIndex::build(&masked);
            let window = (0.05 * n as f64).max(1.0);
            let mut pools = CandidatePools::new(&prep, index.n_patterns());
            for (pid, q, _) in index.iter_live() {
                prop_assert_eq!(
                    pools.pool(&prep, &stats, pid, q, window),
                    count_candidates_of(&prep, &stats, q, window)
                );
            }
        }
    }

    fn prep_and_sub(n: usize) -> (PreparedOriginal, SubTable) {
        let s = DatasetKind::Housing
            .generate(&GeneratorConfig::seeded(9).with_records(n))
            .protected_subtable();
        (PreparedOriginal::new(&s), s)
    }

    #[test]
    fn identity_has_high_rsrl() {
        let (p, s) = prep_and_sub(150);
        let v = rsrl(&p, &s, 0.05);
        assert!(v > 10.0, "got {v}");
        assert!(v <= 100.0);
    }

    #[test]
    fn wider_assumed_window_weakens_the_attack() {
        let (p, s) = prep_and_sub(150);
        // more candidates per record -> lower credit
        let narrow = rsrl(&p, &s, 0.02);
        let wide = rsrl(&p, &s, 0.4);
        assert!(wide <= narrow, "narrow {narrow} vs wide {wide}");
    }

    #[test]
    fn randomization_reduces_rsrl() {
        let (p, s) = prep_and_sub(150);
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = p.cats(k) as u16;
            for r in 0..m.n_rows() {
                m.set(r, k, rng.gen_range(0..c));
            }
        }
        assert!(rsrl(&p, &m, 0.05) < rsrl(&p, &s, 0.05));
    }

    #[test]
    fn credits_are_probabilities() {
        let (p, s) = prep_and_sub(100);
        let stats = MaskedStats::build(&p, &s);
        for c in rsrl_credits(&p, &stats, &s, 5.0) {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn absent_categories_are_compatible_with_nothing() {
        // regression for the zero-count midrank bug: an absent masked
        // category used to report midrank == rank_start, so its window
        // aliased whatever category starts at that rank
        let (p, s) = prep_and_sub(100);
        let mut m = s.clone();
        // drive category 0 of attribute 0 out of the masked file
        let c0 = p.cats(0) as cdp_dataset::Code;
        for r in 0..m.n_rows() {
            if m.get(r, 0) == 0 {
                m.set(r, 0, 1 % c0);
            }
        }
        let stats = MaskedStats::build(&p, &m);
        let mid = stats.midrank(0, 0);
        assert!(mid.is_nan());
        let ok = compatible_categories(&p, 0, mid, 50.0);
        assert!(
            ok.iter().all(|&b| !b),
            "absent category must match no rank window"
        );
        // a present category still matches at least itself
        let present = compatible_categories(&p, 0, stats.midrank(0, m.get(0, 0)), 50.0);
        assert!(present.iter().any(|&b| b));
    }

    #[test]
    fn value_matches_credits() {
        let (p, s) = prep_and_sub(100);
        let stats = MaskedStats::build(&p, &s);
        let credits = rsrl_credits(&p, &stats, &s, 5.0);
        assert!((credits_value(&credits) - rsrl(&p, &s, 0.05)).abs() < 1e-9);
    }

    #[test]
    fn blocked_credits_match_all_pairs_exactly() {
        let (p, s) = prep_and_sub(120);
        let mut rng = StdRng::seed_from_u64(11);
        for window in [1.0, 4.0, 20.0] {
            let mut m = s.clone();
            for k in 0..m.n_attrs() {
                let c = p.cats(k) as u16;
                for r in 0..m.n_rows() {
                    if rng.gen_bool(0.4) {
                        m.set(r, k, rng.gen_range(0..c));
                    }
                }
            }
            let stats = MaskedStats::build(&p, &m);
            let index = PatternIndex::build(&m);
            assert_eq!(
                rsrl_credits_blocked(&p, &stats, &index, window),
                rsrl_credits(&p, &stats, &m, window)
            );
        }
    }
}
