//! Distance-based record linkage (DBRL).
//!
//! Domingo-Ferrer & Torra (2002): link every masked record to the original
//! record(s) at minimal distance. A masked record is re-identified when its
//! true source is among the nearest originals; ties are credited
//! fractionally (`1/|ties|`), the standard correction when the intruder
//! must pick among equally close candidates.
//!
//! # Two implementations, one result
//!
//! The `*_blocked` functions compute the same credits over the
//! [`PatternIndex`] of *distinct* patterns instead of all `n²` record
//! pairs: each distinct masked pattern is compared against each distinct
//! original pattern (a tie expands by the original pattern's multiplicity),
//! and the per-record pass only computes the record's self-distance —
//! `O(n·a + p_m·p_o·a)` against the scan's `O(n²·a)`, with `p ≤ Π_k c_k`
//! bounded by the category-combination count regardless of row count.
//!
//! **Link table.** A pattern's link `(best distance, tie mass)` depends
//! only on the pattern and the original, so [`PreparedOriginal`] keeps one
//! write-once slot per point of the masked pattern space (up to
//! [`crate::LINK_TABLE_MAX_SLOTS`]), shared by every clone of the
//! preparation; the slot also holds the pattern's PRL agreement histogram
//! (see [`crate::linkage::pattern_facts`]). Each pattern is scanned the
//! first time any assessment meets it; afterwards it is a slot read. The
//! cost of an assessment becomes `O(n·a)` plus `first-seen patterns ×
//! p_o·a`, and the scan work of a whole evolution is bounded by the
//! pattern space, not by the number of assessments. Wider spaces keep the
//! per-call scan.
//!
//! **Exactness contract.** Blocked credits are `assert_eq!`-identical to
//! the all-pairs scan (property-tested in `tests/properties.rs`). The
//! argument: per-attribute distances are multiples of `1/(c−1)` (or 0/1),
//! so two a-term distance sums are either exactly equal or separated by
//! far more than [`DIST_EPS`] — "within eps" coincides with "equal", the
//! tie set is scan-order-independent, and grouping duplicates changes
//! nothing. Both paths fold per-attribute distances in the same attribute
//! order, so even the floating-point representative of each sum is the
//! same bit pattern. A link-table slot holds the blocked scan's own output
//! for its pattern, so serving it changes no bit either; a racing first
//! fill can only store that same value.
//!
//! **Pruning.** The blocked scan abandons an original pattern as soon as a
//! lower bound on its final distance exceeds `best + DIST_EPS`. The bound
//! continues the *same left-to-right fold* with each remaining attribute
//! replaced by its minimum possible cell distance
//! ([`PreparedOriginal::min_cell_dist`]); since IEEE-754 addition of
//! non-negative terms is monotone, the bound never exceeds the true folded
//! distance, so no pattern that could enter the tie set is ever skipped.

use cdp_dataset::{Code, PatternIndex, SubTable};

use crate::linkage::{credits_value, pattern_facts, tie_credit, DIST_EPS};
use crate::prepared::PreparedOriginal;

/// Re-identification credit of masked record `i` (0, or `1/|ties|`).
pub fn dbrl_credit(prep: &PreparedOriginal, masked: &SubTable, i: usize) -> f64 {
    let n = prep.n_rows();
    let a = prep.n_attrs();
    let mut best = f64::INFINITY;
    let mut ties = 0usize;
    let mut self_is_best = false;
    for j in 0..n {
        let mut d = 0.0;
        for k in 0..a {
            d += prep.cell_distance(k, masked.get(i, k), prep.orig().get(j, k));
        }
        if d + DIST_EPS < best {
            best = d;
            ties = 1;
            self_is_best = j == i;
        } else if (d - best).abs() <= DIST_EPS {
            ties += 1;
            self_is_best |= j == i;
        }
    }
    if self_is_best {
        1.0 / ties as f64
    } else {
        0.0
    }
}

/// Credits for every masked record (all-pairs reference scan).
pub fn dbrl_credits(prep: &PreparedOriginal, masked: &SubTable) -> Vec<f64> {
    (0..prep.n_rows())
        .map(|i| dbrl_credit(prep, masked, i))
        .collect()
}

/// Distance of masked pattern `q` to original pattern `p`, folded in
/// attribute order — the same fold the all-pairs scan performs for any
/// record pair carrying the two patterns.
#[inline]
pub(crate) fn pattern_distance(prep: &PreparedOriginal, q: &[Code], p: &[Code]) -> f64 {
    let mut d = 0.0;
    for (k, (&x, &y)) in q.iter().zip(p).enumerate() {
        d += prep.cell_distance(k, x, y);
    }
    d
}

/// `(best distance, tie mass)` of masked pattern `q` against the distinct
/// original patterns, ties weighted by pattern multiplicity: served from
/// the preparation's link table (see [`crate::linkage::pattern_facts`]),
/// or scanned per call above the table's cap.
pub(crate) fn pattern_link(prep: &PreparedOriginal, q: &[Code]) -> (f64, u64) {
    pattern_facts(prep, q).map_or_else(|| pattern_link_scan(prep, q), |f| f.link)
}

/// The uncached link scan behind [`pattern_link`]. Original patterns are
/// visited in first-occurrence order and pruned with the fold-continuation
/// lower bound described in the module docs.
pub(super) fn pattern_link_scan(prep: &PreparedOriginal, q: &[Code]) -> (f64, u64) {
    let a = q.len();
    let mut best = f64::INFINITY;
    let mut ties = 0u64;
    for (_, p, mult) in prep.pattern_index().iter_live() {
        let mut d = 0.0;
        let mut pruned = false;
        for k in 0..a {
            d += prep.cell_distance(k, q[k], p[k]);
            // continue the fold with per-attribute minima: a true lower
            // bound on the final distance (monotone f64 addition)
            let mut lb = d;
            for (k2, &x) in q.iter().enumerate().skip(k + 1) {
                lb += prep.min_cell_dist(k2, x);
            }
            if lb > best + DIST_EPS {
                pruned = true;
                break;
            }
        }
        if pruned {
            continue;
        }
        if d + DIST_EPS < best {
            best = d;
            ties = u64::from(mult);
        } else if (d - best).abs() <= DIST_EPS {
            ties += u64::from(mult);
        }
    }
    (best, ties)
}

/// Blocked equivalent of [`dbrl_credit`]: compares record `i`'s pattern
/// against the distinct original patterns. `O(p_o·a)` instead of `O(n·a)`.
pub fn dbrl_credit_blocked(prep: &PreparedOriginal, masked: &SubTable, i: usize) -> f64 {
    let a = prep.n_attrs();
    let mut q = vec![0 as Code; a];
    masked.read_row(i, &mut q);
    let mut p = vec![0 as Code; a];
    prep.orig().read_row(i, &mut p);
    tie_credit(pattern_distance(prep, &q, &p), pattern_link(prep, &q))
}

/// Blocked equivalent of [`dbrl_credits`], sharing one pattern-vs-pattern
/// link per distinct masked pattern of `index` (which must index `masked`).
pub fn dbrl_credits_blocked(
    prep: &PreparedOriginal,
    masked: &SubTable,
    index: &PatternIndex,
) -> Vec<f64> {
    let a = prep.n_attrs();
    let mut link: Vec<Option<(f64, u64)>> = vec![None; index.n_patterns()];
    for (pid, q, _) in index.iter_live() {
        link[pid as usize] = Some(pattern_link(prep, q));
    }
    let (mut q, mut p) = (vec![0 as Code; a], vec![0 as Code; a]);
    (0..prep.n_rows())
        .map(|i| {
            let link = link[index.pattern_of(i) as usize].expect("live pattern");
            masked.read_row(i, &mut q);
            prep.orig().read_row(i, &mut p);
            tie_credit(pattern_distance(prep, &q, &p), link)
        })
        .collect()
}

/// Top-`k` variant (extension, the LD-kNN attack): masked record `i` is
/// considered re-identified when its true source ranks among the `k`
/// nearest originals (fewer than `k` records strictly closer).
///
/// **`k = 1` reduction:** `dbrl_topk_disclosed(i, 1)` holds iff
/// `dbrl_credit(i) > 0` — nobody strictly closer than the true source means
/// the source is in the minimal-distance tie set, which is exactly the
/// positive-credit condition (the credit merely divides by the tie count).
/// Pinned by `top1_disclosure_iff_positive_credit` below, so the blocked
/// rewrite cannot silently change top-k semantics.
pub fn dbrl_topk_disclosed(prep: &PreparedOriginal, masked: &SubTable, i: usize, k: usize) -> bool {
    let n = prep.n_rows();
    let a = prep.n_attrs();
    let mut d_self = 0.0;
    for kx in 0..a {
        d_self += prep.cell_distance(kx, masked.get(i, kx), prep.orig().get(i, kx));
    }
    let mut strictly_closer = 0usize;
    for j in 0..n {
        if j == i {
            continue;
        }
        let mut d = 0.0;
        for kx in 0..a {
            d += prep.cell_distance(kx, masked.get(i, kx), prep.orig().get(j, kx));
        }
        if d + DIST_EPS < d_self {
            strictly_closer += 1;
            if strictly_closer >= k {
                return false;
            }
        }
    }
    true
}

/// Share of records disclosed by the top-`k` attack, in `[0, 100]`
/// (all-pairs reference scan).
pub fn dbrl_topk(prep: &PreparedOriginal, masked: &SubTable, k: usize) -> f64 {
    let n = prep.n_rows();
    if n == 0 {
        return 0.0;
    }
    let hits = (0..n)
        .filter(|&i| dbrl_topk_disclosed(prep, masked, i, k.max(1)))
        .count();
    100.0 * hits as f64 / n as f64
}

/// Blocked equivalent of [`dbrl_topk`]: per distinct masked pattern, the
/// multiplicity-weighted distances to the distinct original patterns are
/// sorted once; each record then answers "how many originals are strictly
/// closer than my source" with one binary search.
///
/// The strictly-closer count needs no self-exclusion: original record `i`
/// contributes distance `d_self` itself, and `d_self + DIST_EPS < d_self`
/// is never true — identical to the reference scan's `j != i` skip.
pub fn dbrl_topk_blocked(
    prep: &PreparedOriginal,
    masked: &SubTable,
    index: &PatternIndex,
    k: usize,
) -> f64 {
    let n = prep.n_rows();
    if n == 0 {
        return 0.0;
    }
    let k = k.max(1);
    let a = prep.n_attrs();
    // per masked pattern: distances to original patterns, sorted, with
    // cumulative multiplicity
    let mut table: Vec<Option<(Vec<f64>, Vec<u64>)>> = vec![None; index.n_patterns()];
    for (pid, q, _) in index.iter_live() {
        let mut dists: Vec<(f64, u64)> = prep
            .pattern_index()
            .iter_live()
            .map(|(_, p, mult)| (pattern_distance(prep, q, p), u64::from(mult)))
            .collect();
        dists.sort_by(|x, y| x.0.total_cmp(&y.0));
        let ds: Vec<f64> = dists.iter().map(|&(d, _)| d).collect();
        let mut cum = Vec::with_capacity(ds.len());
        let mut acc = 0u64;
        for &(_, m) in &dists {
            acc += m;
            cum.push(acc);
        }
        table[pid as usize] = Some((ds, cum));
    }
    let (mut q, mut p) = (vec![0 as Code; a], vec![0 as Code; a]);
    let hits = (0..n)
        .filter(|&i| {
            let (ds, cum) = table[index.pattern_of(i) as usize]
                .as_ref()
                .expect("live pattern");
            masked.read_row(i, &mut q);
            prep.orig().read_row(i, &mut p);
            let d_self = pattern_distance(prep, &q, &p);
            // originals with d + eps < d_self form a sorted prefix
            let cut = ds.partition_point(|&d| d + DIST_EPS < d_self);
            let strictly_closer = if cut == 0 { 0 } else { cum[cut - 1] };
            (strictly_closer as usize) < k
        })
        .count();
    100.0 * hits as f64 / n as f64
}

/// DBRL of a masked file, in `[0, 100]` (all-pairs reference scan).
pub fn dbrl(prep: &PreparedOriginal, masked: &SubTable) -> f64 {
    credits_value(&dbrl_credits(prep, masked))
}

/// DBRL of a masked file via the blocked scan (builds a pattern index of
/// the masked file internally; callers with one at hand should prefer
/// [`dbrl_credits_blocked`]).
pub fn dbrl_blocked(prep: &PreparedOriginal, masked: &SubTable) -> f64 {
    let index = PatternIndex::build(masked);
    credits_value(&dbrl_credits_blocked(prep, masked, &index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn prep_and_sub(n: usize) -> (PreparedOriginal, SubTable) {
        let s = DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(7).with_records(n))
            .protected_subtable();
        (PreparedOriginal::new(&s), s)
    }

    fn scrambled(prep: &PreparedOriginal, s: &SubTable, p_redraw: f64, seed: u64) -> SubTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = prep.cats(k) as u16;
            for r in 0..m.n_rows() {
                if rng.gen_bool(p_redraw) {
                    m.set(r, k, rng.gen_range(0..c));
                }
            }
        }
        m
    }

    #[test]
    fn identity_links_almost_everything() {
        let (p, s) = prep_and_sub(150);
        let v = dbrl(&p, &s);
        // every record is its own nearest neighbour (ties with duplicates)
        assert!(v > 50.0, "got {v}");
        assert!(v <= 100.0);
    }

    #[test]
    fn heavy_randomization_breaks_links() {
        let (p, s) = prep_and_sub(150);
        let m = scrambled(&p, &s, 1.0, 1);
        let masked = dbrl(&p, &m);
        let clear = dbrl(&p, &s);
        assert!(masked < clear / 2.0, "masked {masked} vs clear {clear}");
    }

    #[test]
    fn duplicate_records_share_credit() {
        // two identical originals: a masked copy of either links with 1/2
        let (_p, s) = prep_and_sub(60);
        let mut dup = s.clone();
        for k in 0..dup.n_attrs() {
            let v = dup.get(0, k);
            dup.set(1, k, v);
        }
        let p2 = PreparedOriginal::new(&dup);
        let credit = dbrl_credit(&p2, &dup, 0);
        assert!(credit <= 0.5 + DIST_EPS);
        assert!(credit > 0.0);
    }

    #[test]
    fn per_record_credits_sum_to_value() {
        let (p, s) = prep_and_sub(80);
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = s.clone();
        for r in 0..m.n_rows() {
            if rng.gen_bool(0.4) {
                m.set(r, 0, rng.gen_range(0..16));
            }
        }
        let credits = dbrl_credits(&p, &m);
        let direct = dbrl(&p, &m);
        assert!((credits_value(&credits) - direct).abs() < 1e-12);
    }

    #[test]
    fn topk_widens_with_k() {
        let (p, s) = prep_and_sub(120);
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = s.clone();
        for r in 0..m.n_rows() {
            if rng.gen_bool(0.6) {
                m.set(r, 0, rng.gen_range(0..16));
            }
        }
        let k1 = dbrl_topk(&p, &m, 1);
        let k5 = dbrl_topk(&p, &m, 5);
        let k50 = dbrl_topk(&p, &m, 50);
        assert!(k1 <= k5 && k5 <= k50, "{k1} <= {k5} <= {k50} violated");
        assert!((0.0..=100.0).contains(&k50));
    }

    #[test]
    fn topk_identity_discloses_everything() {
        let (p, s) = prep_and_sub(80);
        // with k >= 1 every identity record has no one strictly closer
        assert_eq!(dbrl_topk(&p, &s, 1), 100.0);
    }

    #[test]
    fn top1_disclosure_iff_positive_credit() {
        // the k = 1 reduction stated in the dbrl_topk_disclosed docs:
        // disclosed at k = 1  <=>  the source is in the minimal tie set
        // <=>  dbrl_credit > 0
        let (p, s) = prep_and_sub(120);
        for seed in 0..3u64 {
            let m = scrambled(&p, &s, 0.5, 10 + seed);
            for i in 0..m.n_rows() {
                assert_eq!(
                    dbrl_topk_disclosed(&p, &m, i, 1),
                    dbrl_credit(&p, &m, i) > 0.0,
                    "record {i}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn credit_is_record_local() {
        // changing record 5 must not change record 9's credit
        let (p, s) = prep_and_sub(80);
        let before = dbrl_credit(&p, &s, 9);
        let mut m = s.clone();
        m.set(5, 0, (m.get(5, 0) + 4) % 16);
        let after = dbrl_credit(&p, &m, 9);
        assert_eq!(before, after);
    }

    #[test]
    fn blocked_credits_match_all_pairs_exactly() {
        let (p, s) = prep_and_sub(140);
        for seed in 0..4u64 {
            let m = scrambled(&p, &s, 0.4, 20 + seed);
            let index = PatternIndex::build(&m);
            assert_eq!(dbrl_credits_blocked(&p, &m, &index), dbrl_credits(&p, &m));
        }
    }

    #[test]
    fn blocked_single_credit_matches_all_pairs_exactly() {
        let (p, s) = prep_and_sub(90);
        let m = scrambled(&p, &s, 0.5, 33);
        for i in 0..m.n_rows() {
            assert_eq!(dbrl_credit_blocked(&p, &m, i), dbrl_credit(&p, &m, i));
        }
    }

    #[test]
    fn blocked_topk_matches_all_pairs_exactly() {
        let (p, s) = prep_and_sub(130);
        for seed in 0..3u64 {
            let m = scrambled(&p, &s, 0.4, 40 + seed);
            let index = PatternIndex::build(&m);
            for k in [1, 3, 10, 100] {
                assert_eq!(dbrl_topk_blocked(&p, &m, &index, k), dbrl_topk(&p, &m, k));
            }
        }
    }

    #[test]
    fn link_table_serves_the_scan_exactly_over_the_whole_pattern_space() {
        // fast-path parity: every point of the product space, patterns
        // absent from the original included, first fill (cold) and slot
        // read (warm) alike
        for kind in [DatasetKind::Adult, DatasetKind::German] {
            let s = kind
                .generate(&GeneratorConfig::seeded(7).with_records(300))
                .protected_subtable();
            let p = PreparedOriginal::new(&s);
            let cats: Vec<usize> = (0..p.n_attrs()).map(|k| p.cats(k)).collect();
            let space: usize = cats.iter().product();
            assert!(
                p.pattern_index().n_patterns() < space,
                "{kind:?}: absent codes"
            );
            assert_eq!(p.link_table_fill(), (space, 0), "{kind:?} starts empty");
            let patterns: Vec<Vec<Code>> = (0..space)
                .map(|mut code| {
                    cats.iter()
                        .map(|&c| {
                            let x = (code % c) as Code;
                            code /= c;
                            x
                        })
                        .collect()
                })
                .collect();
            for pass in ["cold", "warm"] {
                for q in &patterns {
                    assert_eq!(
                        pattern_link(&p, q),
                        pattern_link_scan(&p, q),
                        "{kind:?} {pass} {q:?}"
                    );
                }
                assert_eq!(p.link_table_fill(), (space, space), "{kind:?} {pass}");
            }
            // clones share the table: a fresh clone sees every fill
            assert_eq!(p.clone().link_table_fill(), (space, space));
        }
    }

    #[test]
    fn blocked_value_matches_scan_value() {
        let (p, s) = prep_and_sub(110);
        let m = scrambled(&p, &s, 0.6, 55);
        assert_eq!(dbrl_blocked(&p, &m), dbrl(&p, &m));
    }
}
