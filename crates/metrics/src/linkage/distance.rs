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

/// DBRL of a masked file, in `[0, 100]` (all-pairs reference scan).
pub fn dbrl(prep: &PreparedOriginal, masked: &SubTable) -> f64 {
    credits_value(&dbrl_credits(prep, masked))
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
}
