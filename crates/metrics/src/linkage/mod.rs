//! Record-linkage disclosure-risk measures.
//!
//! All three measures simulate an intruder who holds the original file and
//! tries to link each masked record back to its source:
//!
//! * [`dbrl`] — distance-based record linkage: nearest neighbour under the
//!   mixed ordinal/nominal distance;
//! * [`prl`] — probabilistic record linkage: Fellegi–Sunter agreement
//!   weights with EM-estimated `m`/`u` probabilities;
//! * [`rsrl`] — rank-swapping-aware linkage (Nin, Herranz & Torra 2008):
//!   intersects per-attribute rank-window candidate sets.
//!
//! Each measure exposes per-record credits (`1/|ties|` when the true record
//! is among the best candidates, else 0); the measure value is the mean
//! credit × 100. A record's credit reads its own masked values and its
//! own original values and nothing else of the record, so it is a function
//! of its *joint cell* (masked pattern, original pattern). The evaluator
//! keeps one credit triple per live cell of that joint table and one cell
//! id per record (`JointCells`), sums the records' cell credits in row
//! order — the same `f64`s in the same order as the per-record credit
//! vectors of the scans here, which remain as oracles — and after a patch
//! recomputes exactly the cells that can change:
//!
//! * a DBRL credit depends only on the cell's two patterns and the
//!   original — it is fixed when the cell is created, and a touched record
//!   merely moves cells;
//! * PRL credits are a function of integer agreement-pattern histograms
//!   ([`PatternCensus`], one per distinct masked pattern) — a touched
//!   record moves the census by the difference of two histograms, the
//!   Fellegi–Sunter model refits from the summed census (identical to a
//!   from-scratch fit), and every live cell's credit is recomputed from
//!   one `(best weight, tie mass)` per live masked pattern and the cell's
//!   agreement bits, in O(p_m·2^a + cells);
//! * RSRL credits depend on the masked midranks of the cell's masked
//!   values — `MaskedStats::apply_patch` reports every midrank that moved,
//!   and the cells of patterns holding a category whose rank window
//!   changed re-credit.
//!
//! A patched evaluation is therefore bit-identical to a full one; there is
//! no frozen-weights or stale-midrank approximation left to bound.
//!
//! A histogram and a DBRL link depend only on (masked pattern, original),
//! so both live in one write-once slot of the preparation's link table;
//! an RSRL candidate count is a box count over the original's
//! rank-coordinate grid. Above [`crate::LINK_TABLE_MAX_SLOTS`] the scans
//! run per call instead; [`pattern_table_mismatches`] checks the tables
//! against those scans.

mod distance;
mod joint;
mod probabilistic;
mod rankswap_aware;

pub use distance::{dbrl, dbrl_credit, dbrl_credit_blocked, dbrl_credits, dbrl_credits_blocked};
pub use probabilistic::{prl, prl_credit, prl_credits, PatternCensus, PrlModel};
pub use rankswap_aware::{
    compatible_categories, rsrl, rsrl_credit, rsrl_credits, rsrl_credits_blocked,
};

pub(crate) use distance::{pattern_distance, pattern_link};
pub(crate) use joint::{JointCells, LinkMemo};
pub(crate) use rankswap_aware::CandidatePools;

use std::borrow::Cow;

use cdp_dataset::{Code, PatternIndex};

use crate::prepared::{MaskedStats, PatternFacts, PreparedOriginal};

/// The facts of masked pattern `q` — its DBRL link and its PRL agreement
/// histogram — from the preparation's link table, filled by the two scans
/// on the pattern's first use; `None` above
/// [`crate::LINK_TABLE_MAX_SLOTS`], where callers scan per call. A slot
/// holds the scans' own output, and a racing first fill can only store
/// that same value, so serving it changes no bit.
pub(crate) fn pattern_facts<'a>(
    prep: &'a PreparedOriginal,
    q: &[Code],
) -> Option<&'a PatternFacts> {
    let slot = prep.facts_slot(q)?;
    Some(slot.get_or_init(|| PatternFacts {
        link: distance::pattern_link_scan(prep, q),
        hist: probabilistic::histogram_scan(prep, q).into_boxed_slice(),
    }))
}

/// The PRL agreement histogram of masked pattern `q`: the table's slot, or
/// a fresh scan above the table's cap.
pub(crate) fn pattern_histogram<'a>(prep: &'a PreparedOriginal, q: &[Code]) -> Cow<'a, [u32]> {
    match pattern_facts(prep, q) {
        Some(facts) => Cow::Borrowed(&facts.hist),
        None => Cow::Owned(probabilistic::histogram_scan(prep, q)),
    }
}

/// Check the per-original pattern tables against the scans they replace,
/// on every live pattern of `index` (the masked file behind `stats`): the
/// PRL histogram served from the link table must equal a fresh scan, and
/// the RSRL candidate count from the rank box must equal the count over
/// the original's patterns (the posting-list walk). Both are exact
/// integers, so any difference is a defect. Returns the number of
/// patterns that disagree on either (0 above the table's cap, where the
/// scans run directly).
pub fn pattern_table_mismatches(
    prep: &PreparedOriginal,
    stats: &MaskedStats,
    index: &PatternIndex,
    window: f64,
) -> usize {
    let mut pools = CandidatePools::new(prep, index.n_patterns());
    index
        .iter_live()
        .filter(|&(pid, q, _)| {
            *pattern_histogram(prep, q) != *probabilistic::histogram_scan(prep, q)
                || pools.pool(prep, stats, pid, q, window)
                    != rankswap_aware::count_candidates_of(prep, stats, q, window)
        })
        .count()
}

/// Tie tolerance of every linkage comparison (distances and Fellegi–Sunter
/// weights): two scores within `DIST_EPS` of each other are considered tied,
/// and a candidate must beat the incumbent by more than `DIST_EPS` to
/// dethrone it.
///
/// One shared constant — used identically by the all-pairs scans and the
/// blocked (pattern-index) scans — is part of the bit-exactness contract
/// between the two: with the measures' score lattices (cell distances are
/// multiples of `1/(c−1)` summed over ≤ a attributes), distinct scores
/// differ by far more than `1e-12`, so "tied within eps" coincides with
/// "exactly equal" and the grouped scan order cannot change any credit.
pub(crate) const DIST_EPS: f64 = 1e-12;

/// A record's linkage credit: `1/ties` when its own score (the distance
/// or weight to its true source) ties the best score, which `ties`
/// candidate records reach, else 0.
#[inline]
pub(crate) fn tie_credit(own: f64, (best, ties): (f64, u64)) -> f64 {
    if (own - best).abs() <= DIST_EPS && ties > 0 {
        1.0 / ties as f64
    } else {
        0.0
    }
}

/// Mean per-record credit scaled to `[0, 100]`.
pub fn credits_value(credits: &[f64]) -> f64 {
    sum_value(credits.iter().sum(), credits.len())
}

/// [`credits_value`] of `n` credits summing (in row order) to `sum`.
pub(crate) fn sum_value(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};

    #[test]
    fn racing_threads_fill_one_table_with_the_scans_output() {
        // the barrier releases every thread into the same cold table at
        // once, each walking the whole pattern space in its own order
        let s = DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(5).with_records(400))
            .protected_subtable();
        let prep = PreparedOriginal::new(&s);
        let cats: Vec<usize> = (0..prep.n_attrs()).map(|k| prep.cats(k)).collect();
        let space: usize = cats.iter().product();
        let pattern = |mut code: usize| -> Vec<Code> {
            cats.iter()
                .map(|&c| {
                    let x = (code % c) as Code;
                    code /= c;
                    x
                })
                .collect()
        };
        let threads = 4;
        let start = std::sync::Barrier::new(threads);
        type Facts = (Vec<u32>, (f64, u64));
        let seen: Vec<Vec<Facts>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (prep, start, pattern) = (&prep, &start, &pattern);
                    scope.spawn(move || {
                        start.wait();
                        // thread t starts a quarter further into the space
                        (0..space)
                            .map(|i| {
                                let q = pattern((i + t * space / threads) % space);
                                (
                                    pattern_histogram(prep, &q).into_owned(),
                                    pattern_link(prep, &q),
                                )
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(prep.link_table_fill(), (space, space));
        for (t, got) in seen.iter().enumerate() {
            for (i, (hist, link)) in got.iter().enumerate() {
                let q = pattern((i + t * space / threads) % space);
                assert_eq!(*hist, probabilistic::histogram_scan(&prep, &q), "{q:?}");
                assert_eq!(*link, distance::pattern_link_scan(&prep, &q), "{q:?}");
            }
        }
    }

    #[test]
    fn credits_value_is_mean_percent() {
        assert_eq!(credits_value(&[1.0, 0.0, 1.0, 0.0]), 50.0);
        assert_eq!(credits_value(&[]), 0.0);
        assert_eq!(credits_value(&[0.5, 0.5]), 50.0);
    }
}
