//! Probabilistic record linkage (PRL), Fellegi–Sunter style.
//!
//! Each original–masked pair is summarized by its per-attribute agreement
//! pattern. The match (`m_k`) and non-match (`u_k`) agreement probabilities
//! are estimated by EM over the pattern counts (patterns are few — `2^a`
//! with `a = 3` protected attributes — so EM is cheap). A pair's match
//! weight is `Σ_k δ_k·log2(m_k/u_k) + (1−δ_k)·log2((1−m_k)/(1−u_k))`; every
//! masked record links to the original(s) with maximal weight, and the
//! measure is the tie-credited share of correct links × 100.
//!
//! Because a pair's weight is a function of its agreement pattern alone,
//! the whole measure is determined by *integer pattern data*: a
//! [`PatternCensus`] keeps one `2^a`-bin histogram per **distinct masked
//! pattern** (the agreement pattern of a pair depends only on the two
//! records' code tuples, so duplicate masked rows share a histogram), plus
//! the multiplicity-weighted global sum, and a record's credit needs only
//! its pattern's `(best weight, tie mass)` and the weight of its own
//! self-pattern (the agreement of its masked and original patterns, so
//! the evaluator keeps it per cell of [`crate::linkage`]'s joint table).
//! A histogram depends only on (masked pattern, original):
//! it is scanned from the *original* side's [`PatternIndex`] (`O(p_o·a)`)
//! the first time any assessment against that original meets the pattern,
//! and served from the preparation's link table ever after
//! ([`crate::linkage::pattern_facts`]; above the table's cap every census
//! scans). Every count is an integer identical to the `O(n²·a)` pair-scan
//! count, which is what makes the incremental evaluator exact: moving a
//! row between masked patterns shifts the census by the difference of two
//! histograms, the model refits from the summed census (identical to a
//! from-scratch fit), and the credits are recomputed from one
//! `(best, ties)` per live masked pattern plus one comparison per joint
//! cell.

use cdp_dataset::{Code, PatternId, PatternIndex, SubTable};

use crate::linkage::{credits_value, pattern_facts, tie_credit, DIST_EPS};
use crate::prepared::PreparedOriginal;

/// Fitted Fellegi–Sunter weights.
#[derive(Debug)]
pub struct PrlModel {
    /// `log2(m_k / u_k)` per attribute (contribution of an agreement).
    pub agree_weight: Vec<f64>,
    /// `log2((1−m_k)/(1−u_k))` per attribute (contribution of a
    /// disagreement).
    pub disagree_weight: Vec<f64>,
}

impl Clone for PrlModel {
    fn clone(&self) -> Self {
        PrlModel {
            agree_weight: self.agree_weight.clone(),
            disagree_weight: self.disagree_weight.clone(),
        }
    }

    /// Buffer-reusing copy for scratch evaluation states.
    fn clone_from(&mut self, src: &Self) {
        self.agree_weight.clone_from(&src.agree_weight);
        self.disagree_weight.clone_from(&src.disagree_weight);
    }
}

const P_FLOOR: f64 = 1e-6;

impl PrlModel {
    /// Fit `m`/`u` by EM on agreement-pattern counts.
    ///
    /// # Panics
    /// Panics when the file has more than 20 protected attributes (the
    /// pattern census is `2^a`; the paper protects 3).
    pub fn fit(prep: &PreparedOriginal, masked: &SubTable, em_iters: usize) -> Self {
        let a = prep.n_attrs();
        assert!(a <= 20, "pattern census needs 2^a space, a = {a}");
        let n_patterns = 1usize << a;

        // Census of agreement patterns over all pairs.
        let mut counts = vec![0u64; n_patterns];
        for i in 0..prep.n_rows() {
            for j in 0..prep.n_rows() {
                counts[pattern(prep, masked, i, j)] += 1;
            }
        }
        Self::fit_from_counts(prep, &counts, em_iters)
    }

    /// Fit `m`/`u` by EM on a precomputed agreement-pattern census
    /// (`counts[p]` = number of original–masked pairs with pattern `p`,
    /// over all `n²` pairs). Bit-identical to [`PrlModel::fit`] on the
    /// file that produced the census: the census is the EM's sufficient
    /// statistic, and the initialization depends only on the original.
    pub fn fit_from_counts(prep: &PreparedOriginal, counts: &[u64], em_iters: usize) -> Self {
        let a = prep.n_attrs();
        let mut model = PrlModel {
            agree_weight: vec![0.0; a],
            disagree_weight: vec![0.0; a],
        };
        model.refit_from_counts(prep, counts, em_iters);
        model
    }

    /// [`PrlModel::fit_from_counts`] into an existing model, recycling its
    /// weight buffers (the incremental evaluator refits on every patch).
    pub fn refit_from_counts(&mut self, prep: &PreparedOriginal, counts: &[u64], em_iters: usize) {
        let n = prep.n_rows();
        let a = prep.n_attrs();
        let n_patterns = counts.len();
        debug_assert_eq!(n_patterns, 1usize << a);
        let total = (n as f64) * (n as f64);

        // EM initialization: matches are the diagonal fraction; agreement by
        // chance initializes u. Probabilities are clamped away from {0, 1}
        // throughout: a category that always (or never) agrees would
        // otherwise drive a weight to ±∞ and poison `pair_weight`
        // tie-breaking with NaNs.
        let mut pi = 1.0 / n.max(1) as f64;
        let mut m: Vec<f64> = vec![0.9; a];
        let mut u: Vec<f64> = (0..a)
            .map(|k| prep.chance_agreement(k).clamp(P_FLOOR, 1.0 - P_FLOOR))
            .collect();

        for _ in 0..em_iters {
            // E step: responsibility of the match class per pattern
            let mut gamma = vec![0.0f64; n_patterns];
            for (p, g) in gamma.iter_mut().enumerate() {
                let mut pm = pi;
                let mut pu = 1.0 - pi;
                for k in 0..a {
                    if p >> k & 1 == 1 {
                        pm *= m[k];
                        pu *= u[k];
                    } else {
                        pm *= 1.0 - m[k];
                        pu *= 1.0 - u[k];
                    }
                }
                *g = if pm + pu > 0.0 { pm / (pm + pu) } else { 0.0 };
            }
            // M step
            let match_mass: f64 = (0..n_patterns).map(|p| counts[p] as f64 * gamma[p]).sum();
            let non_mass = total - match_mass;
            pi = (match_mass / total).clamp(P_FLOOR, 1.0 - P_FLOOR);
            for k in 0..a {
                let mut agree_match = 0.0;
                let mut agree_non = 0.0;
                for p in 0..n_patterns {
                    if p >> k & 1 == 1 {
                        agree_match += counts[p] as f64 * gamma[p];
                        agree_non += counts[p] as f64 * (1.0 - gamma[p]);
                    }
                }
                if match_mass > 0.0 {
                    m[k] = (agree_match / match_mass).clamp(P_FLOOR, 1.0 - P_FLOOR);
                }
                if non_mass > 0.0 {
                    u[k] = (agree_non / non_mass).clamp(P_FLOOR, 1.0 - P_FLOOR);
                }
            }
        }

        for k in 0..a {
            self.agree_weight[k] = (m[k] / u[k]).log2();
            self.disagree_weight[k] = ((1.0 - m[k]) / (1.0 - u[k])).log2();
        }
    }

    /// Match weight of pair `(masked i, original j)`.
    #[inline]
    pub fn pair_weight(
        &self,
        prep: &PreparedOriginal,
        masked: &SubTable,
        i: usize,
        j: usize,
    ) -> f64 {
        let mut w = 0.0;
        for k in 0..prep.n_attrs() {
            if masked.get(i, k) == prep.orig().get(j, k) {
                w += self.agree_weight[k];
            } else {
                w += self.disagree_weight[k];
            }
        }
        w
    }

    /// Total match weight of every agreement pattern, summed in attribute
    /// order so `weights[p]` is bit-identical to [`PrlModel::pair_weight`]
    /// of any pair exhibiting pattern `p`.
    pub fn pattern_weights(&self, n_attrs: usize) -> Vec<f64> {
        (0..1usize << n_attrs)
            .map(|p| {
                let mut w = 0.0;
                for k in 0..n_attrs {
                    if p >> k & 1 == 1 {
                        w += self.agree_weight[k];
                    } else {
                        w += self.disagree_weight[k];
                    }
                }
                w
            })
            .collect()
    }
}

/// The agreement histogram of masked pattern `q` against the original:
/// `hist[p]` = #original records whose agreement pattern with `q` is `p`,
/// one `O(p_o·a)` sweep of the original's pattern index.
pub(super) fn histogram_scan(prep: &PreparedOriginal, q: &[Code]) -> Vec<u32> {
    let mut hist = vec![0u32; 1usize << q.len()];
    for (_, pcodes, mult) in prep.pattern_index().iter_live() {
        let mut pat = 0usize;
        for (k, &x) in q.iter().enumerate() {
            if x == pcodes[k] {
                pat |= 1 << k;
            }
        }
        hist[pat] += mult;
    }
    hist
}

/// The agreement histogram of masked pattern `pid` of `index`: the link
/// table's slot, or `local` (a census's copies, `n_bins` per id) above the
/// table's cap.
fn histogram<'a>(
    local: &'a [u32],
    n_bins: usize,
    prep: &'a PreparedOriginal,
    index: &PatternIndex,
    pid: PatternId,
) -> &'a [u32] {
    match pattern_facts(prep, index.codes_of(pid)) {
        Some(facts) => &facts.hist,
        None => &local[pid as usize * n_bins..][..n_bins],
    }
}

#[inline]
fn pattern(prep: &PreparedOriginal, masked: &SubTable, i: usize, j: usize) -> usize {
    let mut p = 0usize;
    for k in 0..prep.n_attrs() {
        if masked.get(i, k) == prep.orig().get(j, k) {
            p |= 1 << k;
        }
    }
    p
}

/// The integer sufficient statistic of PRL: one `2^a`-bin agreement-pattern
/// histogram per **distinct masked pattern**, and the multiplicity-weighted
/// sum over all records (the EM census over the `n²` pairs).
///
/// A histogram depends only on the masked pattern and the original, so it
/// is read from the preparation's link table, shared by every state;
/// above the table's cap the census keeps its own copy, keyed by the
/// masked [`PatternIndex`]'s pattern ids (one `O(p_o·a)` sweep of the
/// original's pattern index per id). Ids never recycle, so a copy stays
/// valid across arbitrary row moves — including a pattern emptying out
/// and later reviving.
///
/// All counts are integers, so incrementally maintained instances are
/// *identical* — not merely close — to freshly built ones, which is what
/// lets the delta evaluator reproduce a full assessment bit-for-bit.
#[derive(Debug)]
pub struct PatternCensus {
    n_patterns: usize,
    /// Above the link table's cap only (empty below it):
    /// `hist[pid * n_patterns + p]` = #original records whose agreement
    /// pattern against masked pattern `pid` is `p`. Grown lazily as the
    /// masked index assigns ids.
    hist: Vec<u32>,
    /// Multiplicity-weighted sums of `hist`: the EM census over all `n²`
    /// pairs.
    census: Vec<u64>,
}

impl Clone for PatternCensus {
    fn clone(&self) -> Self {
        PatternCensus {
            n_patterns: self.n_patterns,
            hist: self.hist.clone(),
            census: self.census.clone(),
        }
    }

    /// Buffer-reusing copy for scratch evaluation states.
    fn clone_from(&mut self, src: &Self) {
        self.n_patterns = src.n_patterns;
        self.hist.clone_from(&src.hist);
        self.census.clone_from(&src.census);
    }
}

impl PatternCensus {
    /// Build the histograms of every distinct masked pattern of `index`
    /// (the masked file's pattern index) against the original —
    /// `O(p_m·2^a)` once the link table holds the patterns, plus
    /// `O(p_o·a)` per pattern it meets first; the pair scan is `O(n²·a)`.
    ///
    /// # Panics
    /// Panics when the file has more than 20 protected attributes.
    pub fn build(prep: &PreparedOriginal, index: &PatternIndex) -> Self {
        let a = prep.n_attrs();
        assert!(a <= 20, "pattern census needs 2^a space, a = {a}");
        let n_patterns = 1usize << a;
        let mut out = PatternCensus {
            n_patterns,
            hist: Vec::new(),
            census: vec![0u64; n_patterns],
        };
        out.ensure_patterns(prep, index);
        for (pid, _, mult) in index.iter_live() {
            let hist = histogram(&out.hist, n_patterns, prep, index, pid);
            for (total, &h) in out.census.iter_mut().zip(hist) {
                *total += u64::from(mult) * u64::from(h);
            }
        }
        out
    }

    /// Above the link table's cap, copy in the histogram of every masked
    /// pattern id not yet covered (ids are assigned sequentially and never
    /// recycled, so one length check suffices), each from one scan.
    fn ensure_patterns(&mut self, prep: &PreparedOriginal, index: &PatternIndex) {
        if prep.has_link_table() {
            return;
        }
        let np = self.n_patterns;
        let have = self.hist.len() / np;
        let want = index.n_patterns();
        if have >= want {
            return;
        }
        self.hist.resize(want * np, 0);
        for pid in have..want {
            let q = index.codes_of(pid as PatternId);
            self.hist[pid * np..][..np].copy_from_slice(&histogram_scan(prep, q));
        }
    }

    /// Account for one row having moved from masked pattern `old_pid` to
    /// `new_pid` (as reported by [`PatternIndex::move_row`], which must run
    /// first): the census shifts by the difference of the two histograms.
    /// `O(2^a)`, plus one `O(p_o·a)` scan when the original has never met
    /// the new pattern.
    pub fn row_moved(
        &mut self,
        prep: &PreparedOriginal,
        index: &PatternIndex,
        old_pid: PatternId,
        new_pid: PatternId,
    ) {
        if old_pid != new_pid {
            self.ensure_patterns(prep, index);
            let np = self.n_patterns;
            let old = histogram(&self.hist, np, prep, index, old_pid);
            let new = histogram(&self.hist, np, prep, index, new_pid);
            for (p, total) in self.census.iter_mut().enumerate() {
                *total -= u64::from(old[p]);
                *total += u64::from(new[p]);
            }
        }
    }

    /// Approximate heap footprint in bytes: histograms and census.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.hist.len() * std::mem::size_of::<u32>()
            + self.census.len() * std::mem::size_of::<u64>()
    }

    /// The global pattern census (the EM sufficient statistic).
    pub fn counts(&self) -> &[u64] {
        &self.census
    }

    /// `(best weight, tie mass)` of masked pattern `pid` (an id of
    /// `index`): the maximal weight over its histogram's occupied bins,
    /// and how many original records reach it.
    pub(crate) fn best_link(
        &self,
        prep: &PreparedOriginal,
        index: &PatternIndex,
        weights: &[f64],
        pid: PatternId,
    ) -> (f64, u64) {
        let row = histogram(&self.hist, self.n_patterns, prep, index, pid);
        let mut best = f64::NEG_INFINITY;
        let mut ties = 0u64;
        for (p, &c) in row.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let w = weights[p];
            if w > best + DIST_EPS {
                best = w;
                ties = u64::from(c);
            } else if (w - best).abs() <= DIST_EPS {
                ties += u64::from(c);
            }
        }
        (best, ties)
    }

    /// Re-identification credit of a masked record carrying pattern `pid`
    /// (an id of `index`) whose agreement pattern with its own original
    /// record is `self_pattern`, given the per-pattern weights of a fitted
    /// model (see [`PrlModel::pattern_weights`]).
    pub fn credit(
        &self,
        prep: &PreparedOriginal,
        index: &PatternIndex,
        weights: &[f64],
        pid: PatternId,
        self_pattern: u32,
    ) -> f64 {
        let link = self.best_link(prep, index, weights, pid);
        tie_credit(weights[self_pattern as usize], link)
    }

    /// Credits of every record of `masked` (indexed by `index`), the
    /// per-record oracle of the evaluator's per-cell credits: `(best,
    /// ties)` once per live masked pattern, then each record's
    /// self-pattern read from the two files. `O(p_m·2^a + n·a)`.
    pub fn credits(
        &self,
        model: &PrlModel,
        prep: &PreparedOriginal,
        masked: &SubTable,
        index: &PatternIndex,
    ) -> Vec<f64> {
        let a = model.agree_weight.len();
        let weights = model.pattern_weights(a);
        let mut links = vec![(f64::NEG_INFINITY, 0u64); index.n_patterns()];
        for (pid, _, _) in index.iter_live() {
            links[pid as usize] = self.best_link(prep, index, &weights, pid);
        }
        (0..prep.n_rows())
            .map(|i| {
                let self_w = weights[pattern(prep, masked, i, i)];
                tie_credit(self_w, links[index.pattern_of(i) as usize])
            })
            .collect()
    }
}

/// Re-identification credit of masked record `i` under a fitted model.
pub fn prl_credit(model: &PrlModel, prep: &PreparedOriginal, masked: &SubTable, i: usize) -> f64 {
    let n = prep.n_rows();
    let mut best = f64::NEG_INFINITY;
    let mut ties = 0usize;
    let mut self_is_best = false;
    for j in 0..n {
        let w = model.pair_weight(prep, masked, i, j);
        if w > best + DIST_EPS {
            best = w;
            ties = 1;
            self_is_best = j == i;
        } else if (w - best).abs() <= DIST_EPS {
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

/// Credits for every masked record.
pub fn prl_credits(model: &PrlModel, prep: &PreparedOriginal, masked: &SubTable) -> Vec<f64> {
    (0..prep.n_rows())
        .map(|i| prl_credit(model, prep, masked, i))
        .collect()
}

/// PRL of a masked file (fits the model, then links), in `[0, 100]`.
pub fn prl(prep: &PreparedOriginal, masked: &SubTable, em_iters: usize) -> f64 {
    let model = PrlModel::fit(prep, masked, em_iters);
    credits_value(&prl_credits(&model, prep, masked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkage::pattern_histogram;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_dataset::{Attribute, Code, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::borrow::Cow;
    use std::sync::Arc;

    fn prep_and_sub(n: usize) -> (PreparedOriginal, SubTable) {
        let s = DatasetKind::German
            .generate(&GeneratorConfig::seeded(8).with_records(n))
            .protected_subtable();
        (PreparedOriginal::new(&s), s)
    }

    #[test]
    fn identity_yields_positive_agree_weights() {
        let (p, s) = prep_and_sub(100);
        let model = PrlModel::fit(&p, &s, 15);
        for k in 0..p.n_attrs() {
            assert!(
                model.agree_weight[k] > 0.0,
                "agreement should support a match, attr {k}"
            );
            assert!(
                model.disagree_weight[k] < 0.0,
                "disagreement should oppose a match, attr {k}"
            );
        }
    }

    #[test]
    fn identity_links_most_records() {
        let (p, s) = prep_and_sub(100);
        let v = prl(&p, &s, 15);
        assert!(v > 30.0, "got {v}"); // German has few categories -> many ties
        assert!(v <= 100.0);
    }

    #[test]
    fn randomization_reduces_prl() {
        let (p, s) = prep_and_sub(100);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = p.cats(k) as u16;
            for r in 0..m.n_rows() {
                m.set(r, k, rng.gen_range(0..c));
            }
        }
        assert!(prl(&p, &m, 15) < prl(&p, &s, 15));
    }

    #[test]
    fn credits_match_value() {
        let (p, s) = prep_and_sub(70);
        let model = PrlModel::fit(&p, &s, 10);
        let credits = prl_credits(&model, &p, &s);
        assert!((credits_value(&credits) - prl(&p, &s, 10)).abs() < 1e-9);
    }

    #[test]
    fn pattern_packs_agreements() {
        let (p, s) = prep_and_sub(30);
        // self-pairs agree everywhere: pattern = 2^a - 1
        for i in 0..10 {
            assert_eq!(pattern(&p, &s, i, i), (1 << p.n_attrs()) - 1);
        }
    }

    #[test]
    fn em_is_stable_for_degenerate_identity() {
        // tiny file of identical rows: EM must not produce NaNs
        let (p, s) = prep_and_sub(12);
        let model = PrlModel::fit(&p, &s, 50);
        for k in 0..p.n_attrs() {
            assert!(model.agree_weight[k].is_finite());
            assert!(model.disagree_weight[k].is_finite());
        }
    }

    #[test]
    fn em_weights_stay_finite_for_never_and_always_agreeing_attrs() {
        // degenerate file: attr 0 agrees on every pair (u -> 1 without the
        // clamp, driving the disagreement weight to -inf), attr 1 agrees on
        // no pair (m, u -> 0 without the clamp, driving the agreement
        // weight to ±inf). The probability clamps must keep every weight —
        // and hence every pair weight the linker compares — finite.
        let schema = Arc::new(
            Schema::new(vec![Attribute::ordinal("C", 2), Attribute::ordinal("D", 4)]).unwrap(),
        );
        let n = 8usize;
        let orig = SubTable::new(
            Arc::clone(&schema),
            vec![0, 1],
            vec![vec![0; n], (0..n as Code).map(|v| v % 2).collect()],
        )
        .unwrap();
        // masked: attr 0 identical everywhere; attr 1 shifted into codes the
        // original never uses
        let masked = SubTable::new(
            schema,
            vec![0, 1],
            vec![vec![0; n], (0..n as Code).map(|v| 2 + v % 2).collect()],
        )
        .unwrap();
        let p = PreparedOriginal::new(&orig);
        let model = PrlModel::fit(&p, &masked, 50);
        for k in 0..p.n_attrs() {
            assert!(
                model.agree_weight[k].is_finite(),
                "agree weight {k} = {}",
                model.agree_weight[k]
            );
            assert!(
                model.disagree_weight[k].is_finite(),
                "disagree weight {k} = {}",
                model.disagree_weight[k]
            );
        }
        for i in 0..n {
            for j in 0..n {
                assert!(model.pair_weight(&p, &masked, i, j).is_finite());
            }
        }
        // the census-driven credits are finite probabilities, too
        let index = PatternIndex::build(&masked);
        let census = PatternCensus::build(&p, &index);
        for c in census.credits(&model, &p, &masked, &index) {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn fit_from_counts_matches_direct_fit_bit_for_bit() {
        let (p, s) = prep_and_sub(60);
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = p.cats(k) as u16;
            for r in 0..m.n_rows() {
                if rng.gen_bool(0.4) {
                    m.set(r, k, rng.gen_range(0..c));
                }
            }
        }
        let direct = PrlModel::fit(&p, &m, 15);
        let index = PatternIndex::build(&m);
        let census = PatternCensus::build(&p, &index);
        let via_census = PrlModel::fit_from_counts(&p, census.counts(), 15);
        assert_eq!(direct.agree_weight, via_census.agree_weight);
        assert_eq!(direct.disagree_weight, via_census.disagree_weight);
    }

    #[test]
    fn census_counts_match_the_pair_scan_exactly() {
        // the blocked census must reproduce the O(n²·a) pair census bin
        // for bin — this is the EM sufficient statistic
        let (p, s) = prep_and_sub(60);
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = p.cats(k) as u16;
            for r in 0..m.n_rows() {
                if rng.gen_bool(0.5) {
                    m.set(r, k, rng.gen_range(0..c));
                }
            }
        }
        let index = PatternIndex::build(&m);
        let census = PatternCensus::build(&p, &index);
        let mut pairwise = vec![0u64; 1 << p.n_attrs()];
        for i in 0..p.n_rows() {
            for j in 0..p.n_rows() {
                pairwise[pattern(&p, &m, i, j)] += 1;
            }
        }
        assert_eq!(census.counts(), &pairwise[..]);
    }

    #[test]
    fn moved_rows_match_a_fresh_census_exactly() {
        let (p, s) = prep_and_sub(50);
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = s.clone();
        let mut index = PatternIndex::build(&m);
        let mut census = PatternCensus::build(&p, &index);
        let mut buf = vec![0u16; m.n_attrs()];
        for _ in 0..20 {
            let row = rng.gen_range(0..m.n_rows());
            let k = rng.gen_range(0..m.n_attrs());
            let c = p.cats(k) as u16;
            m.set(row, k, rng.gen_range(0..c));
            m.read_row(row, &mut buf);
            let (old_pid, new_pid) = index.move_row(row, &buf);
            census.row_moved(&p, &index, old_pid, new_pid);
        }
        // the incrementally maintained census and credits are identical to
        // a from-scratch build over the final file
        let fresh_index = PatternIndex::build(&m);
        let fresh = PatternCensus::build(&p, &fresh_index);
        assert_eq!(census.counts(), fresh.counts());
        let model = PrlModel::fit_from_counts(&p, census.counts(), 15);
        assert_eq!(
            census.credits(&model, &p, &m, &index),
            fresh.credits(&model, &p, &m, &fresh_index)
        );
    }

    #[test]
    fn link_table_serves_the_histogram_scan_exactly_over_the_whole_pattern_space() {
        // every point of the product space, patterns absent from the
        // original included, first fill (cold) and slot read (warm) alike
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
                    let served = pattern_histogram(&p, q);
                    assert!(matches!(served, Cow::Borrowed(_)), "{kind:?} {pass}");
                    assert_eq!(*served, *histogram_scan(&p, q), "{kind:?} {pass} {q:?}");
                }
                assert_eq!(p.link_table_fill(), (space, space), "{kind:?} {pass}");
            }
            // a histogram sums to the record count
            for q in &patterns {
                let total: u32 = pattern_histogram(&p, q).iter().sum();
                assert_eq!(total as usize, p.n_rows());
            }
        }
    }

    #[test]
    fn per_pattern_credits_equal_the_per_record_credit_bit_for_bit() {
        let (p, s) = prep_and_sub(80);
        let mut rng = StdRng::seed_from_u64(6);
        for redraw in [0.0, 0.2, 0.6, 1.0] {
            let mut m = s.clone();
            let mut index = PatternIndex::build(&m);
            let mut census = PatternCensus::build(&p, &index);
            let mut buf = vec![0u16; m.n_attrs()];
            // moved rows leave tombstoned and revived pattern ids behind
            for r in 0..m.n_rows() {
                for k in 0..m.n_attrs() {
                    if rng.gen_bool(redraw) {
                        m.set(r, k, rng.gen_range(0..p.cats(k) as u16));
                    }
                }
                m.read_row(r, &mut buf);
                let (old_pid, new_pid) = index.move_row(r, &buf);
                census.row_moved(&p, &index, old_pid, new_pid);
            }
            let model = PrlModel::fit_from_counts(&p, census.counts(), 15);
            let weights = model.pattern_weights(p.n_attrs());
            let per_record: Vec<u64> = (0..m.n_rows())
                .map(|i| {
                    let self_pattern = pattern(&p, &m, i, i) as u32;
                    let pid = index.pattern_of(i);
                    census
                        .credit(&p, &index, &weights, pid, self_pattern)
                        .to_bits()
                })
                .collect();
            let per_pattern: Vec<u64> = census
                .credits(&model, &p, &m, &index)
                .iter()
                .map(|c| c.to_bits())
                .collect();
            assert_eq!(per_pattern, per_record, "redraw {redraw}");
        }
    }

    #[test]
    fn census_credits_match_the_pairwise_linker() {
        let (p, s) = prep_and_sub(60);
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = p.cats(k) as u16;
            for r in 0..m.n_rows() {
                if rng.gen_bool(0.3) {
                    m.set(r, k, rng.gen_range(0..c));
                }
            }
        }
        let model = PrlModel::fit(&p, &m, 15);
        let index = PatternIndex::build(&m);
        let census = PatternCensus::build(&p, &index);
        assert_eq!(
            census.credits(&model, &p, &m, &index),
            prl_credits(&model, &p, &m)
        );
    }
}
