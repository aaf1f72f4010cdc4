//! Categorical microaggregation (Torra 2004).
//!
//! Records are partitioned into groups of at least `k` similar records and
//! every value is replaced by a group aggregate — the **median** category
//! (under the attribute's total order) or the **mode**. A protected file is
//! then k-anonymous *within each aggregated attribute group*, trading
//! information loss against disclosure risk as `k` grows.
//!
//! Three grouping strategies are provided, crossed with the two aggregates
//! they yield the six microaggregation variants the population sweeps use:
//!
//! * [`Grouping::Univariate`] — each attribute is sorted and partitioned
//!   independently (minimal information loss, weaker protection);
//! * [`Grouping::Multivariate`] — records are ordered by their mean
//!   normalized rank across *all* protected attributes and partitioned once
//!   (the categorical analogue of single-axis projection microaggregation);
//! * [`Grouping::Bivariate`] — attributes are processed in consecutive
//!   pairs (the remainder univariately), a middle ground.
//!
//! # Bucket order
//!
//! Each grouping orders the records by a score — the mean normalized rank
//! of the record's values over the grouped attributes — with ties broken
//! by record index. The score depends only on the record's *pattern*, so it
//! is computed once per distinct pattern (a [`PatternIndex`] over the
//! original), the pattern scores are sorted, and every distinct score value
//! gets one dense rank. Records are then counting-sorted by rank, keeping
//! record order inside a rank.
//!
//! Buckets are keyed by the score *value*, not by the pattern: two
//! different patterns whose scores are equal (in the multivariate and
//! bivariate groupings, `(0, 2)` and `(1, 1)` over two 3-category ordinal
//! attributes, say) share one bucket, so their records interleave by
//! record index exactly as a comparison sort on `(score, index)` would
//! order them.

use cdp_dataset::{Code, PatternId, PatternIndex, SubTable};
use rand::RngCore;

use crate::method::{MethodContext, MethodFamily, ProtectionMethod};
use crate::order::{bucket_order, category_order_keys, median_by_keys, mode};
use crate::{Result, SdcError};

/// How records are grouped before aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grouping {
    /// Sort and partition each attribute independently.
    Univariate,
    /// One partition driven by the mean normalized rank over all attributes.
    Multivariate,
    /// Partition attribute pairs jointly, remainder univariately.
    Bivariate,
}

/// Which group representative replaces the members' values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Median category under the attribute's total order (Torra's
    /// median-based approach; frequency order for nominal attributes).
    Median,
    /// Modal (most frequent) category of the group.
    Mode,
}

/// A grouping × aggregate combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroVariant {
    /// Grouping strategy.
    pub grouping: Grouping,
    /// Group representative.
    pub aggregate: Aggregate,
}

impl MicroVariant {
    /// All six combinations, in sweep order.
    pub fn all() -> [MicroVariant; 6] {
        let gs = [
            Grouping::Univariate,
            Grouping::Multivariate,
            Grouping::Bivariate,
        ];
        let aggs = [Aggregate::Median, Aggregate::Mode];
        let mut out = [MicroVariant {
            grouping: Grouping::Univariate,
            aggregate: Aggregate::Median,
        }; 6];
        let mut i = 0;
        for g in gs {
            for a in aggs {
                out[i] = MicroVariant {
                    grouping: g,
                    aggregate: a,
                };
                i += 1;
            }
        }
        out
    }

    fn tag(&self) -> String {
        let g = match self.grouping {
            Grouping::Univariate => "uni",
            Grouping::Multivariate => "multi",
            Grouping::Bivariate => "bi",
        };
        let a = match self.aggregate {
            Aggregate::Median => "median",
            Aggregate::Mode => "mode",
        };
        format!("{g},{a}")
    }
}

/// Categorical microaggregation with fixed group size `k` (the last group
/// absorbs the remainder, so group sizes are in `[k, 2k)`).
#[derive(Debug, Clone)]
pub struct Microaggregation {
    /// Minimum group size.
    pub k: usize,
    /// Grouping/aggregation variant.
    pub variant: MicroVariant,
}

impl Microaggregation {
    /// Convenience constructor.
    pub fn new(k: usize, variant: MicroVariant) -> Self {
        Microaggregation { k, variant }
    }

    fn check(&self, n: usize) -> Result<()> {
        if self.k < 2 {
            return Err(SdcError::InvalidParam(format!(
                "microaggregation requires k >= 2, got {}",
                self.k
            )));
        }
        if self.k > n {
            return Err(SdcError::InvalidParam(format!(
                "microaggregation k = {} exceeds the {} records",
                self.k, n
            )));
        }
        Ok(())
    }

    /// Group boundaries for `n` records: `n / k` groups, last one extended.
    fn group_bounds(&self, n: usize) -> Vec<(usize, usize)> {
        let g = (n / self.k).max(1);
        (0..g)
            .map(|i| {
                let start = i * self.k;
                let end = if i + 1 == g { n } else { start + self.k };
                (start, end)
            })
            .collect()
    }

    /// Aggregate the listed attributes group by group along `order` (record
    /// indices by ascending score), writing each group's representative back
    /// to its records in `columns`. `buf` and `counts` are scratch reused by
    /// every group; `counts` must cover the largest dictionary.
    fn aggregate_along(
        &self,
        original: &SubTable,
        attrs: &[usize],
        order: &[usize],
        keys_per_attr: &[Vec<usize>],
        columns: &mut [Vec<Code>],
        (buf, counts): (&mut Vec<Code>, &mut [usize]),
    ) {
        for (start, end) in self.group_bounds(order.len()) {
            let rows = &order[start..end];
            for &kx in attrs {
                let col = original.column(kx);
                buf.clear();
                buf.extend(rows.iter().map(|&i| col[i]));
                let rep = match self.variant.aggregate {
                    Aggregate::Median => median_by_keys(buf, &keys_per_attr[kx]),
                    Aggregate::Mode => mode(buf, counts),
                };
                for &i in rows {
                    columns[kx][i] = rep;
                }
            }
        }
    }

    /// [`ProtectionMethod::protect`] over a precomputed plane of `original`
    /// (the method draws no randomness).
    pub(crate) fn protect_on(&self, original: &SubTable, plane: &Plane) -> Result<SubTable> {
        self.check(original.n_rows())?;
        let a = original.n_attrs();
        let mut columns: Vec<Vec<Code>> = (0..a).map(|kx| original.column(kx).to_vec()).collect();
        let groups: Vec<Vec<usize>> = match self.variant.grouping {
            Grouping::Univariate => (0..a).map(|kx| vec![kx]).collect(),
            Grouping::Multivariate => vec![(0..a).collect()],
            Grouping::Bivariate => (0..a)
                .collect::<Vec<usize>>()
                .chunks(2)
                .map(<[usize]>::to_vec)
                .collect(),
        };

        let max_categories = (0..a).map(|kx| original.attr(kx).n_categories()).max();
        let mut buf = Vec::with_capacity(2 * self.k);
        let mut counts = vec![0usize; max_categories.unwrap_or(0)];
        for attrs in &groups {
            let order = plane.score_order(original, attrs);
            self.aggregate_along(
                original,
                attrs,
                &order,
                &plane.keys_per_attr,
                &mut columns,
                (&mut buf, &mut counts),
            );
        }

        Ok(SubTable::new(
            std::sync::Arc::clone(original.schema()),
            original.attr_indices().to_vec(),
            columns,
        )?)
    }
}

/// The pattern plane of one original: its row → pattern map and the
/// per-attribute category order keys (dictionary or frequency based) every
/// grouping ranks by. It depends only on the original, so the population
/// builder computes it once for all of its microaggregations.
pub(crate) struct Plane {
    patterns: PatternIndex,
    keys_per_attr: Vec<Vec<usize>>,
}

impl Plane {
    pub(crate) fn of(original: &SubTable) -> Self {
        let keys_per_attr = (0..original.n_attrs())
            .map(|kx| {
                let attr = original.attr(kx);
                category_order_keys(attr.kind(), original.column(kx), attr.n_categories())
            })
            .collect();
        Plane {
            patterns: PatternIndex::build(original),
            keys_per_attr,
        }
    }

    /// Records ordered by ascending mean normalized rank over `attrs`, ties
    /// by record index (see the module docs on the bucket order).
    fn score_order(&self, original: &SubTable, attrs: &[usize]) -> Vec<usize> {
        // normalized order position of a value on attribute kx
        let pos = |kx: usize, code: Code| -> f64 {
            let c = original.attr(kx).n_categories();
            if c <= 1 {
                0.0
            } else {
                self.keys_per_attr[kx][code as usize] as f64 / (c - 1) as f64
            }
        };
        let patterns = &self.patterns;
        let scores: Vec<f64> = (0..patterns.n_patterns() as PatternId)
            .map(|p| {
                let codes = patterns.codes_of(p);
                attrs.iter().map(|&kx| pos(kx, codes[kx])).sum::<f64>() / attrs.len() as f64
            })
            .collect();
        let mut by_score: Vec<usize> = (0..scores.len()).collect();
        by_score.sort_unstable_by(|&x, &y| {
            scores[x].partial_cmp(&scores[y]).expect("ranks are finite")
        });
        // one dense rank per distinct score value
        let mut rank = vec![0usize; scores.len()];
        let mut n_ranks = 0;
        for (i, &p) in by_score.iter().enumerate() {
            if i == 0 || scores[p] != scores[by_score[i - 1]] {
                n_ranks += 1;
            }
            rank[p] = n_ranks - 1;
        }
        bucket_order(patterns.n_rows(), n_ranks, |i| {
            rank[patterns.pattern_of(i) as usize]
        })
    }
}

impl ProtectionMethod for Microaggregation {
    fn name(&self) -> String {
        format!("microagg(k={},{})", self.k, self.variant.tag())
    }

    fn family(&self) -> MethodFamily {
        MethodFamily::Microaggregation
    }

    fn protect(
        &self,
        original: &SubTable,
        _ctx: &MethodContext<'_>,
        _rng: &mut dyn RngCore,
    ) -> Result<SubTable> {
        self.protect_on(original, &Plane::of(original))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::arb_table;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_dataset::{Attribute, Schema};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// The comparison-sort microaggregation the bucket order replaced — the
    /// score recomputed in every comparison, ties by record index, and
    /// allocating group aggregates: the parity oracle.
    fn protect_oracle(m: &Microaggregation, original: &SubTable) -> Result<SubTable> {
        let n = original.n_rows();
        m.check(n)?;
        let a = original.n_attrs();
        let keys_per_attr: Vec<Vec<usize>> = (0..a)
            .map(|kx| {
                let attr = original.attr(kx);
                category_order_keys(attr.kind(), original.column(kx), attr.n_categories())
            })
            .collect();
        let mut columns: Vec<Vec<Code>> = (0..a).map(|kx| original.column(kx).to_vec()).collect();
        let pos = |kx: usize, i: usize| -> f64 {
            let c = original.attr(kx).n_categories();
            if c <= 1 {
                0.0
            } else {
                keys_per_attr[kx][original.get(i, kx) as usize] as f64 / (c - 1) as f64
            }
        };
        let aggregate = |attrs: &[usize], order: &[usize], columns: &mut [Vec<Code>]| {
            for (start, end) in m.group_bounds(order.len()) {
                let rows = &order[start..end];
                for &kx in attrs {
                    let keys = &keys_per_attr[kx];
                    let mut codes: Vec<Code> = rows.iter().map(|&i| original.get(i, kx)).collect();
                    let rep = match m.variant.aggregate {
                        Aggregate::Median => {
                            codes.sort_by_key(|&c| keys[c as usize]);
                            codes[(codes.len() - 1) / 2]
                        }
                        Aggregate::Mode => {
                            let mut counts = vec![0usize; original.attr(kx).n_categories()];
                            for &c in &codes {
                                counts[c as usize] += 1;
                            }
                            counts
                                .iter()
                                .enumerate()
                                .max_by_key(|&(code, &cnt)| (cnt, std::cmp::Reverse(code)))
                                .map(|(code, _)| code as Code)
                                .unwrap_or(0)
                        }
                    };
                    for &i in rows {
                        columns[kx][i] = rep;
                    }
                }
            }
        };
        let groups: Vec<Vec<usize>> = match m.variant.grouping {
            Grouping::Univariate => (0..a).map(|kx| vec![kx]).collect(),
            Grouping::Multivariate => vec![(0..a).collect()],
            Grouping::Bivariate => (0..a)
                .step_by(2)
                .map(|kx| (kx..a.min(kx + 2)).collect())
                .collect(),
        };
        for attrs in &groups {
            let score = |i: usize| -> f64 {
                attrs.iter().map(|&j| pos(j, i)).sum::<f64>() / attrs.len() as f64
            };
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&x, &y| {
                score(x)
                    .partial_cmp(&score(y))
                    .expect("ranks are finite")
                    .then(x.cmp(&y))
            });
            aggregate(attrs, &order, &mut columns);
        }
        Ok(SubTable::new(
            Arc::clone(original.schema()),
            original.attr_indices().to_vec(),
            columns,
        )?)
    }

    /// A random table and a group size `k` in `0..=n+3`, pinned to `n`
    /// on every third draw, so `k == n`, `n == 1` and the rejected `k < 2`
    /// and `k > n` edges all occur.
    fn arb_case() -> impl Strategy<Value = (SubTable, usize)> {
        arb_table(40)
            .prop_flat_map(|sub| {
                let n = sub.n_rows();
                (Just(sub), 0usize..=n + 3)
            })
            .prop_map(|(sub, k_draw)| {
                let k = if k_draw % 3 == 0 {
                    sub.n_rows()
                } else {
                    k_draw
                };
                (sub, k)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bucket_order_matches_the_comparison_sort((sub, k) in arb_case()) {
            let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
            let ctx = MethodContext { hierarchies: &hs };
            for variant in MicroVariant::all() {
                let m = Microaggregation::new(k, variant);
                let fast = m.protect(&sub, &ctx, &mut StdRng::seed_from_u64(0));
                match protect_oracle(&m, &sub) {
                    Ok(slow) => prop_assert_eq!(fast.unwrap(), slow, "{}", m.name()),
                    Err(_) => prop_assert!(fast.is_err(), "{} accepted k = {k}", m.name()),
                }
            }
        }
    }

    #[test]
    fn equal_scores_of_distinct_patterns_interleave_by_row() {
        // two ordinal 3-category attributes: patterns (0, 2) and (1, 1) both
        // score 0.5, so their rows share one bucket in row order
        let schema = Arc::new(
            Schema::new(vec![Attribute::ordinal("A", 3), Attribute::ordinal("B", 3)]).unwrap(),
        );
        let sub = SubTable::new(
            schema,
            vec![0, 1],
            vec![vec![1, 0, 2, 1, 0], vec![1, 2, 2, 1, 2]],
        )
        .unwrap();
        let order = Plane::of(&sub).score_order(&sub, &[0, 1]);
        assert_eq!(order, vec![0, 1, 3, 4, 2]);
    }

    fn setup() -> (cdp_dataset::generators::Dataset, SubTable) {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(3).with_records(120));
        let sub = ds.protected_subtable();
        (ds, sub)
    }

    fn ctx_for<'a>(h: &'a [&'a cdp_dataset::Hierarchy]) -> MethodContext<'a> {
        MethodContext { hierarchies: h }
    }

    #[test]
    fn every_variant_produces_valid_output() {
        let (ds, sub) = setup();
        let hs = ds.protected_hierarchies();
        let mut rng = StdRng::seed_from_u64(1);
        for variant in MicroVariant::all() {
            let m = Microaggregation::new(5, variant);
            let masked = m.protect(&sub, &ctx_for(&hs), &mut rng).unwrap();
            masked.validate().unwrap();
            assert_eq!(masked.n_rows(), sub.n_rows());
        }
    }

    #[test]
    fn univariate_groups_are_k_anonymous_per_attribute() {
        let (ds, sub) = setup();
        let hs = ds.protected_hierarchies();
        let mut rng = StdRng::seed_from_u64(1);
        let k = 5;
        let m = Microaggregation::new(
            k,
            MicroVariant {
                grouping: Grouping::Univariate,
                aggregate: Aggregate::Median,
            },
        );
        let masked = m.protect(&sub, &ctx_for(&hs), &mut rng).unwrap();
        // every surviving category value is shared by >= k records
        for kx in 0..masked.n_attrs() {
            let col = masked.column(kx);
            let mut counts = vec![0usize; masked.attr(kx).n_categories()];
            for &c in col {
                counts[c as usize] += 1;
            }
            for &cnt in counts.iter() {
                assert!(cnt == 0 || cnt >= k, "value with only {cnt} holders");
            }
        }
    }

    #[test]
    fn larger_k_distorts_more() {
        let (ds, sub) = setup();
        let hs = ds.protected_hierarchies();
        let mut rng = StdRng::seed_from_u64(1);
        let variant = MicroVariant {
            grouping: Grouping::Multivariate,
            aggregate: Aggregate::Median,
        };
        let small = Microaggregation::new(2, variant)
            .protect(&sub, &ctx_for(&hs), &mut rng)
            .unwrap();
        let large = Microaggregation::new(30, variant)
            .protect(&sub, &ctx_for(&hs), &mut rng)
            .unwrap();
        assert!(sub.hamming(&large) > sub.hamming(&small));
    }

    #[test]
    fn invalid_k_rejected() {
        let (ds, sub) = setup();
        let hs = ds.protected_hierarchies();
        let mut rng = StdRng::seed_from_u64(1);
        let variant = MicroVariant::all()[0];
        assert!(Microaggregation::new(1, variant)
            .protect(&sub, &ctx_for(&hs), &mut rng)
            .is_err());
        assert!(Microaggregation::new(500, variant)
            .protect(&sub, &ctx_for(&hs), &mut rng)
            .is_err());
    }

    #[test]
    fn deterministic() {
        let (ds, sub) = setup();
        let hs = ds.protected_hierarchies();
        let m = Microaggregation::new(4, MicroVariant::all()[3]);
        let a = m
            .protect(&sub, &ctx_for(&hs), &mut StdRng::seed_from_u64(1))
            .unwrap();
        let b = m
            .protect(&sub, &ctx_for(&hs), &mut StdRng::seed_from_u64(99))
            .unwrap();
        assert_eq!(a, b, "microaggregation must not depend on the RNG");
    }

    #[test]
    fn name_encodes_parameters() {
        let m = Microaggregation::new(7, MicroVariant::all()[1]);
        assert_eq!(m.name(), "microagg(k=7,uni,mode)");
        assert_eq!(m.family(), MethodFamily::Microaggregation);
    }
}
