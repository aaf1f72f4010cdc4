//! MDAV microaggregation (Maximum Distance to Average Vector), adapted to
//! categorical data.
//!
//! MDAV (Domingo-Ferrer & Mateo-Sanz) is the canonical fixed-size
//! microaggregation heuristic: repeatedly find the record `r` farthest
//! from the current centroid, group `r` with its `k−1` nearest neighbours,
//! then do the same around the record farthest from `r`; the remainder
//! (< 2k records) forms the last group. Compared to the projection-based
//! grouping of [`crate::Microaggregation`], MDAV builds genuinely
//! multivariate clusters and usually trades a little more computation for
//! less information loss at equal `k`.
//!
//! The categorical adaptation uses the mixed distance of the metrics
//! domain — normalized rank distance on ordinal attributes (frequency
//! order for nominal ones would be circular here, so nominal attributes
//! contribute 0/1 disagreement) — and a *medoid-style centroid*: the
//! per-attribute median (ordinal) / mode (nominal) of the group, which is
//! also the representative written back to the group's records.

use cdp_dataset::{AttrKind, Code, SubTable};
use rand::RngCore;

use crate::method::{MethodContext, MethodFamily, ProtectionMethod};
use crate::order::{median_by_keys, mode};
use crate::{Result, SdcError};

/// MDAV microaggregation with minimum group size `k`.
#[derive(Debug, Clone, Copy)]
pub struct Mdav {
    /// Minimum group size (the last group may hold up to `2k − 1`).
    pub k: usize,
}

impl Mdav {
    /// Convenience constructor.
    pub fn new(k: usize) -> Self {
        Mdav { k }
    }
}

/// Distance between two records over the protected attributes.
fn record_distance(sub: &SubTable, spans: &[f64], i: usize, j: usize) -> f64 {
    let mut d = 0.0;
    for (k, &span) in spans.iter().enumerate().take(sub.n_attrs()) {
        let (x, y) = (sub.get(i, k), sub.get(j, k));
        if span > 0.0 {
            d += f64::from(x.abs_diff(y)) * span;
        } else if x != y {
            d += 1.0;
        }
    }
    d
}

/// Distance from a record to an explicit centroid (codes per attribute).
fn centroid_distance(sub: &SubTable, spans: &[f64], i: usize, centroid: &[Code]) -> f64 {
    let mut d = 0.0;
    for k in 0..sub.n_attrs() {
        let (x, y) = (sub.get(i, k), centroid[k]);
        if spans[k] > 0.0 {
            d += f64::from(x.abs_diff(y)) * spans[k];
        } else if x != y {
            d += 1.0;
        }
    }
    d
}

/// Medoid-style centroid of a record set: per-attribute median (ordinal) or
/// mode (nominal).
fn centroid(sub: &SubTable, rows: &[usize]) -> Vec<Code> {
    (0..sub.n_attrs())
        .map(|k| {
            let attr = sub.attr(k);
            let mut codes: Vec<Code> = rows.iter().map(|&r| sub.get(r, k)).collect();
            match attr.kind() {
                AttrKind::Ordinal => {
                    let keys: Vec<usize> = (0..attr.n_categories()).collect();
                    median_by_keys(&mut codes, &keys)
                }
                AttrKind::Nominal => mode(&codes, &mut vec![0; attr.n_categories()]),
            }
        })
        .collect()
}

impl ProtectionMethod for Mdav {
    fn name(&self) -> String {
        format!("mdav(k={})", self.k)
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
        let n = original.n_rows();
        if self.k < 2 {
            return Err(SdcError::InvalidParam(format!(
                "MDAV requires k >= 2, got {}",
                self.k
            )));
        }
        if self.k > n {
            return Err(SdcError::InvalidParam(format!(
                "MDAV k = {} exceeds the {} records",
                self.k, n
            )));
        }

        // ordinal scale per attribute (0.0 marks nominal -> 0/1 distance)
        let spans: Vec<f64> = (0..original.n_attrs())
            .map(|k| {
                let attr = original.attr(k);
                if attr.kind().is_ordinal() && attr.n_categories() > 1 {
                    1.0 / (attr.n_categories() - 1) as f64
                } else {
                    0.0
                }
            })
            .collect();

        let mut remaining: Vec<usize> = (0..n).collect();
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(n / self.k + 1);

        while remaining.len() >= 2 * self.k {
            // centroid of the remaining records
            let c = centroid(original, &remaining);
            // r = farthest from centroid; s = farthest from r
            let r = *remaining
                .iter()
                .max_by(|&&a, &&b| {
                    centroid_distance(original, &spans, a, &c)
                        .partial_cmp(&centroid_distance(original, &spans, b, &c))
                        .expect("finite")
                        .then(a.cmp(&b))
                })
                .expect("non-empty");
            let s = *remaining
                .iter()
                .max_by(|&&a, &&b| {
                    record_distance(original, &spans, a, r)
                        .partial_cmp(&record_distance(original, &spans, b, r))
                        .expect("finite")
                        .then(a.cmp(&b))
                })
                .expect("non-empty");

            for anchor in [r, s] {
                if !remaining.contains(&anchor) {
                    continue; // consumed by the first group of this round
                }
                let mut by_dist: Vec<usize> = remaining.clone();
                by_dist.sort_by(|&a, &b| {
                    record_distance(original, &spans, a, anchor)
                        .partial_cmp(&record_distance(original, &spans, b, anchor))
                        .expect("finite")
                        .then(a.cmp(&b))
                });
                let group: Vec<usize> = by_dist.into_iter().take(self.k).collect();
                remaining.retain(|x| !group.contains(x));
                groups.push(group);
            }
        }
        if !remaining.is_empty() {
            groups.push(remaining);
        }

        let mut columns: Vec<Vec<Code>> = (0..original.n_attrs())
            .map(|k| original.column(k).to_vec())
            .collect();
        for group in &groups {
            let rep = centroid(original, group);
            for (k, col) in columns.iter_mut().enumerate() {
                for &row in group {
                    col[row] = rep[k];
                }
            }
        }

        Ok(SubTable::new(
            std::sync::Arc::clone(original.schema()),
            original.attr_indices().to_vec(),
            columns,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_dataset::stats::k_anonymity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> SubTable {
        DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(31).with_records(150))
            .protected_subtable()
    }

    fn ctx<'a>(hs: &'a [&'a cdp_dataset::Hierarchy]) -> MethodContext<'a> {
        MethodContext { hierarchies: hs }
    }

    #[test]
    fn groups_are_k_anonymous_on_the_joint_key() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        let k = 4;
        let masked = Mdav::new(k).protect(&sub, &ctx(&hs), &mut rng).unwrap();
        // every group collapses to one joint value shared by >= k records
        // (distinct groups may coincide, so classes can only be larger)
        assert!(k_anonymity(&masked) >= k, "k = {}", k_anonymity(&masked));
    }

    #[test]
    fn output_is_valid_and_deterministic() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let a = Mdav::new(5)
            .protect(&sub, &ctx(&hs), &mut StdRng::seed_from_u64(1))
            .unwrap();
        let b = Mdav::new(5)
            .protect(&sub, &ctx(&hs), &mut StdRng::seed_from_u64(99))
            .unwrap();
        a.validate().unwrap();
        assert_eq!(a, b, "MDAV must not depend on the RNG");
    }

    #[test]
    fn larger_k_distorts_more() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        let small = Mdav::new(2).protect(&sub, &ctx(&hs), &mut rng).unwrap();
        let large = Mdav::new(25).protect(&sub, &ctx(&hs), &mut rng).unwrap();
        assert!(sub.hamming(&large) > sub.hamming(&small));
    }

    #[test]
    fn mdav_beats_projection_grouping_on_information_loss() {
        // the reason MDAV exists: multivariate clusters preserve more
        // structure than single-axis projection at equal k
        use crate::{Aggregate, Grouping, MicroVariant, Microaggregation};
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        let k = 5;
        let mdav = Mdav::new(k).protect(&sub, &ctx(&hs), &mut rng).unwrap();
        let proj = Microaggregation::new(
            k,
            MicroVariant {
                grouping: Grouping::Multivariate,
                aggregate: Aggregate::Median,
            },
        )
        .protect(&sub, &ctx(&hs), &mut rng)
        .unwrap();
        // cells changed is a crude IL proxy that needs no metrics dep
        assert!(
            sub.hamming(&mdav) <= sub.hamming(&proj) + sub.flat_len() / 10,
            "mdav {} vs projection {}",
            sub.hamming(&mdav),
            sub.hamming(&proj)
        );
    }

    #[test]
    fn invalid_k_rejected() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Mdav::new(1).protect(&sub, &ctx(&hs), &mut rng).is_err());
        assert!(Mdav::new(151).protect(&sub, &ctx(&hs), &mut rng).is_err());
    }

    #[test]
    fn name_and_family() {
        assert_eq!(Mdav::new(3).name(), "mdav(k=3)");
        assert_eq!(Mdav::new(3).family(), MethodFamily::Microaggregation);
    }
}
