//! Re-identification risk under the standard attacker scenarios.
//!
//! * **Prosecutor** — the intruder knows their target *is in the file* and
//!   links it to a uniformly chosen member of the matching equivalence
//!   class. Per-record risk is `1 / class size`.
//! * **Journalist** — the intruder only knows the target belongs to the
//!   *population* the file was drawn from; risk is `1 / F` where `F` is the
//!   size of the matching class in the population file.
//! * **Marketer** — the intruder links *every* record and profits from each
//!   correct link; the relevant figure is the expected number of correct
//!   links, `Σ_records 1/class size = number of classes`.
//!
//! These complement the paper's four DR measures: the DR measures model
//! concrete linkage algorithms against the *original* file, while these
//! model attacker knowledge levels from class-size structure alone.

use cdp_dataset::{PatternId, PatternIndex, SubTable};

use crate::partition::Partition;
use crate::{PrivacyError, Result};

/// Prosecutor-scenario risk profile of a masked file.
#[derive(Debug, Clone, PartialEq)]
pub struct ProsecutorRisk {
    /// Maximum per-record risk, `1 / min class size`. In `(0, 1]`.
    pub max: f64,
    /// Mean per-record risk, `n_classes / n`.
    pub mean: f64,
    /// Fraction of records with risk above 0.2 (class size < 5), the
    /// conventional "high risk" audit threshold.
    pub high_risk_fraction: f64,
    /// Expected number of correct re-identifications when the intruder
    /// links every record (the marketer figure): equals the class count.
    pub expected_reidentifications: f64,
}

/// Assess prosecutor risk from a partition of the masked file.
pub fn prosecutor_risk(partition: &Partition) -> ProsecutorRisk {
    let n = partition.n_rows() as f64;
    let high = partition.records_below(5) as f64;
    ProsecutorRisk {
        max: 1.0 / partition.min_class_size() as f64,
        mean: partition.n_classes() as f64 / n,
        high_risk_fraction: high / n,
        expected_reidentifications: partition.n_classes() as f64,
    }
}

/// Journalist-scenario risk profile: masked records measured against the
/// class sizes of a *population* file.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalistRisk {
    /// Maximum per-record risk `1 / F` over records whose masked key occurs
    /// in the population.
    pub max: f64,
    /// Mean per-record risk (records whose key vanished from the population
    /// contribute zero — the intruder cannot even locate a candidate set).
    pub mean: f64,
    /// Fraction of masked records whose key no longer exists in the
    /// population at all.
    pub orphan_fraction: f64,
}

/// Assess journalist risk of `masked` against `population` (typically the
/// original file): for each masked record, `F` is the number of population
/// records agreeing with its masked quasi-identifier values.
///
/// # Errors
/// [`PrivacyError::ShapeMismatch`] when the two sub-tables have different
/// column counts, [`PrivacyError::Empty`] on empty inputs.
pub fn journalist_risk(masked: &SubTable, population: &SubTable) -> Result<JournalistRisk> {
    journalist_risk_of(&PatternIndex::build(masked), population)
}

/// [`journalist_risk`] over the masked file's pattern index. The population
/// frequency `F` is looked up once per distinct masked pattern; the
/// per-record fold still runs in record order, so the mean is the same
/// float sum a per-record lookup produces.
pub(crate) fn journalist_risk_of(
    masked: &PatternIndex,
    population: &SubTable,
) -> Result<JournalistRisk> {
    if masked.n_attrs() != population.n_attrs() {
        return Err(PrivacyError::ShapeMismatch {
            what: "masked vs population attribute count".into(),
            left: masked.n_attrs(),
            right: population.n_attrs(),
        });
    }
    let n = masked.n_rows();
    if n == 0 || population.n_rows() == 0 {
        return Err(PrivacyError::Empty("records".into()));
    }
    let pop = PatternIndex::build(population);
    let freq: Vec<u32> = (0..masked.n_patterns() as PatternId)
        .map(|p| {
            pop.find(masked.codes_of(p))
                .map_or(0, |q| pop.multiplicity(q))
        })
        .collect();

    let mut max = 0f64;
    let mut sum = 0f64;
    let mut orphans = 0usize;
    for r in 0..n {
        let f = freq[masked.pattern_of(r) as usize];
        if f == 0 {
            orphans += 1;
        } else {
            let risk = 1.0 / f as f64;
            max = max.max(risk);
            sum += risk;
        }
    }
    Ok(JournalistRisk {
        max,
        mean: sum / n as f64,
        orphan_fraction: orphans as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::{Attribute, Code, Schema, SubTable};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The sort-and-binary-search journalist risk [`journalist_risk`]
    /// replaced: the parity oracle.
    fn journalist_risk_oracle(masked: &SubTable, population: &SubTable) -> JournalistRisk {
        let a = masked.n_attrs();
        let mut pop_keys: Vec<Vec<Code>> = (0..population.n_rows())
            .map(|r| (0..a).map(|k| population.get(r, k)).collect())
            .collect();
        pop_keys.sort_unstable();
        let count_of = |key: &[Code]| -> usize {
            let lo = pop_keys.partition_point(|k| k.as_slice() < key);
            let hi = pop_keys.partition_point(|k| k.as_slice() <= key);
            hi - lo
        };
        let n = masked.n_rows();
        let (mut max, mut sum, mut orphans) = (0f64, 0f64, 0usize);
        for r in 0..n {
            let key: Vec<Code> = (0..a).map(|k| masked.get(r, k)).collect();
            let f = count_of(&key);
            if f == 0 {
                orphans += 1;
            } else {
                let risk = 1.0 / f as f64;
                max = max.max(risk);
                sum += risk;
            }
        }
        JournalistRisk {
            max,
            mean: sum / n as f64,
            orphan_fraction: orphans as f64 / n as f64,
        }
    }

    /// A masked file and a population of the same width (1..=3 columns,
    /// codes below 1..=4 so repeated keys and orphans both occur).
    fn arb_pair() -> impl Strategy<Value = (SubTable, SubTable)> {
        (1usize..=3, 1usize..=4, 1usize..=50, 1usize..=50).prop_flat_map(|(a, c, n, m)| {
            (
                proptest::collection::vec(proptest::collection::vec(0..c as Code, n), a),
                proptest::collection::vec(proptest::collection::vec(0..c as Code + 1, m), a),
            )
                .prop_map(|(masked, population)| (sub(masked), sub(population)))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn journalist_risk_matches_the_sort_based_oracle((masked, population) in arb_pair()) {
            let fast = journalist_risk(&masked, &population).unwrap();
            let slow = journalist_risk_oracle(&masked, &population);
            prop_assert_eq!(fast.max.to_bits(), slow.max.to_bits());
            prop_assert_eq!(fast.mean.to_bits(), slow.mean.to_bits());
            prop_assert_eq!(fast.orphan_fraction.to_bits(), slow.orphan_fraction.to_bits());
        }
    }

    fn sub(columns: Vec<Vec<Code>>) -> SubTable {
        let attrs = (0..columns.len())
            .map(|i| Attribute::nominal(format!("Q{i}"), 8))
            .collect();
        let schema = Arc::new(Schema::new(attrs).unwrap());
        SubTable::new(schema, (0..columns.len()).collect(), columns).unwrap()
    }

    #[test]
    fn prosecutor_risk_of_singletons_is_one() {
        let p = Partition::of_subtable(&sub(vec![vec![0, 1, 2, 3]])).unwrap();
        let r = prosecutor_risk(&p);
        assert_eq!(r.max, 1.0);
        assert_eq!(r.mean, 1.0);
        assert_eq!(r.high_risk_fraction, 1.0);
        assert_eq!(r.expected_reidentifications, 4.0);
    }

    #[test]
    fn prosecutor_risk_drops_with_class_size() {
        let p = Partition::of_subtable(&sub(vec![vec![0; 10]])).unwrap();
        let r = prosecutor_risk(&p);
        assert!((r.max - 0.1).abs() < 1e-12);
        assert!((r.mean - 0.1).abs() < 1e-12);
        assert_eq!(r.high_risk_fraction, 0.0);
        assert_eq!(r.expected_reidentifications, 1.0);
    }

    #[test]
    fn high_risk_threshold_counts_small_classes() {
        // one class of 3 (risk 1/3 > 0.2) and one of 7 (risk 1/7 < 0.2)
        let p = Partition::of_subtable(&sub(vec![vec![0, 0, 0, 1, 1, 1, 1, 1, 1, 1]])).unwrap();
        let r = prosecutor_risk(&p);
        assert!((r.high_risk_fraction - 0.3).abs() < 1e-12);
    }

    #[test]
    fn journalist_matches_population_frequency() {
        // population: key 0 × 4, key 1 × 1
        let population = sub(vec![vec![0, 0, 0, 0, 1]]);
        // masked file: two records with key 0, one with key 1
        let masked = sub(vec![vec![0, 0, 1]]);
        let r = journalist_risk(&masked, &population).unwrap();
        assert_eq!(r.max, 1.0); // key 1 is unique in the population
        assert!((r.mean - (0.25 + 0.25 + 1.0) / 3.0).abs() < 1e-12);
        assert_eq!(r.orphan_fraction, 0.0);
    }

    #[test]
    fn journalist_counts_orphans() {
        let population = sub(vec![vec![0, 0]]);
        let masked = sub(vec![vec![0, 3]]); // key 3 vanished from population
        let r = journalist_risk(&masked, &population).unwrap();
        assert!((r.orphan_fraction - 0.5).abs() < 1e-12);
        assert!((r.mean - 0.25).abs() < 1e-12); // only key-0 record contributes 1/2
    }

    #[test]
    fn journalist_risk_never_exceeds_prosecutor_on_same_file() {
        // when population == masked, journalist F >= prosecutor class size
        // never holds in general, but F == class size here, so risks match
        let file = sub(vec![vec![0, 0, 1, 2, 2, 2]]);
        let p = Partition::of_subtable(&file).unwrap();
        let jr = journalist_risk(&file, &file).unwrap();
        let pr = prosecutor_risk(&p);
        assert!((jr.max - pr.max).abs() < 1e-12);
        assert!((jr.mean - pr.mean).abs() < 1e-12);
    }

    #[test]
    fn journalist_shape_mismatch() {
        let a = sub(vec![vec![0, 1]]);
        let b = sub(vec![vec![0, 1], vec![1, 0]]);
        assert!(journalist_risk(&a, &b).is_err());
    }
}
