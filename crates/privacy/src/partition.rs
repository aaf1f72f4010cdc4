//! Equivalence-class partitions: the backbone of every syntactic privacy
//! model.
//!
//! Two records belong to the same *equivalence class* when they agree on all
//! quasi-identifier columns. k-anonymity, l-diversity, t-closeness and the
//! re-identification risk models are all functions of this partition (plus,
//! for the diversity models, a sensitive column), so it is computed once and
//! shared.
//!
//! Construction works on distinct patterns: one hashing pass dedups the
//! rows into a [`PatternIndex`] (`O(n·a)`), and only the `p` distinct code
//! tuples — at most `Π_k c_k`, 1568 for the paper's Adult selection at any
//! row count — are sorted to number the classes (`O(p log p)`
//! comparisons). A recoded partition ([`Partition::of_mapped`]) maps each
//! distinct pattern's codes rather than each row's; patterns that recode
//! onto one tuple merge into one class.

use cdp_dataset::{Code, PatternId, PatternIndex, SubTable};

use crate::{PrivacyError, Result};

/// The pattern index [`Partition::of_subtable`] classes, for callers that
/// reuse it (the audit's journalist risk).
///
/// # Errors
/// [`PrivacyError::Empty`] when the sub-table has no rows.
pub(crate) fn index_rows(sub: &SubTable) -> Result<PatternIndex> {
    if sub.n_rows() == 0 {
        return Err(PrivacyError::Empty("records".into()));
    }
    Ok(PatternIndex::build(sub))
}

/// An equivalence-class partition of `n` records.
///
/// Class ids are dense in `0..n_classes()`, assigned in ascending key order
/// (lexicographic over the quasi-identifier codes), so partitions of the
/// same data are canonical and comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    class_of: Vec<u32>,
    class_sizes: Vec<u32>,
}

impl Partition {
    /// Partition the rows of a sub-table by exact agreement on all of its
    /// columns (every column is treated as a quasi-identifier).
    ///
    /// # Errors
    /// [`PrivacyError::Empty`] when the sub-table has no rows.
    pub fn of_subtable(sub: &SubTable) -> Result<Self> {
        Ok(Partition::of_patterns(&index_rows(sub)?))
    }

    /// Partition rows by agreement on the *recoded* values
    /// `maps[k][sub[r][k]]` — used by the lattice search to test a
    /// generalization node without materializing the recoded table.
    ///
    /// `maps[k]` must cover the dictionary of column `k`.
    ///
    /// # Errors
    /// [`PrivacyError::Empty`] on empty input,
    /// [`PrivacyError::ShapeMismatch`] when `maps` and the sub-table
    /// disagree on the number of columns.
    pub fn of_mapped(sub: &SubTable, maps: &[&[Code]]) -> Result<Self> {
        if maps.len() != sub.n_attrs() {
            return Err(PrivacyError::ShapeMismatch {
                what: "recode maps vs sub-table columns".into(),
                left: maps.len(),
                right: sub.n_attrs(),
            });
        }
        if sub.n_rows() == 0 {
            return Err(PrivacyError::Empty("sub-table rows".into()));
        }
        Ok(Partition::classify(&PatternIndex::build(sub), |k, v| {
            maps[k][v as usize]
        }))
    }

    /// Partition rows by agreement on the given columns (all must share one
    /// length).
    ///
    /// # Errors
    /// [`PrivacyError::Empty`] when no columns or no rows are given,
    /// [`PrivacyError::ShapeMismatch`] on ragged columns.
    pub fn of_columns(columns: &[&[Code]]) -> Result<Self> {
        if columns.is_empty() {
            return Err(PrivacyError::Empty("quasi-identifier columns".into()));
        }
        let n = columns[0].len();
        if n == 0 {
            return Err(PrivacyError::Empty("records".into()));
        }
        for col in columns.iter().skip(1) {
            if col.len() != n {
                return Err(PrivacyError::ShapeMismatch {
                    what: "quasi-identifier columns".into(),
                    left: n,
                    right: col.len(),
                });
            }
        }
        Ok(Partition::of_patterns(&PatternIndex::from_columns(columns)))
    }

    /// Partition the rows of a pattern index by exact agreement on their
    /// patterns (see [`index_rows`]).
    pub(crate) fn of_patterns(patterns: &PatternIndex) -> Self {
        Partition::classify(patterns, |_, v| v)
    }

    /// The one classer behind every constructor: key each distinct pattern
    /// by its codes mapped through `map(attribute, code)`, number the
    /// distinct keys in ascending order, and fan the class ids out to the
    /// rows. Every pattern of a freshly built index is live.
    fn classify(patterns: &PatternIndex, map: impl Fn(usize, Code) -> Code) -> Self {
        let a = patterns.n_attrs();
        let p = patterns.n_patterns();
        let mut keys: Vec<Code> = Vec::with_capacity(p * a);
        for pid in 0..p as PatternId {
            let codes = patterns.codes_of(pid);
            keys.extend(codes.iter().enumerate().map(|(k, &v)| map(k, v)));
        }
        let key = |pid: usize| &keys[pid * a..(pid + 1) * a];
        let mut by_key: Vec<usize> = (0..p).collect();
        by_key.sort_unstable_by(|&x, &y| key(x).cmp(key(y)));

        let mut class_of_pattern = vec![0u32; p];
        let mut class_sizes: Vec<u32> = Vec::new();
        for (i, &pid) in by_key.iter().enumerate() {
            if i == 0 || key(pid) != key(by_key[i - 1]) {
                class_sizes.push(0);
            }
            class_of_pattern[pid] = class_sizes.len() as u32 - 1;
            *class_sizes.last_mut().expect("class pushed") +=
                patterns.multiplicity(pid as PatternId);
        }
        let class_of = (0..patterns.n_rows())
            .map(|r| class_of_pattern[patterns.pattern_of(r) as usize])
            .collect();
        Partition {
            class_of,
            class_sizes,
        }
    }

    /// Number of records.
    pub fn n_rows(&self) -> usize {
        self.class_of.len()
    }

    /// Number of equivalence classes.
    pub fn n_classes(&self) -> usize {
        self.class_sizes.len()
    }

    /// Class id of a record.
    pub fn class_of(&self, row: usize) -> usize {
        self.class_of[row] as usize
    }

    /// Size of each class, indexed by class id.
    pub fn class_sizes(&self) -> &[u32] {
        &self.class_sizes
    }

    /// Size of the class the given record belongs to.
    pub fn class_size_of(&self, row: usize) -> usize {
        self.class_sizes[self.class_of[row] as usize] as usize
    }

    /// The smallest class size — the `k` the data actually achieves.
    pub fn min_class_size(&self) -> usize {
        self.class_sizes
            .iter()
            .copied()
            .min()
            .map(|s| s as usize)
            .unwrap_or(0)
    }

    /// The records of every class, as row-index lists ordered by class id.
    pub fn classes(&self) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = self
            .class_sizes
            .iter()
            .map(|&s| Vec::with_capacity(s as usize))
            .collect();
        for (row, &cls) in self.class_of.iter().enumerate() {
            out[cls as usize].push(row);
        }
        out
    }

    /// Histogram of class sizes: `(size, number of classes of that size)`,
    /// ascending in size. Useful for risk audits ("how many singletons?").
    pub fn size_histogram(&self) -> Vec<(usize, usize)> {
        let mut sorted: Vec<u32> = self.class_sizes.clone();
        sorted.sort_unstable();
        let mut out: Vec<(usize, usize)> = Vec::new();
        for &s in &sorted {
            match out.last_mut() {
                Some((size, count)) if *size == s as usize => *count += 1,
                _ => out.push((s as usize, 1)),
            }
        }
        out
    }

    /// Number of records in classes smaller than `k`.
    pub fn records_below(&self, k: usize) -> usize {
        self.class_sizes
            .iter()
            .filter(|&&s| (s as usize) < k)
            .map(|&s| s as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::{Attribute, Schema, SubTable};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The per-row sort-based classer the pattern classer replaced: the
    /// parity oracle.
    fn from_keys(keys: Vec<Vec<Code>>) -> Partition {
        let n = keys.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&i, &j| keys[i as usize].cmp(&keys[j as usize]));
        let mut class_of = vec![0u32; n];
        let mut class_sizes = Vec::new();
        let mut i = 0usize;
        while i < n {
            let mut j = i + 1;
            while j < n && keys[order[j] as usize] == keys[order[i] as usize] {
                j += 1;
            }
            let id = class_sizes.len() as u32;
            for &row in &order[i..j] {
                class_of[row as usize] = id;
            }
            class_sizes.push((j - i) as u32);
            i = j;
        }
        Partition {
            class_of,
            class_sizes,
        }
    }

    /// Per-row keys of `sub` with codes mapped through `maps`.
    fn row_keys(sub: &SubTable, maps: &[Vec<Code>]) -> Vec<Vec<Code>> {
        (0..sub.n_rows())
            .map(|r| {
                (0..sub.n_attrs())
                    .map(|k| maps[k][sub.get(r, k) as usize])
                    .collect()
            })
            .collect()
    }

    /// A 1..=3-column table (codes below 1..=5, so a 1-category column
    /// occurs) with a random recode map per column.
    fn arb_table() -> impl Strategy<Value = (SubTable, Vec<Vec<Code>>)> {
        (1usize..=3, 1usize..=5, 1usize..=60).prop_flat_map(|(a, c, n)| {
            (
                proptest::collection::vec(proptest::collection::vec(0..c as Code, n), a),
                proptest::collection::vec(proptest::collection::vec(0..3 as Code, 8), a),
            )
                .prop_map(|(columns, maps)| (sub(columns), maps))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pattern_classer_matches_the_row_sort((s, maps) in arb_table()) {
            let identity: Vec<Vec<Code>> = vec![(0..8).collect(); s.n_attrs()];
            let expected = from_keys(row_keys(&s, &identity));
            let columns: Vec<&[Code]> = (0..s.n_attrs()).map(|k| s.column(k)).collect();
            prop_assert_eq!(Partition::of_subtable(&s).unwrap(), expected.clone());
            prop_assert_eq!(Partition::of_columns(&columns).unwrap(), expected);
            let map_refs: Vec<&[Code]> = maps.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(
                Partition::of_mapped(&s, &map_refs).unwrap(),
                from_keys(row_keys(&s, &maps))
            );
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
    fn groups_identical_rows() {
        // rows: (0,0) (0,0) (1,2) (1,2) (1,3)
        let s = sub(vec![vec![0, 0, 1, 1, 1], vec![0, 0, 2, 2, 3]]);
        let p = Partition::of_subtable(&s).unwrap();
        assert_eq!(p.n_classes(), 3);
        assert_eq!(p.min_class_size(), 1);
        assert_eq!(p.class_of(0), p.class_of(1));
        assert_eq!(p.class_of(2), p.class_of(3));
        assert_ne!(p.class_of(3), p.class_of(4));
        assert_eq!(p.class_size_of(4), 1);
    }

    #[test]
    fn class_ids_are_canonical_key_order() {
        let s = sub(vec![vec![3, 0, 3, 0]]);
        let p = Partition::of_subtable(&s).unwrap();
        // key 0 sorts before key 3, so rows 1,3 get class 0
        assert_eq!(p.class_of(1), 0);
        assert_eq!(p.class_of(0), 1);
    }

    #[test]
    fn sizes_sum_to_n() {
        let s = sub(vec![vec![0, 1, 2, 0, 1, 2, 7], vec![1, 1, 1, 1, 2, 2, 2]]);
        let p = Partition::of_subtable(&s).unwrap();
        let total: u32 = p.class_sizes().iter().sum();
        assert_eq!(total as usize, p.n_rows());
    }

    #[test]
    fn mapped_partition_merges_classes() {
        let s = sub(vec![vec![0, 1, 2, 3]]);
        let identity: Vec<Code> = (0..8).collect();
        let fine = Partition::of_mapped(&s, &[&identity]).unwrap();
        assert_eq!(fine.n_classes(), 4);
        // map everything to 0 -> one class
        let coarse_map = vec![0 as Code; 8];
        let coarse = Partition::of_mapped(&s, &[coarse_map.as_slice()]).unwrap();
        assert_eq!(coarse.n_classes(), 1);
        assert_eq!(coarse.min_class_size(), 4);
    }

    #[test]
    fn mapped_rejects_wrong_arity() {
        let s = sub(vec![vec![0, 1]]);
        let m: Vec<Code> = (0..8).collect();
        assert!(Partition::of_mapped(&s, &[&m, &m]).is_err());
    }

    #[test]
    fn of_columns_rejects_ragged_and_empty() {
        let a = vec![0 as Code, 1];
        let b = vec![0 as Code];
        assert!(Partition::of_columns(&[&a, &b]).is_err());
        assert!(Partition::of_columns(&[]).is_err());
        let empty: Vec<Code> = vec![];
        assert!(Partition::of_columns(&[empty.as_slice()]).is_err());
    }

    #[test]
    fn histogram_and_records_below() {
        let s = sub(vec![vec![0, 0, 0, 1, 1, 2]]);
        let p = Partition::of_subtable(&s).unwrap();
        assert_eq!(p.size_histogram(), vec![(1, 1), (2, 1), (3, 1)]);
        assert_eq!(p.records_below(2), 1); // the singleton
        assert_eq!(p.records_below(3), 3); // singleton + pair
        assert_eq!(p.records_below(10), 6);
    }

    #[test]
    fn classes_lists_every_row_once() {
        let s = sub(vec![vec![1, 0, 1, 0, 2]]);
        let p = Partition::of_subtable(&s).unwrap();
        let classes = p.classes();
        let mut all: Vec<usize> = classes.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_row_is_one_singleton_class() {
        let s = sub(vec![vec![5]]);
        let p = Partition::of_subtable(&s).unwrap();
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.min_class_size(), 1);
    }
}
