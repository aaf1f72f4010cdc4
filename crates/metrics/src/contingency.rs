//! Dense contingency tables of order 1 and 2 over the protected attributes.
//!
//! The category dictionaries in this domain are tiny (≤ 25 categories), so
//! pairwise tables are a few hundred cells and dense `u32` vectors beat any
//! sparse structure. Tables support O(#attrs) in-place updates after a
//! single-cell mutation, which the incremental evaluator relies on.

use cdp_dataset::{Code, SubTable};

/// Borrowed raw parts of [`ContingencyTables`]:
/// `(singles, pairs, cats)`.
pub(crate) type RawTableParts<'a> = (&'a [Vec<u32>], &'a [(usize, usize, Vec<u32>)], &'a [usize]);

/// Order-1 and order-2 contingency tables of one sub-table.
#[derive(Debug, PartialEq, Eq)]
pub struct ContingencyTables {
    /// `singles[k][v]` = number of records with value `v` on attribute `k`.
    singles: Vec<Vec<u32>>,
    /// For each pair `(i, j)` with `i < j`: flattened `c_i × c_j` counts.
    pairs: Vec<(usize, usize, Vec<u32>)>,
    /// Category count per attribute (for flattening).
    cats: Vec<usize>,
    n_rows: usize,
}

impl Clone for ContingencyTables {
    fn clone(&self) -> Self {
        ContingencyTables {
            singles: self.singles.clone(),
            pairs: self.pairs.clone(),
            cats: self.cats.clone(),
            n_rows: self.n_rows,
        }
    }

    /// Buffer-reusing copy: when the shapes match (the only case on the
    /// evaluator's hot path, where scratch states all describe one schema),
    /// no heap allocation is performed.
    fn clone_from(&mut self, src: &Self) {
        self.singles.clone_from(&src.singles);
        self.cats.clone_from(&src.cats);
        self.n_rows = src.n_rows;
        if self.pairs.len() == src.pairs.len() {
            for (dst, s) in self.pairs.iter_mut().zip(&src.pairs) {
                dst.0 = s.0;
                dst.1 = s.1;
                dst.2.clone_from(&s.2);
            }
        } else {
            self.pairs.clone_from(&src.pairs);
        }
    }
}

impl ContingencyTables {
    /// Build tables from a sub-table.
    pub fn build(sub: &SubTable) -> Self {
        let a = sub.n_attrs();
        let cats: Vec<usize> = (0..a).map(|k| sub.attr(k).n_categories()).collect();
        let mut singles: Vec<Vec<u32>> = cats.iter().map(|&c| vec![0u32; c]).collect();
        for (k, single) in singles.iter_mut().enumerate() {
            for &v in sub.column(k) {
                single[v as usize] += 1;
            }
        }
        let mut pairs = Vec::new();
        for i in 0..a {
            for j in (i + 1)..a {
                let mut table = vec![0u32; cats[i] * cats[j]];
                let (ci, cj) = (sub.column(i), sub.column(j));
                for r in 0..sub.n_rows() {
                    table[ci[r] as usize * cats[j] + cj[r] as usize] += 1;
                }
                pairs.push((i, j, table));
            }
        }
        ContingencyTables {
            singles,
            pairs,
            cats,
            n_rows: sub.n_rows(),
        }
    }

    /// The raw parts: `(singles, pairs, cats)`; `n_rows` is
    /// [`ContingencyTables::n_rows`].
    pub(crate) fn raw_parts(&self) -> RawTableParts<'_> {
        (&self.singles, &self.pairs, &self.cats)
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        let cell = std::mem::size_of::<u32>();
        let singles: usize = self.singles.iter().map(|s| s.len() * cell).sum();
        let pairs: usize = self.pairs.iter().map(|(_, _, t)| t.len() * cell).sum();
        singles + pairs + self.cats.len() * std::mem::size_of::<usize>()
    }

    /// Number of tables (singles + pairs).
    pub fn n_tables(&self) -> usize {
        self.singles.len() + self.pairs.len()
    }

    /// Number of records the tables were built from.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Update the tables after one cell of `masked` changed: record `row`,
    /// attribute `k`, previous code `old` (the new code is read from
    /// `masked`). O(#attrs).
    pub fn apply_mutation(&mut self, masked: &SubTable, row: usize, k: usize, old: Code) {
        self.apply_row_patch(masked, row, &[(k, old)]);
    }

    /// Update the tables after several cells of *one* record changed at
    /// once: `changed` lists `(attribute, previous code)` pairs, the new
    /// codes are read from `masked`. Handling a whole row in one call keeps
    /// the pair tables exact when two attributes of the same record change
    /// together (per-cell updates would mis-credit the intermediate pair).
    /// O(#attrs²).
    pub fn apply_row_patch(&mut self, masked: &SubTable, row: usize, changed: &[(usize, Code)]) {
        let old_of = |k: usize| {
            changed
                .iter()
                .find(|&&(kk, _)| kk == k)
                .map_or_else(|| masked.get(row, k), |&(_, old)| old)
        };
        for &(k, old) in changed {
            let new = masked.get(row, k);
            if new == old {
                continue;
            }
            self.singles[k][old as usize] -= 1;
            self.singles[k][new as usize] += 1;
        }
        for (i, j, table) in &mut self.pairs {
            let (oi, oj) = (old_of(*i) as usize, old_of(*j) as usize);
            let (ni, nj) = (masked.get(row, *i) as usize, masked.get(row, *j) as usize);
            if (oi, oj) == (ni, nj) {
                continue;
            }
            table[oi * self.cats[*j] + oj] -= 1;
            table[ni * self.cats[*j] + nj] += 1;
        }
    }

    /// Normalized total-variation distance to another set of tables,
    /// averaged over tables and scaled to `[0, 100]`:
    /// `100 · Σ_t Σ_cells |a − b| / (2·n·T)`.
    ///
    /// # Panics
    /// Panics when the two table sets have different shapes (programming
    /// error: both sides must come from the same schema).
    pub fn distance(&self, other: &ContingencyTables) -> f64 {
        assert_eq!(self.cats, other.cats, "tables from different schemas");
        assert_eq!(self.n_rows, other.n_rows, "tables from different sizes");
        let mut sum = 0u64;
        for (a, b) in self.singles.iter().zip(other.singles.iter()) {
            for (&x, &y) in a.iter().zip(b.iter()) {
                sum += u64::from(x.abs_diff(y));
            }
        }
        for ((_, _, a), (_, _, b)) in self.pairs.iter().zip(other.pairs.iter()) {
            for (&x, &y) in a.iter().zip(b.iter()) {
                sum += u64::from(x.abs_diff(y));
            }
        }
        let denom = 2.0 * self.n_rows as f64 * self.n_tables() as f64;
        if denom == 0.0 {
            0.0
        } else {
            100.0 * sum as f64 / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};

    fn sub() -> SubTable {
        DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(1).with_records(80))
            .protected_subtable()
    }

    #[test]
    fn identical_tables_have_zero_distance() {
        let s = sub();
        let a = ContingencyTables::build(&s);
        let b = ContingencyTables::build(&s);
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn table_count_for_three_attrs() {
        let t = ContingencyTables::build(&sub());
        assert_eq!(t.n_tables(), 3 + 3); // 3 singles + 3 pairs
    }

    #[test]
    fn distance_grows_with_changes() {
        let s = sub();
        let base = ContingencyTables::build(&s);
        let mut one = s.clone();
        one.set(
            0,
            0,
            (one.get(0, 0) + 1) % one.attr(0).n_categories() as Code,
        );
        let mut many = one.clone();
        for r in 1..20 {
            many.set(
                r,
                1,
                (many.get(r, 1) + 1) % many.attr(1).n_categories() as Code,
            );
        }
        let d1 = base.distance(&ContingencyTables::build(&one));
        let d2 = base.distance(&ContingencyTables::build(&many));
        assert!(d1 > 0.0);
        assert!(d2 > d1);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let s = sub();
        let mut m = s.clone();
        for r in 0..s.n_rows() {
            m.set(r, 2, 0);
        }
        let a = ContingencyTables::build(&s);
        let b = ContingencyTables::build(&m);
        let d = a.distance(&b);
        assert!((d - b.distance(&a)).abs() < 1e-12);
        assert!((0.0..=100.0).contains(&d));
    }

    #[test]
    fn apply_mutation_matches_rebuild() {
        let s = sub();
        let mut tables = ContingencyTables::build(&s);
        let mut m = s.clone();
        // a chain of mutations, table updated in place each time
        let muts = [(0usize, 0usize, 5u16), (3, 1, 2), (7, 2, 9), (0, 0, 1)];
        for &(row, k, new) in &muts {
            let new = new % m.attr(k).n_categories() as Code;
            let old = m.get(row, k);
            m.set(row, k, new);
            tables.apply_mutation(&m, row, k, old);
        }
        assert_eq!(tables, ContingencyTables::build(&m));
    }

    #[test]
    fn apply_row_patch_matches_rebuild_when_two_attrs_of_one_row_change() {
        let s = sub();
        let mut tables = ContingencyTables::build(&s);
        let mut m = s.clone();
        let old0 = m.get(4, 0);
        let old2 = m.get(4, 2);
        m.set(4, 0, (old0 + 3) % m.attr(0).n_categories() as Code);
        m.set(4, 2, (old2 + 5) % m.attr(2).n_categories() as Code);
        tables.apply_row_patch(&m, 4, &[(0, old0), (2, old2)]);
        assert_eq!(tables, ContingencyTables::build(&m));
    }

    #[test]
    fn clone_from_reuses_matching_shape() {
        let s = sub();
        let a = ContingencyTables::build(&s);
        let mut m = s.clone();
        m.set(0, 0, (m.get(0, 0) + 1) % m.attr(0).n_categories() as Code);
        let mut b = ContingencyTables::build(&m);
        b.clone_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn apply_mutation_noop_when_code_unchanged() {
        let s = sub();
        let mut tables = ContingencyTables::build(&s);
        let before = tables.clone();
        tables.apply_mutation(&s, 0, 0, s.get(0, 0));
        assert_eq!(tables, before);
    }
}
