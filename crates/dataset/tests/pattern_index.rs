//! Parity of [`PatternIndex`] with a naive linear-scan dictionary: ids,
//! first-occurrence order, `find`, multiplicities, the live count and
//! `move_row` revivals, on random tables of 1–6 attributes, through random
//! row moves that tombstone and revive patterns.
//!
//! Instances are generated from `(shape, seed)` tuples via seeded RNGs, as
//! in the metrics crate's property tests.

use std::sync::Arc;

use cdp_dataset::{Attribute, Code, PatternId, PatternIndex, Schema, SubTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference: a dictionary of code tuples scanned linearly, ids in
/// first-occurrence order.
struct NaiveIndex {
    patterns: Vec<Vec<Code>>,
    mult: Vec<u32>,
    row_pid: Vec<PatternId>,
}

impl NaiveIndex {
    fn build(sub: &SubTable) -> Self {
        let mut naive = NaiveIndex {
            patterns: Vec::new(),
            mult: Vec::new(),
            row_pid: Vec::new(),
        };
        for row in 0..sub.n_rows() {
            let pid = naive.intern(&row_codes(sub, row));
            naive.mult[pid as usize] += 1;
            naive.row_pid.push(pid);
        }
        naive
    }

    fn find(&self, codes: &[Code]) -> Option<PatternId> {
        self.patterns
            .iter()
            .position(|p| p == codes)
            .map(|p| p as PatternId)
    }

    fn intern(&mut self, codes: &[Code]) -> PatternId {
        self.find(codes).unwrap_or_else(|| {
            self.patterns.push(codes.to_vec());
            self.mult.push(0);
            (self.patterns.len() - 1) as PatternId
        })
    }

    fn move_row(&mut self, row: usize, codes: &[Code]) -> (PatternId, PatternId) {
        let old = self.row_pid[row];
        let new = self.intern(codes);
        self.mult[old as usize] -= 1;
        self.mult[new as usize] += 1;
        self.row_pid[row] = new;
        (old, new)
    }

    fn n_live(&self) -> usize {
        self.mult.iter().filter(|&&m| m > 0).count()
    }
}

fn row_codes(sub: &SubTable, row: usize) -> Vec<Code> {
    let mut buf = vec![0 as Code; sub.n_attrs()];
    sub.read_row(row, &mut buf);
    buf
}

/// `a` attributes of 2–9 categories, `n` rows drawn uniformly.
fn random_subtable(a: usize, n: usize, rng: &mut StdRng) -> SubTable {
    let attrs: Vec<Attribute> = (0..a)
        .map(|i| Attribute::nominal(format!("A{i}"), rng.gen_range(2..=9)))
        .collect();
    let schema = Arc::new(Schema::new(attrs).unwrap());
    let columns: Vec<Vec<Code>> = (0..a)
        .map(|k| {
            let c = schema.attr(k).n_categories() as Code;
            (0..n).map(|_| rng.gen_range(0..c)).collect()
        })
        .collect();
    SubTable::new(schema, (0..a).collect(), columns).unwrap()
}

/// Everything the index answers equals the naive dictionary's answer.
fn assert_matches(index: &PatternIndex, naive: &NaiveIndex, sub: &SubTable) {
    index.check_consistent(sub);
    assert_eq!(index.n_patterns(), naive.patterns.len());
    assert_eq!(index.n_live(), naive.n_live());
    for row in 0..sub.n_rows() {
        assert_eq!(index.pattern_of(row), naive.row_pid[row], "row {row}");
    }
    for (pid, codes) in naive.patterns.iter().enumerate() {
        let pid = pid as PatternId;
        assert_eq!(index.codes_of(pid), &codes[..]);
        assert_eq!(index.multiplicity(pid), naive.mult[pid as usize]);
        assert_eq!(index.find(codes), Some(pid));
    }
    let live: Vec<(PatternId, Vec<Code>, u32)> = index
        .iter_live()
        .map(|(pid, codes, m)| (pid, codes.to_vec(), m))
        .collect();
    let naive_live: Vec<(PatternId, Vec<Code>, u32)> = naive
        .patterns
        .iter()
        .zip(&naive.mult)
        .enumerate()
        .filter(|(_, (_, &m))| m > 0)
        .map(|(pid, (codes, &m))| (pid as PatternId, codes.clone(), m))
        .collect();
    assert_eq!(live, naive_live, "iter_live order");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Build and a random walk of row moves. A third of the moves copy
    /// another row's codes and a third revive a tombstone's codes, so
    /// revivals and shared patterns are common; the rest draw fresh tuples.
    /// With up to 400 rows over up to six attributes, most cases intern
    /// well over 64 patterns, growing and rehashing the slot table several
    /// times.
    #[test]
    fn pattern_index_matches_a_linear_scan_dictionary(
        a in 1usize..=6, n in 1usize..=400, moves in 0usize..=120, seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sub = random_subtable(a, n, &mut rng);
        let mut index = PatternIndex::build(&sub);
        let mut naive = NaiveIndex::build(&sub);
        assert_matches(&index, &naive, &sub);
        let columns: Vec<&[Code]> = (0..a).map(|k| sub.column(k)).collect();
        let from_columns = PatternIndex::from_columns(&columns);
        for row in 0..n {
            prop_assert_eq!(from_columns.pattern_of(row), index.pattern_of(row));
        }

        for step in 0..moves {
            let row = rng.gen_range(0..n);
            let codes: Vec<Code> = match step % 3 {
                0 => row_codes(&sub, rng.gen_range(0..n)),
                1 => match naive.mult.iter().position(|&m| m == 0) {
                    Some(dead) => naive.patterns[dead].clone(),
                    None => row_codes(&sub, rng.gen_range(0..n)),
                },
                _ => (0..a)
                    .map(|k| rng.gen_range(0..sub.attr(k).n_categories() as Code))
                    .collect(),
            };
            for (k, &v) in codes.iter().enumerate() {
                sub.set(row, k, v);
            }
            prop_assert_eq!(index.move_row(row, &codes), naive.move_row(row, &codes));
            if step % 16 == 0 {
                assert_matches(&index, &naive, &sub);
            }
        }
        assert_matches(&index, &naive, &sub);

        // tuples outside the dictionary are not found
        for _ in 0..16 {
            let codes: Vec<Code> = (0..a)
                .map(|k| rng.gen_range(0..sub.attr(k).n_categories() as Code))
                .collect();
            prop_assert_eq!(index.find(&codes), naive.find(&codes));
        }

        // a clone, and a copy into an index of another shape, answer alike
        assert_matches(&index.clone(), &naive, &sub);
        let mut scratch = PatternIndex::build(&random_subtable(a, 3, &mut rng));
        scratch.clone_from(&index);
        assert_matches(&scratch, &naive, &sub);
    }
}
