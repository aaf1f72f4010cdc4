//! Pattern index: dictionary-encoded deduplication of rows into distinct
//! value patterns.
//!
//! Categorical files have far fewer *distinct* protected-attribute patterns
//! than records — at most `Π_k c_k` (1568 for the paper's Adult selection of
//! 16 × 7 × 14 categories) regardless of row count. A [`PatternIndex`] maps
//! each row to the id of its distinct pattern and keeps, per pattern, the
//! codes and the multiplicity (how many rows currently carry it). Any per-record computation whose result
//! depends only on the record's own values then costs `O(p)` pattern
//! evaluations plus an `O(n)` fan-out instead of `O(n)` full evaluations —
//! this is what turns the all-pairs `O(n²·a)` linkage scans of the metrics
//! crate into `O(n·a + p_m·p_o·a)` blocked scans.
//!
//! # Invariants
//!
//! * **Stable ids.** A pattern id, once assigned to a code tuple, is never
//!   reused for a different tuple — a pattern whose multiplicity drops to 0
//!   keeps its id (a tombstone, skipped by [`PatternIndex::iter_live`]) and
//!   revives with the same id when a row moves back onto it. Caches keyed by
//!   pattern id therefore stay valid across arbitrary [`PatternIndex::move_row`]
//!   sequences.
//! * **First-occurrence order.** Ids are assigned in order of first
//!   appearance, and [`PatternIndex::iter_live`] yields live patterns in id
//!   order. Consumers that must replay a row-order scan deterministically
//!   (e.g. bit-exact tie-breaking in record linkage) rely on this.
//! * **Exact multiplicities.** `Σ multiplicity(live patterns) == n_rows` at
//!   all times; [`PatternIndex::move_row`] maintains this incrementally in
//!   `O(a)` expected time per call.
//! * **Key-free results.** The dictionary is an open-addressed table of
//!   pattern ids (power-of-two length, at most half full, linear probing)
//!   whose keys are the code tuples already stored per id; a probe compares
//!   against those codes in place. The slot hash mixes in a per-process
//!   random key, so no fixed input can force long probe chains. Nothing
//!   iterates the slot table: ids, orders and every consumer's output are
//!   the same whatever the key, and a clone is a few flat copies.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use crate::{Code, SubTable};

/// Id of a distinct pattern inside a [`PatternIndex`].
pub type PatternId = u32;

/// An unused slot of the dictionary table.
const EMPTY: PatternId = PatternId::MAX;

/// Slot count of a fresh dictionary table.
const MIN_SLOTS: usize = 16;

/// The per-process slot-hash key, drawn once from the standard library's
/// randomly seeded hasher.
fn hash_key() -> [u64; 2] {
    static KEY: OnceLock<[u64; 2]> = OnceLock::new();
    *KEY.get_or_init(|| {
        let state = RandomState::new();
        [state.hash_one(0u64), state.hash_one(1u64)]
    })
}

/// The folded 128-bit product: the low and high halves of `a · b` xored.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    full as u64 ^ (full >> 64) as u64
}

/// Distinct-row index over a [`SubTable`]: pattern dictionary, row → pattern
/// map and multiplicities, four flat vectors.
///
/// See the module docs for the id-stability and ordering invariants.
#[derive(Debug)]
pub struct PatternIndex {
    n_attrs: usize,
    /// Pattern codes, `n_attrs` per pattern: pattern `p` is
    /// `codes[p*n_attrs .. (p+1)*n_attrs]`.
    codes: Vec<Code>,
    /// Rows currently carrying each pattern (0 = tombstone).
    mult: Vec<u32>,
    /// Pattern id of each row.
    row_pid: Vec<PatternId>,
    /// Code tuple → pattern id: an open-addressed table of ids (or
    /// [`EMPTY`]), power-of-two length, at most half full, probed linearly
    /// from the tuple's slot hash. Never iterated.
    slots: Vec<PatternId>,
    /// The slot-hash key ([`hash_key`]).
    key: [u64; 2],
    /// Number of patterns with non-zero multiplicity.
    n_live: usize,
}

impl Clone for PatternIndex {
    fn clone(&self) -> Self {
        PatternIndex {
            n_attrs: self.n_attrs,
            codes: self.codes.clone(),
            mult: self.mult.clone(),
            row_pid: self.row_pid.clone(),
            slots: self.slots.clone(),
            key: self.key,
            n_live: self.n_live,
        }
    }

    /// Buffer-reusing copy: every field is a flat vector, so scratch
    /// evaluation states copy an index without allocating once their
    /// capacities have grown to the source's.
    fn clone_from(&mut self, src: &Self) {
        self.n_attrs = src.n_attrs;
        self.codes.clone_from(&src.codes);
        self.mult.clone_from(&src.mult);
        self.row_pid.clone_from(&src.row_pid);
        self.slots.clone_from(&src.slots);
        self.key = src.key;
        self.n_live = src.n_live;
    }
}

impl PatternIndex {
    /// Index every row of `sub`. `O(n·a)` expected time.
    pub fn build(sub: &SubTable) -> Self {
        let columns: Vec<&[Code]> = (0..sub.n_attrs()).map(|k| sub.column(k)).collect();
        PatternIndex::from_columns(&columns)
    }

    /// Index the rows spelled by parallel code columns (row `r` is
    /// `columns[k][r]` over `k`), with no schema at hand. Ids, row map and
    /// multiplicities are exactly those [`PatternIndex::build`] assigns to
    /// a sub-table holding the same columns.
    ///
    /// # Panics
    /// When `columns` is empty or the columns differ in length.
    pub fn from_columns(columns: &[&[Code]]) -> Self {
        let a = columns.len();
        assert!(a > 0, "a pattern index needs at least one attribute");
        let n = columns[0].len();
        assert!(
            columns.iter().all(|col| col.len() == n),
            "pattern index columns differ in length"
        );
        let mut idx = PatternIndex {
            n_attrs: a,
            codes: Vec::new(),
            mult: Vec::new(),
            row_pid: Vec::with_capacity(n),
            slots: vec![EMPTY; MIN_SLOTS],
            key: hash_key(),
            n_live: 0,
        };
        let mut buf = vec![0 as Code; a];
        for row in 0..n {
            for (slot, col) in buf.iter_mut().zip(columns) {
                *slot = col[row];
            }
            let pid = idx.intern(&buf);
            idx.mult[pid as usize] += 1;
            if idx.mult[pid as usize] == 1 {
                idx.n_live += 1;
            }
            idx.row_pid.push(pid);
        }
        idx
    }

    /// Approximate heap footprint in bytes: dictionary, multiplicities,
    /// row map and the slot table.
    pub fn approx_bytes(&self) -> usize {
        let codes = self.codes.len() * std::mem::size_of::<Code>();
        let mult = self.mult.len() * std::mem::size_of::<u32>();
        let rows = self.row_pid.len() * std::mem::size_of::<PatternId>();
        let slots = self.slots.len() * std::mem::size_of::<PatternId>();
        codes + mult + rows + slots
    }

    /// Number of attributes per pattern.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.row_pid.len()
    }

    /// Number of pattern ids ever assigned (live + tombstones). Caches keyed
    /// by pattern id should be sized by this.
    pub fn n_patterns(&self) -> usize {
        self.mult.len()
    }

    /// Number of patterns currently carried by at least one row.
    pub fn n_live(&self) -> usize {
        self.n_live
    }

    /// Pattern id of `row`.
    #[inline]
    pub fn pattern_of(&self, row: usize) -> PatternId {
        self.row_pid[row]
    }

    /// The code tuple of pattern `pid`.
    #[inline]
    pub fn codes_of(&self, pid: PatternId) -> &[Code] {
        let p = pid as usize * self.n_attrs;
        &self.codes[p..p + self.n_attrs]
    }

    /// How many rows currently carry pattern `pid` (0 for a tombstone).
    #[inline]
    pub fn multiplicity(&self, pid: PatternId) -> u32 {
        self.mult[pid as usize]
    }

    /// Live patterns as `(id, codes, multiplicity)`, in id order — which is
    /// first-occurrence order for ids assigned by [`PatternIndex::build`].
    pub fn iter_live(&self) -> impl Iterator<Item = (PatternId, &[Code], u32)> + '_ {
        self.mult
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 0)
            .map(move |(p, &m)| (p as PatternId, self.codes_of(p as PatternId), m))
    }

    /// The id of the pattern spelled by `codes`, if the index has one (live
    /// or tombstoned). `O(a)` expected time.
    pub fn find(&self, codes: &[Code]) -> Option<PatternId> {
        self.probe(codes).ok()
    }

    /// Re-home `row` onto the pattern described by `new_codes` (its current
    /// values in the underlying sub-table). Returns `(old_pid, new_pid)`;
    /// the two are equal when the row's pattern did not actually change.
    /// `O(a)` expected time.
    pub fn move_row(&mut self, row: usize, new_codes: &[Code]) -> (PatternId, PatternId) {
        debug_assert_eq!(new_codes.len(), self.n_attrs);
        let old = self.row_pid[row];
        if self.codes_of(old) == new_codes {
            return (old, old);
        }
        let new = self.intern(new_codes);
        self.mult[old as usize] -= 1;
        if self.mult[old as usize] == 0 {
            self.n_live -= 1;
        }
        self.mult[new as usize] += 1;
        if self.mult[new as usize] == 1 {
            self.n_live += 1;
        }
        self.row_pid[row] = new;
        (old, new)
    }

    /// Look up (or create, with multiplicity 0) the id of a code tuple.
    fn intern(&mut self, codes: &[Code]) -> PatternId {
        let slot = match self.probe(codes) {
            Ok(pid) => return pid,
            Err(slot) => slot,
        };
        let pid = self.mult.len() as PatternId;
        self.codes.extend_from_slice(codes);
        self.mult.push(0);
        if 2 * self.mult.len() > self.slots.len() {
            self.grow();
        } else {
            self.slots[slot] = pid;
        }
        pid
    }

    /// The slot of a code tuple: `Ok(id)` when a slot on its probe path
    /// holds it, else `Err(slot)` for the first empty slot on that path.
    /// Terminates because the table is at most half full.
    #[inline]
    fn probe(&self, codes: &[Code]) -> Result<PatternId, usize> {
        let mask = self.slots.len() - 1;
        let mut h = self.key[0];
        for chunk in codes.chunks(4) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &c)| w | u64::from(c) << (16 * i));
            h = folded_multiply(h ^ word, self.key[1]);
        }
        let mut slot = h as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                pid if self.codes_of(pid) == codes => return Ok(pid),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the slot table and re-insert every id (in id order; the ids
    /// are distinct, so each lands on an empty slot).
    fn grow(&mut self) {
        let len = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(len, EMPTY);
        for pid in 0..self.mult.len() as PatternId {
            let Err(slot) = self.probe(self.codes_of(pid)) else {
                unreachable!("pattern ids name distinct code tuples")
            };
            self.slots[slot] = pid;
        }
    }

    /// Check the internal invariants (test helper): multiplicities match the
    /// row map, every row's codes match its pattern, and the slot table is
    /// at most half full and finds every pattern under its own id.
    pub fn check_consistent(&self, sub: &SubTable) {
        assert_eq!(self.n_rows(), sub.n_rows());
        let mut counts = vec![0u32; self.n_patterns()];
        let mut buf = vec![0 as Code; self.n_attrs];
        for row in 0..sub.n_rows() {
            let pid = self.row_pid[row];
            sub.read_row(row, &mut buf);
            assert_eq!(self.codes_of(pid), &buf[..], "row {row} codes drifted");
            counts[pid as usize] += 1;
        }
        assert_eq!(counts, self.mult, "multiplicities drifted");
        assert_eq!(
            self.n_live,
            self.mult.iter().filter(|&&m| m > 0).count(),
            "live count drifted"
        );
        assert!(
            self.slots.len().is_power_of_two() && 2 * self.n_patterns() <= self.slots.len(),
            "slot table over half full"
        );
        for pid in 0..self.n_patterns() as PatternId {
            assert_eq!(
                self.find(self.codes_of(pid)),
                Some(pid),
                "slot table lost {pid}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{Attribute, Schema};

    fn sub(rows: &[[Code; 2]]) -> SubTable {
        let schema = Arc::new(
            Schema::new(vec![Attribute::ordinal("A", 5), Attribute::nominal("B", 4)]).unwrap(),
        );
        let cols = vec![
            rows.iter().map(|r| r[0]).collect(),
            rows.iter().map(|r| r[1]).collect(),
        ];
        SubTable::new(schema, vec![0, 1], cols).unwrap()
    }

    #[test]
    fn dedups_rows_into_first_occurrence_order() {
        let s = sub(&[[0, 1], [2, 3], [0, 1], [4, 0], [2, 3], [0, 1]]);
        let idx = PatternIndex::build(&s);
        assert_eq!(idx.n_rows(), 6);
        assert_eq!(idx.n_patterns(), 3);
        assert_eq!(idx.n_live(), 3);
        let live: Vec<_> = idx.iter_live().collect();
        assert_eq!(live[0], (0, &[0, 1][..], 3));
        assert_eq!(live[1], (1, &[2, 3][..], 2));
        assert_eq!(live[2], (2, &[4, 0][..], 1));
        assert_eq!(idx.pattern_of(4), 1);
        idx.check_consistent(&s);
    }

    #[test]
    fn from_columns_matches_build_and_find_resolves_tuples() {
        let s = sub(&[[0, 1], [2, 3], [0, 1], [4, 0], [2, 3], [0, 1]]);
        let built = PatternIndex::build(&s);
        let cols = PatternIndex::from_columns(&[s.column(0), s.column(1)]);
        assert_eq!(
            (&cols.codes, &cols.mult, &cols.row_pid),
            (&built.codes, &built.mult, &built.row_pid)
        );
        assert_eq!(built.find(&[4, 0]), Some(2));
        assert_eq!(built.find(&[4, 1]), None);
    }

    #[test]
    fn move_row_keeps_ids_stable_and_revives_tombstones() {
        let mut s = sub(&[[0, 1], [2, 3], [0, 1]]);
        let mut idx = PatternIndex::build(&s);
        // move row 1 onto pattern [0,1]: [2,3] becomes a tombstone
        s.set(1, 0, 0);
        s.set(1, 1, 1);
        let (old, new) = idx.move_row(1, &[0, 1]);
        assert_eq!((old, new), (1, 0));
        assert_eq!(idx.multiplicity(1), 0);
        assert_eq!(idx.multiplicity(0), 3);
        assert_eq!(idx.n_live(), 1);
        assert_eq!(idx.n_patterns(), 2);
        idx.check_consistent(&s);
        // move it back: same id revives, no new pattern allocated
        s.set(1, 0, 2);
        s.set(1, 1, 3);
        let (old, new) = idx.move_row(1, &[2, 3]);
        assert_eq!((old, new), (0, 1));
        assert_eq!(idx.n_patterns(), 2);
        assert_eq!(idx.n_live(), 2);
        idx.check_consistent(&s);
    }

    #[test]
    fn move_to_same_pattern_is_a_noop() {
        let s = sub(&[[0, 1], [2, 3]]);
        let mut idx = PatternIndex::build(&s);
        let (old, new) = idx.move_row(0, &[0, 1]);
        assert_eq!(old, new);
        idx.check_consistent(&s);
    }

    #[test]
    fn incremental_moves_match_a_fresh_build() {
        // random walk: after arbitrary moves the partition equals a rebuild
        let mut s = sub(&[[0, 1], [1, 2], [2, 3], [3, 0], [4, 1], [0, 1]]);
        let mut idx = PatternIndex::build(&s);
        let moves: &[(usize, [Code; 2])] = &[
            (0, [1, 2]),
            (3, [0, 1]),
            (5, [4, 1]),
            (2, [2, 3]),
            (1, [0, 1]),
            (4, [3, 0]),
        ];
        for &(row, codes) in moves {
            s.set(row, 0, codes[0]);
            s.set(row, 1, codes[1]);
            idx.move_row(row, &codes);
            idx.check_consistent(&s);
        }
        let fresh = PatternIndex::build(&s);
        for row in 0..s.n_rows() {
            assert_eq!(
                idx.codes_of(idx.pattern_of(row)),
                fresh.codes_of(fresh.pattern_of(row))
            );
        }
        assert_eq!(idx.n_live(), fresh.n_live());
    }

    #[test]
    fn approx_bytes_counts_all_components() {
        let s = sub(&[[0, 1], [2, 3], [0, 1]]);
        let idx = PatternIndex::build(&s);
        let floor = idx.n_patterns() * 2 * std::mem::size_of::<Code>()
            + idx.n_patterns() * std::mem::size_of::<u32>()
            + idx.n_rows() * std::mem::size_of::<PatternId>();
        assert!(idx.approx_bytes() > floor, "slots counted");
    }

    #[test]
    fn clone_from_matches_clone() {
        let s = sub(&[[0, 1], [2, 3], [0, 1]]);
        let idx = PatternIndex::build(&s);
        let other = sub(&[[4, 0], [4, 0], [1, 1]]);
        let mut scratch = PatternIndex::build(&other);
        scratch.clone_from(&idx);
        scratch.check_consistent(&s);
        assert_eq!(scratch.n_patterns(), idx.n_patterns());
    }
}
