//! The joint count table `J` of a masked file against its original: one
//! cell per `(masked pattern, original pattern)` pair some record carries,
//! with its record count and the linkage credits its records share.
//!
//! A record's DBRL, PRL and RSRL credits read its masked values and its
//! own original values, and nothing else of the record: the credit is a
//! function of the record's cell. (This is the channel view of the
//! measures, taken over whole patterns.) A state therefore keeps one `u32`
//! cell id per record instead of three `f64` credits and a self-pattern,
//! and a cell holds:
//!
//! * its DBRL credit, fixed at creation from the masked pattern's link and
//!   the masked-to-original pattern distance;
//! * its PRL agreement bits, fixed at creation;
//! * its PRL credit, recomputed for every live cell at each model refit;
//! * its RSRL credit, recomputed whenever its masked pattern is re-pooled.
//!
//! A measure's value sums the credits of the records in row order
//! ([`JointCells::credit_sums`]): the same `f64`s in the same order as the
//! per-record credit vectors of the oracle scans, so every part is
//! bit-identical to them.
//!
//! The table is open-addressed like [`PatternIndex`], and nothing iterates
//! the slots. An emptied cell is a tombstone that revives under the same
//! id with its fixed values intact, until tombstones outnumber a quarter
//! of the live cells after a patch of several cells: then
//! [`JointCells::compact`] drops them and renumbers the live cells.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use cdp_dataset::{PatternId, PatternIndex};

use crate::linkage::{
    pattern_distance, pattern_link, tie_credit, CandidatePools, PatternCensus, PrlModel,
};
use crate::prepared::PreparedOriginal;

/// Id of a cell of a [`JointCells`] table.
pub(crate) type CellId = u32;

/// An unused slot of the cell table.
const EMPTY: CellId = CellId::MAX;

/// Slot count of a fresh cell table.
const MIN_SLOTS: usize = 16;

/// Per-masked-pattern DBRL links `(best distance, tie mass)`, filled on
/// first use.
pub(crate) type LinkMemo = Vec<Option<(f64, u64)>>;

/// The per-process slot-hash key, drawn once from the standard library's
/// randomly seeded hasher.
fn hash_key() -> [u64; 2] {
    static KEY: OnceLock<[u64; 2]> = OnceLock::new();
    *KEY.get_or_init(|| {
        let state = RandomState::new();
        [state.hash_one(0u64), state.hash_one(1u64)]
    })
}

/// The cells of one masked file: flat per-cell vectors indexed by
/// [`CellId`], the row → cell map, and the slot table.
#[derive(Debug)]
pub(crate) struct JointCells {
    /// `(masked pattern, original pattern)` of each cell.
    pairs: Vec<(PatternId, PatternId)>,
    /// Records currently in each cell (0 = tombstone).
    count: Vec<u32>,
    /// PRL agreement bits of each cell: bit `k` set when the two patterns
    /// agree on attribute `k`.
    agree: Vec<u32>,
    /// `[DBRL, PRL, RSRL]` credit of each record of the cell.
    credit: Vec<[f64; 3]>,
    /// Cell of each record.
    row_cell: Vec<CellId>,
    /// Pair → cell id: ids (or [`EMPTY`]), power-of-two length, at most
    /// half full, probed linearly. Never iterated.
    slots: Vec<CellId>,
    key: [u64; 2],
    /// Number of cells with a non-zero count.
    n_live: usize,
}

impl Clone for JointCells {
    fn clone(&self) -> Self {
        JointCells {
            pairs: self.pairs.clone(),
            count: self.count.clone(),
            agree: self.agree.clone(),
            credit: self.credit.clone(),
            row_cell: self.row_cell.clone(),
            slots: self.slots.clone(),
            key: self.key,
            n_live: self.n_live,
        }
    }

    /// Buffer-reusing copy: every field is a flat vector.
    fn clone_from(&mut self, src: &Self) {
        self.pairs.clone_from(&src.pairs);
        self.count.clone_from(&src.count);
        self.agree.clone_from(&src.agree);
        self.credit.clone_from(&src.credit);
        self.row_cell.clone_from(&src.row_cell);
        self.slots.clone_from(&src.slots);
        self.key = src.key;
        self.n_live = src.n_live;
    }
}

impl JointCells {
    /// Put every record of the masked file behind `masked` (its pattern
    /// index) into its cell. New cells get their DBRL credit and agreement
    /// bits; the PRL and RSRL credits are left to
    /// [`JointCells::credit_prl`] and [`JointCells::credit_rsrl`].
    ///
    /// The records are visited one original pattern at a time
    /// ([`PreparedOriginal::pattern_rows`]), so a record finds its cell by
    /// its masked pattern in a small per-pass array instead of probing the
    /// slot table, which is filled once at the end.
    pub(crate) fn build(prep: &PreparedOriginal, masked: &PatternIndex) -> Self {
        let mut cells = JointCells {
            pairs: Vec::new(),
            count: Vec::new(),
            agree: Vec::new(),
            credit: Vec::new(),
            row_cell: vec![0; masked.n_rows()],
            slots: Vec::new(),
            key: hash_key(),
            n_live: 0,
        };
        let mut links = LinkMemo::new();
        // `seen[m] = (o, c)`: the pass over original pattern `o` met masked
        // pattern `m` and gave it cell `c`
        let mut seen = vec![(PatternId::MAX, 0 as CellId); masked.n_patterns()];
        for o in 0..prep.pattern_index().n_patterns() as PatternId {
            for &row in prep.pattern_rows(o) {
                let m = masked.pattern_of(row as usize);
                let (pass, c) = &mut seen[m as usize];
                if *pass != o {
                    *pass = o;
                    *c = cells.push(prep, masked, (m, o), &mut links);
                }
                cells.count[*c as usize] += 1;
                cells.row_cell[row as usize] = *c;
            }
        }
        // the per-cell vectors grew by doubling; a built state is kept
        // (often for a whole evolution), so it keeps no spare capacity
        cells.pairs.shrink_to_fit();
        cells.count.shrink_to_fit();
        cells.agree.shrink_to_fit();
        cells.credit.shrink_to_fit();
        cells.n_live = cells.pairs.len();
        cells.fill_slots();
        cells
    }

    /// Approximate heap footprint in bytes: the per-cell vectors, the row
    /// map and the slot table.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.pairs.len() * std::mem::size_of::<(PatternId, PatternId)>()
            + (self.count.len() + self.agree.len()) * std::mem::size_of::<u32>()
            + self.credit.len() * std::mem::size_of::<[f64; 3]>()
            + (self.row_cell.len() + self.slots.len()) * std::mem::size_of::<CellId>()
    }

    /// Cell of record `row`.
    #[inline]
    pub(crate) fn cell_of(&self, row: usize) -> CellId {
        self.row_cell[row]
    }

    /// Number of cells, tombstones included.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Live cells as `((masked pattern, original pattern), count,
    /// agreement bits, credits)`, in id order.
    #[cfg(test)]
    pub(crate) fn iter_live(
        &self,
    ) -> impl Iterator<Item = ((PatternId, PatternId), u32, u32, [f64; 3])> + '_ {
        (0..self.pairs.len())
            .filter(|&c| self.count[c] > 0)
            .map(|c| (self.pairs[c], self.count[c], self.agree[c], self.credit[c]))
    }

    /// Re-home `row` after [`PatternIndex::move_row`] moved it in `masked`:
    /// the row leaves its cell for the cell of its new masked pattern and
    /// its (unchanged) original pattern, created when new. `links`
    /// memoizes the DBRL links of new cells' masked patterns across calls.
    pub(crate) fn move_row(
        &mut self,
        prep: &PreparedOriginal,
        masked: &PatternIndex,
        row: usize,
        links: &mut LinkMemo,
    ) {
        let old = self.row_cell[row];
        let (m_old, o) = self.pairs[old as usize];
        let m = masked.pattern_of(row);
        if m == m_old {
            return;
        }
        self.count[old as usize] -= 1;
        if self.count[old as usize] == 0 {
            self.n_live -= 1;
        }
        let c = self.intern(prep, masked, (m, o), links);
        self.count[c as usize] += 1;
        if self.count[c as usize] == 1 {
            self.n_live += 1;
        }
        self.row_cell[row] = c;
    }

    /// Drop the tombstones once they outnumber a quarter of the live
    /// cells: the live cells keep their values and their id order, the row
    /// map follows, and the slot table is refilled. Without this, a
    /// lineage of patched states would keep every cell it ever visited,
    /// up to (masked patterns × original patterns). `O(cells + rows)`.
    pub(crate) fn compact(&mut self) {
        let len = self.pairs.len();
        if 4 * (len - self.n_live) <= self.n_live {
            return;
        }
        let mut renumber = vec![EMPTY; len];
        let mut next = 0;
        for (c, id) in renumber.iter_mut().enumerate() {
            if self.count[c] > 0 {
                *id = next as CellId;
                self.pairs[next] = self.pairs[c];
                self.count[next] = self.count[c];
                self.agree[next] = self.agree[c];
                self.credit[next] = self.credit[c];
                next += 1;
            }
        }
        self.pairs.truncate(next);
        self.count.truncate(next);
        self.agree.truncate(next);
        self.credit.truncate(next);
        for c in &mut self.row_cell {
            *c = renumber[*c as usize];
        }
        self.fill_slots();
    }

    /// Recompute the PRL credit of every live cell under `model`: one
    /// `(best weight, tie mass)` per live masked pattern, then one weight
    /// comparison per cell.
    pub(crate) fn credit_prl(
        &mut self,
        prep: &PreparedOriginal,
        census: &PatternCensus,
        model: &PrlModel,
        masked: &PatternIndex,
    ) {
        let weights = model.pattern_weights(model.agree_weight.len());
        let mut links = vec![(f64::NEG_INFINITY, 0u64); masked.n_patterns()];
        for (pid, _, _) in masked.iter_live() {
            links[pid as usize] = census.best_link(prep, masked, &weights, pid);
        }
        for (c, &(m, _)) in self.pairs.iter().enumerate() {
            if self.count[c] == 0 {
                continue;
            }
            let self_w = weights[self.agree[c] as usize];
            self.credit[c][1] = tie_credit(self_w, links[m as usize]);
        }
    }

    /// Recompute the RSRL credit of cell `c` from the pool of its masked
    /// pattern, when that pattern is pooled.
    pub(crate) fn credit_rsrl_cell(
        &mut self,
        prep: &PreparedOriginal,
        pools: &CandidatePools,
        c: CellId,
    ) {
        let (m, o) = self.pairs[c as usize];
        if let Some(credit) = pools.credit(prep, m, o) {
            self.credit[c as usize][2] = credit;
        }
    }

    /// Recompute the RSRL credit of every live cell whose masked pattern
    /// is pooled.
    pub(crate) fn credit_rsrl(&mut self, prep: &PreparedOriginal, pools: &CandidatePools) {
        for c in 0..self.pairs.len() {
            if self.count[c] > 0 {
                self.credit_rsrl_cell(prep, pools, c as CellId);
            }
        }
    }

    /// The `[DBRL, PRL, RSRL]` credit sums over the records, each folded
    /// in row order from 0.
    pub(crate) fn credit_sums(&self) -> [f64; 3] {
        let mut sums = [0.0f64; 3];
        for &c in &self.row_cell {
            let credit = &self.credit[c as usize];
            sums[0] += credit[0];
            sums[1] += credit[1];
            sums[2] += credit[2];
        }
        sums
    }

    /// Look up (or create, with count 0) the cell of `(m, o)`.
    fn intern(
        &mut self,
        prep: &PreparedOriginal,
        masked: &PatternIndex,
        pair: (PatternId, PatternId),
        links: &mut LinkMemo,
    ) -> CellId {
        let slot = match self.probe(pair) {
            Ok(c) => return c,
            Err(slot) => slot,
        };
        let c = self.push(prep, masked, pair, links);
        if 2 * self.pairs.len() > self.slots.len() {
            self.fill_slots();
        } else {
            self.slots[slot] = c;
        }
        c
    }

    /// Append the cell of `(m, o)`, with count 0 and no slot yet: its
    /// agreement bits and its DBRL credit, `1/ties` when the masked
    /// pattern's best distance is the distance to `o`, else 0.
    fn push(
        &mut self,
        prep: &PreparedOriginal,
        masked: &PatternIndex,
        (m, o): (PatternId, PatternId),
        links: &mut LinkMemo,
    ) -> CellId {
        let q = masked.codes_of(m);
        let p = prep.pattern_index().codes_of(o);
        if links.len() <= m as usize {
            links.resize(masked.n_patterns(), None);
        }
        let link = *links[m as usize].get_or_insert_with(|| pattern_link(prep, q));
        let dbrl = tie_credit(pattern_distance(prep, q, p), link);
        let agree = q
            .iter()
            .zip(p)
            .enumerate()
            .fold(0u32, |bits, (k, (x, y))| bits | u32::from(x == y) << k);
        let c = self.pairs.len() as CellId;
        self.pairs.push((m, o));
        self.count.push(0);
        self.agree.push(agree);
        self.credit.push([dbrl, 0.0, 0.0]);
        c
    }

    /// The slot of a pair: `Ok(id)` when a slot on its probe path holds
    /// it, else `Err(slot)` for the first empty slot on that path.
    /// Terminates because the table is at most half full.
    #[inline]
    fn probe(&self, pair: (PatternId, PatternId)) -> Result<CellId, usize> {
        let mask = self.slots.len() - 1;
        let word = u64::from(pair.0) << 32 | u64::from(pair.1);
        let full = u128::from(word ^ self.key[0]) * u128::from(self.key[1]);
        let mut slot = (full as u64 ^ (full >> 64) as u64) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                c if self.pairs[c as usize] == pair => return Ok(c),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Size the slot table to the smallest power of two (at least
    /// [`MIN_SLOTS`]) that is at most half full, and insert every id.
    fn fill_slots(&mut self) {
        let len = (2 * self.pairs.len()).next_power_of_two().max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, EMPTY);
        for c in 0..self.pairs.len() as CellId {
            let Err(slot) = self.probe(self.pairs[c as usize]) else {
                unreachable!("cell ids name distinct pairs")
            };
            self.slots[slot] = c;
        }
    }
}
