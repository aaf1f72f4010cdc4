//! Patches: compact descriptions of the cells a genetic operator changed.
//!
//! A [`Patch`] is the contract between the operators in `cdp-core` and
//! [`crate::Evaluator::reassess`]: it names every cell whose value may have
//! changed together with the value each cell held *before* the change (the
//! new values are read from the masked file itself). The two constructors
//! mirror the paper's two operators:
//!
//! * [`Patch::cell`] — a single-cell mutation (§2.2.1);
//! * [`Patch::flat_range`] — the inclusive flattened segment `[s, r]` a
//!   2-point crossover overwrote (§2.2.2), carrying the overwritten values.
//!
//! Cells whose old value equals the current masked value are ignored at
//! apply time, so a crossover segment may be handed over verbatim even when
//! the two parents agree on most of it.

use cdp_dataset::Code;

/// One changed cell: where it is, and what value it held before the change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchCell {
    /// Record index.
    pub row: usize,
    /// Protected-attribute index (local to the sub-table).
    pub attr: usize,
    /// Value the cell held before the change.
    pub old: Code,
}

#[derive(Debug, Clone)]
enum Repr {
    /// One cell, stored inline — [`Patch::cell`] allocates nothing.
    Single(PatchCell),
    /// Explicit cell list.
    Cells(Vec<PatchCell>),
    /// A contiguous flattened range starting at `start` (row-major layout),
    /// with the overwritten value per position.
    Flat { start: usize, old: Vec<Code> },
}

/// A set of changed cells with their pre-change values.
///
/// Flat ranges are stored as `(start, old values)` and resolved into
/// `(row, attr)` coordinates lazily (the row-major layout needs the
/// attribute count, which the evaluator knows).
#[derive(Debug, Clone)]
pub struct Patch {
    repr: Repr,
}

impl Patch {
    /// A single-cell patch — the mutation operator's shape. Performs no
    /// heap allocation.
    pub fn cell(row: usize, attr: usize, old: Code) -> Self {
        Patch {
            repr: Repr::Single(PatchCell { row, attr, old }),
        }
    }

    /// An explicit cell list. At most one entry per cell: duplicates make
    /// the incremental updates double-apply and are a caller bug (checked
    /// at apply time).
    pub fn from_cells(cells: Vec<PatchCell>) -> Self {
        Patch {
            repr: Repr::Cells(cells),
        }
    }

    /// The inclusive flattened range `[s, r]` — the two-point-crossover
    /// shape. `old_values[i]` is the value flat position `s + i` held
    /// before the segment swap.
    ///
    /// # Panics
    /// Panics when `s > r` or `old_values.len() != r - s + 1`.
    pub fn flat_range(s: usize, r: usize, old_values: Vec<Code>) -> Self {
        assert!(s <= r, "flat range must satisfy s <= r, got [{s}, {r}]");
        assert_eq!(
            old_values.len(),
            r - s + 1,
            "flat range [{s}, {r}] needs {} old values, got {}",
            r - s + 1,
            old_values.len()
        );
        Patch {
            repr: Repr::Flat {
                start: s,
                old: old_values,
            },
        }
    }

    /// Number of cells the patch names (including cells that may turn out
    /// unchanged).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Single(_) => 1,
            Repr::Cells(cells) => cells.len(),
            Repr::Flat { old, .. } => old.len(),
        }
    }

    /// Whether the patch names no cells at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The patch's one cell, when it names exactly one — the evaluator's
    /// allocation-free fast path. `n_attrs` resolves a one-position flat
    /// range.
    pub(crate) fn single_cell(&self, n_attrs: usize) -> Option<PatchCell> {
        match &self.repr {
            Repr::Single(cell) => Some(*cell),
            Repr::Cells(cells) if cells.len() == 1 => Some(cells[0]),
            Repr::Flat { start, old } if old.len() == 1 => Some(PatchCell {
                row: start / n_attrs,
                attr: start % n_attrs,
                old: old[0],
            }),
            _ => None,
        }
    }

    /// Visit every named cell once, in `(row, attr)` order, under a
    /// row-major flat layout with `n_attrs` columns. A flat range is already
    /// in that order and cannot name a cell twice, so it is walked in place;
    /// an explicit list is resolved, sorted and checked.
    ///
    /// # Panics
    /// When a cell list names the same cell twice: every incremental update
    /// would apply twice, silently corrupting the integer counts the
    /// bit-exactness contract builds on.
    pub(crate) fn for_each_in_order(&self, n_attrs: usize, mut visit: impl FnMut(PatchCell)) {
        match &self.repr {
            Repr::Single(cell) => visit(*cell),
            Repr::Cells(cells) => {
                let mut cells = cells.clone();
                cells.sort_unstable_by_key(|c| (c.row, c.attr));
                assert!(
                    cells
                        .windows(2)
                        .all(|w| (w[0].row, w[0].attr) != (w[1].row, w[1].attr)),
                    "patch names the same cell twice"
                );
                cells.into_iter().for_each(visit);
            }
            Repr::Flat { start, old } => {
                let (mut row, mut attr) = (start / n_attrs, start % n_attrs);
                for &v in old {
                    visit(PatchCell { row, attr, old: v });
                    attr += 1;
                    if attr == n_attrs {
                        attr = 0;
                        row += 1;
                    }
                }
            }
        }
    }

    /// Resolve to explicit cells under a row-major flat layout with
    /// `n_attrs` columns (flat position `p` ↦ row `p / n_attrs`, attribute
    /// `p % n_attrs`).
    pub fn resolve(&self, n_attrs: usize) -> Vec<PatchCell> {
        match &self.repr {
            Repr::Single(cell) => vec![*cell],
            Repr::Cells(cells) => cells.clone(),
            Repr::Flat { start, old } => old
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let p = start + i;
                    PatchCell {
                        row: p / n_attrs,
                        attr: p % n_attrs,
                        old: v,
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_resolves_to_itself() {
        let p = Patch::cell(4, 1, 7);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert_eq!(
            p.resolve(3),
            vec![PatchCell {
                row: 4,
                attr: 1,
                old: 7
            }]
        );
    }

    #[test]
    fn flat_range_resolves_row_major() {
        // 3 attributes: flat 4 = (row 1, attr 1), flat 5 = (1, 2), flat 6 = (2, 0)
        let p = Patch::flat_range(4, 6, vec![9, 8, 7]);
        let cells = p.resolve(3);
        assert_eq!(
            cells,
            vec![
                PatchCell {
                    row: 1,
                    attr: 1,
                    old: 9
                },
                PatchCell {
                    row: 1,
                    attr: 2,
                    old: 8
                },
                PatchCell {
                    row: 2,
                    attr: 0,
                    old: 7
                },
            ]
        );
    }

    #[test]
    fn in_order_walk_of_a_flat_range_equals_its_resolution() {
        // 3 attributes, flat 5..=10 crosses two row boundaries
        let p = Patch::flat_range(5, 10, vec![1, 2, 3, 4, 5, 6]);
        let mut walked = Vec::new();
        p.for_each_in_order(3, |c| walked.push(c));
        assert_eq!(walked, p.resolve(3));
    }

    #[test]
    fn in_order_walk_sorts_a_cell_list() {
        let cell = |row, attr| PatchCell { row, attr, old: 0 };
        let p = Patch::from_cells(vec![cell(2, 0), cell(0, 1), cell(0, 0)]);
        let mut walked = Vec::new();
        p.for_each_in_order(2, |c| walked.push(c));
        assert_eq!(walked, vec![cell(0, 0), cell(0, 1), cell(2, 0)]);
    }

    #[test]
    #[should_panic(expected = "same cell twice")]
    fn in_order_walk_rejects_a_repeated_cell() {
        let cell = PatchCell {
            row: 1,
            attr: 0,
            old: 3,
        };
        Patch::from_cells(vec![cell, cell]).for_each_in_order(2, |_| {});
    }

    #[test]
    fn empty_cell_list_is_empty() {
        assert!(Patch::from_cells(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "old values")]
    fn flat_range_length_mismatch_panics() {
        let _ = Patch::flat_range(2, 5, vec![1, 2]);
    }
}
