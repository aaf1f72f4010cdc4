//! The fitness evaluator: one struct owning every cached statistic needed
//! to assess a masked file, plus a patch-based delta-evaluation engine
//! whose results are **bit-identical** to a full assessment.
//!
//! The paper reports that fitness evaluation consumes 99.98% of a
//! generation's wall time and names faster IL/DR computation as future
//! work. Five levers are implemented here:
//!
//! 1. **Original-side caching** — ranks, marginals, contingency tables and
//!    chance-agreement probabilities of the original file are computed once
//!    per experiment ([`PreparedOriginal`]), and shared across every
//!    evaluation against that original.
//! 2. **Patch-based re-assessment** — [`Evaluator::reassess`] updates an
//!    [`EvalState`] after an arbitrary [`Patch`] of cell changes (a
//!    mutation's single cell, or a crossover's flattened segment) instead
//!    of re-scoring the whole file. Every measure derives from *integer*
//!    sufficient statistics that admit exact deltas: CTBIL/DBIL/EBIL/ID
//!    per changed cell (pair tables are corrected per touched *row* so
//!    simultaneous changes to two attributes of one record stay exact).
//!    The linkage measures credit a record by its *joint cell* (masked
//!    pattern, original pattern), so the state keeps one credit triple per
//!    live cell and one cell id per record, and a touched record moves
//!    cells: DBRL credits are fixed when a cell is created, PRL comes from
//!    per-pattern agreement histograms ([`crate::linkage::PatternCensus`]:
//!    a touched row shifts the census by the difference of two
//!    histograms, the Fellegi–Sunter model refits from the summed census —
//!    identical to a from-scratch fit — and the live cells' credits
//!    recompute from one `(best weight, tie mass)` per live masked pattern
//!    plus one comparison per cell), and RSRL re-credits exactly the cells
//!    of the masked patterns whose rank windows moved
//!    ([`MaskedStats::apply_patch`] reports every midrank shift, touched
//!    row or not). Each linkage part is then one pass summing the
//!    records' cell credits in row order — the same `f64`s in the same
//!    order as the per-record credit vectors of the oracle scans. A
//!    patched state therefore equals the full recompute bit for bit — no
//!    frozen-weights or stale-midrank approximation, no drift to bound.
//! 3. **Scratch reuse** — [`Evaluator::reassess_into`] writes the updated
//!    state into a caller-owned scratch [`EvalState`] whose buffers are
//!    recycled (`clone_from` is allocation-free once shapes match, the
//!    masked [`PatternIndex`] and the joint cells included: each is a few
//!    flat vectors, its dictionary a table of ids over its own keys), so
//!    the per-offspring cost is a handful of `memcpy`s plus the delta
//!    work. The only n-sized buffers a state holds are two `u32` row
//!    maps: masked pattern ids and joint cell ids.
//! 4. **Blocked linkage** — DBRL and RSRL scan the *distinct patterns*
//!    of a [`PatternIndex`] instead of all `n²` record pairs,
//!    `O(n·a + p_m·p_o·a)` with `p ≤ Π_k c_k` independent of the row
//!    count, and the PRL census is built the same way; the state carries a
//!    masked-side index that every patch moves rows through
//!    ([`PatternIndex::move_row`]), so the delta path and the full path
//!    stay on the same sufficient statistics. The joint cells are built
//!    one original pattern at a time (the preparation groups the records
//!    by original pattern), a cell's DBRL credit from its masked
//!    pattern's link and one pattern-to-pattern distance. The parts are
//!    `assert_eq!`-identical to the all-pairs reference scans
//!    ([`crate::linkage::dbrl`], [`crate::linkage::prl`],
//!    [`crate::linkage::rsrl`]) and to the per-record blocked credits
//!    ([`crate::linkage::dbrl_credits_blocked`],
//!    [`crate::linkage::PatternCensus::credits`],
//!    [`crate::linkage::rsrl_credits_blocked`]), which remain as the test
//!    and bench oracles — see [`crate::linkage`] for the exactness
//!    argument.
//! 5. **Per-original pattern tables** — a masked pattern's DBRL link and
//!    its PRL agreement histogram depend only on the pattern and the
//!    original, so [`PreparedOriginal`] holds one write-once slot with
//!    both per point of the masked pattern space (up to
//!    [`crate::LINK_TABLE_MAX_SLOTS`]). A pattern is scanned the first time
//!    any assessment meets it and read from its slot ever after — across
//!    the initial population, every patch, and (through the shared `Arc`)
//!    every clone of the evaluator, so every job on a cached original;
//!    evaluation states read the histograms there instead of copying
//!    them. An
//!    RSRL candidate count is a box count over the original's joint counts
//!    in rank coordinates, a prefix-sum grid over the same space built at
//!    preparation: `2^a` lookups per masked pattern. A slot holds the
//!    scans' own output and a box count is the same integer as the scan,
//!    so results do not move by a bit.
//!
//! [`Evaluator::reassess_mutation`] remains as the single-cell
//! convenience wrapper over the patch engine.

use cdp_dataset::{Code, PatternIndex, SubTable};

use crate::contingency::ContingencyTables;
use crate::dr::{cell_disclosed, disclosed_counts, id_value};
use crate::il::{
    build_confusion, dbil_accs, dbil_sum_from_accs, dbil_value, ebil_from_confusion,
    update_confusion,
};
use crate::linkage::{sum_value, CandidatePools, JointCells, LinkMemo, PatternCensus, PrlModel};
use crate::patch::{Patch, PatchCell};
use crate::prepared::{MaskedStats, MovedCategory, PreparedOriginal};
use crate::score::ScoreAggregator;
use crate::{MetricError, Result};

/// The placeholder headline of a state whose statistics are not yet
/// summed up (see [`Evaluator::refresh_assessment`]).
const UNSCORED: Assessment = Assessment {
    il_parts: IlBreakdown {
        ctbil: 0.0,
        dbil: 0.0,
        ebil: 0.0,
    },
    dr_parts: DrBreakdown {
        id: 0.0,
        dbrl: 0.0,
        prl: 0.0,
        rsrl: 0.0,
    },
};

/// Tunable measure parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricConfig {
    /// Interval-disclosure half-width as a fraction of the category range.
    pub interval_fraction: f64,
    /// The RSRL intruder's assumed swap window, fraction of records.
    pub rsrl_window_fraction: f64,
    /// EM iterations for the Fellegi–Sunter fit.
    pub prl_em_iters: usize,
}

impl Default for MetricConfig {
    fn default() -> Self {
        MetricConfig {
            interval_fraction: 0.1,
            rsrl_window_fraction: 0.05,
            prl_em_iters: 15,
        }
    }
}

impl MetricConfig {
    /// Check every parameter's range. This is the only way
    /// [`Evaluator::new`] can fail, and the first thing it does.
    ///
    /// # Errors
    /// [`MetricError::InvalidConfig`] naming the out-of-range parameter.
    pub fn validate(&self) -> Result<()> {
        if !(self.interval_fraction > 0.0 && self.interval_fraction < 1.0) {
            return Err(MetricError::InvalidConfig(format!(
                "interval_fraction must lie in (0,1), got {}",
                self.interval_fraction
            )));
        }
        if !(self.rsrl_window_fraction > 0.0 && self.rsrl_window_fraction <= 1.0) {
            return Err(MetricError::InvalidConfig(format!(
                "rsrl_window_fraction must lie in (0,1], got {}",
                self.rsrl_window_fraction
            )));
        }
        if self.prl_em_iters == 0 {
            return Err(MetricError::InvalidConfig(
                "prl_em_iters must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The three information-loss components, each in `[0, 100]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlBreakdown {
    /// Contingency-table-based IL.
    pub ctbil: f64,
    /// Distance-based IL.
    pub dbil: f64,
    /// Entropy-based IL.
    pub ebil: f64,
}

impl IlBreakdown {
    /// The paper's IL: the mean of the three measures.
    pub fn value(&self) -> f64 {
        (self.ctbil + self.dbil + self.ebil) / 3.0
    }
}

/// The four disclosure-risk components, each in `[0, 100]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrBreakdown {
    /// Interval disclosure.
    pub id: f64,
    /// Distance-based record linkage.
    pub dbrl: f64,
    /// Probabilistic record linkage.
    pub prl: f64,
    /// Rank-swapping-aware record linkage.
    pub rsrl: f64,
}

impl DrBreakdown {
    /// The paper's DR: the mean of the four measures.
    pub fn value(&self) -> f64 {
        (self.id + self.dbrl + self.prl + self.rsrl) / 4.0
    }
}

/// A complete (IL, DR) assessment of one masked file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assessment {
    /// Information-loss components.
    pub il_parts: IlBreakdown,
    /// Disclosure-risk components.
    pub dr_parts: DrBreakdown,
}

impl Assessment {
    /// Aggregated information loss.
    pub fn il(&self) -> f64 {
        self.il_parts.value()
    }

    /// Aggregated disclosure risk.
    pub fn dr(&self) -> f64 {
        self.dr_parts.value()
    }

    /// Fitness score under an aggregator.
    pub fn score(&self, agg: ScoreAggregator) -> f64 {
        agg.score(self.il(), self.dr())
    }
}

/// An assessment together with the sufficient statistics that make
/// patch-based updates cheap.
///
/// Memory ([`EvalState::approx_bytes`]): per record, one masked pattern
/// id and one joint cell id (`2·n_rows` `u32`s, 0.8 MB at 100k rows);
/// per live joint cell, 40 bytes (its two pattern ids, record count,
/// agreement bits and three `f64` credits) plus its slot-table share,
/// 2–4 `u32`s. Tombstoned cells are dropped once they outnumber a quarter
/// of the live ones. The PRL histograms are read from the preparation's
/// link table; only above its cap does a state copy them, `2^a` `u32`s
/// per *distinct* masked pattern id (`a` = protected attributes). The
/// live cells number at least the larger of the two live pattern counts
/// and at most the row count: at 100k Adult rows, 1.6k for a
/// microaggregation (a 0.92 MB state) and 44k for a PRAM at θ = 0.7
/// (3.1 MB).
#[derive(Debug)]
pub struct EvalState {
    /// The headline numbers.
    pub assessment: Assessment,
    masked_tables: ContingencyTables,
    dbil_accs: Vec<u64>,
    confusion: Vec<Vec<u32>>,
    id_counts: Vec<u32>,
    masked_stats: MaskedStats,
    /// Distinct-pattern index of the masked file, patched row-by-row as
    /// cells change. The blocked DBRL/RSRL scans read it, and the PRL
    /// census is keyed by its pattern ids.
    masked_index: PatternIndex,
    pattern_census: PatternCensus,
    prl_model: PrlModel,
    /// The joint (masked pattern, original pattern) cells: each record's
    /// cell id, and per cell the DBRL, PRL and RSRL credits its records
    /// share.
    cells: JointCells,
}

impl EvalState {
    /// Approximate heap footprint in bytes, counted the way
    /// [`PreparedOriginal::approx_bytes`] counts: each buffer's length
    /// times its element size (capacity slack and vector headers are not
    /// counted).
    pub fn approx_bytes(&self) -> usize {
        let u32s = self.id_counts.len() + self.confusion.iter().map(Vec::len).sum::<usize>();
        let weights = self.prl_model.agree_weight.len() + self.prl_model.disagree_weight.len();
        self.masked_tables.approx_bytes()
            + self.dbil_accs.len() * std::mem::size_of::<u64>()
            + u32s * std::mem::size_of::<u32>()
            + self.masked_stats.approx_bytes()
            + self.masked_index.approx_bytes()
            + self.pattern_census.approx_bytes()
            + weights * std::mem::size_of::<f64>()
            + self.cells.approx_bytes()
    }

    /// The per-attribute original→masked confusion matrices
    /// (`conf[k][o*c + v]`, `c` = category count of attribute `k`) — the
    /// channel view the ε-leakage objective reads.
    pub(crate) fn confusion(&self) -> &[Vec<u32>] {
        &self.confusion
    }

    /// The masked file's contingency tables — the training side of the
    /// task-utility objective.
    pub(crate) fn masked_tables(&self) -> &ContingencyTables {
        &self.masked_tables
    }
}

impl Clone for EvalState {
    fn clone(&self) -> Self {
        EvalState {
            assessment: self.assessment,
            masked_tables: self.masked_tables.clone(),
            dbil_accs: self.dbil_accs.clone(),
            confusion: self.confusion.clone(),
            id_counts: self.id_counts.clone(),
            masked_stats: self.masked_stats.clone(),
            masked_index: self.masked_index.clone(),
            pattern_census: self.pattern_census.clone(),
            prl_model: self.prl_model.clone(),
            cells: self.cells.clone(),
        }
    }

    /// Field-wise buffer reuse: every field, the masked pattern index
    /// included, is a flat vector or a fixed-shape vector of them, so
    /// copying one state over another of the same shape performs no heap
    /// allocation once the destination's buffers have reached the source's
    /// lengths. [`Evaluator::reassess_into`] relies on this to keep the
    /// evolution loop allocation-free.
    fn clone_from(&mut self, src: &Self) {
        self.assessment = src.assessment;
        self.masked_tables.clone_from(&src.masked_tables);
        self.dbil_accs.clone_from(&src.dbil_accs);
        self.confusion.clone_from(&src.confusion);
        self.id_counts.clone_from(&src.id_counts);
        self.masked_stats.clone_from(&src.masked_stats);
        self.masked_index.clone_from(&src.masked_index);
        self.pattern_census.clone_from(&src.pattern_census);
        self.prl_model.clone_from(&src.prl_model);
        self.cells.clone_from(&src.cells);
    }
}

/// Fitness evaluator bound to one original file.
#[derive(Debug, Clone)]
pub struct Evaluator {
    prep: PreparedOriginal,
    cfg: MetricConfig,
}

impl Evaluator {
    /// Prepare the evaluator for an original protected sub-table.
    ///
    /// # Errors
    /// [`MetricError::InvalidConfig`] for out-of-range parameters.
    pub fn new(original: &SubTable, cfg: MetricConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Evaluator {
            prep: PreparedOriginal::new(original),
            cfg,
        })
    }

    /// Approximate heap footprint of the retained preparation, in bytes
    /// (see [`PreparedOriginal::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.prep.approx_bytes()
    }

    /// The prepared original statistics.
    pub fn prepared(&self) -> &PreparedOriginal {
        &self.prep
    }

    /// The original protected columns.
    pub fn original(&self) -> &SubTable {
        self.prep.orig()
    }

    /// The active configuration.
    pub fn config(&self) -> &MetricConfig {
        &self.cfg
    }

    /// The intruder's RSRL rank window in absolute positions.
    fn rsrl_window(&self) -> f64 {
        (self.cfg.rsrl_window_fraction * self.prep.n_rows() as f64).max(1.0)
    }

    /// Full assessment without retaining caches.
    ///
    /// # Panics
    /// Panics when `masked` has a different shape than the original — use
    /// [`PreparedOriginal::check_compatible`] on untrusted input.
    pub fn evaluate(&self, masked: &SubTable) -> Assessment {
        self.assess(masked).assessment
    }

    /// Full assessment, retaining the sufficient statistics for
    /// [`Evaluator::reassess_mutation`].
    pub fn assess(&self, masked: &SubTable) -> EvalState {
        debug_assert!(self.prep.check_compatible(masked).is_ok());
        let prep = &self.prep;

        let masked_stats = MaskedStats::build(prep, masked);
        let masked_index = PatternIndex::build(masked);
        let pattern_census = PatternCensus::build(prep, &masked_index);
        let prl_model =
            PrlModel::fit_from_counts(prep, pattern_census.counts(), self.cfg.prl_em_iters);
        let mut cells = JointCells::build(prep, &masked_index);
        cells.credit_prl(prep, &pattern_census, &prl_model, &masked_index);
        let window = self.rsrl_window();
        let mut pools = CandidatePools::new(prep, masked_index.n_patterns());
        for (pid, q, _) in masked_index.iter_live() {
            pools.pool(prep, &masked_stats, pid, q, window);
        }
        cells.credit_rsrl(prep, &pools);

        let mut state = EvalState {
            assessment: UNSCORED,
            masked_tables: ContingencyTables::build(masked),
            dbil_accs: dbil_accs(prep, masked),
            confusion: build_confusion(prep, masked),
            id_counts: disclosed_counts(prep, masked, self.cfg.interval_fraction),
            masked_stats,
            masked_index,
            pattern_census,
            prl_model,
            cells,
        };
        self.refresh_assessment(&mut state);
        state
    }

    /// Re-assess after a single-cell mutation: the single-cell wrapper
    /// over [`Evaluator::reassess`].
    ///
    /// `masked` must already contain the new value at `(row, k)`; `old` is
    /// the value it replaced. A no-op mutation (`new == old`) short-circuits
    /// before any patch machinery runs and hands back a plain copy of
    /// `prev` (use [`Evaluator::reassess_into`] to avoid even that copy's
    /// allocations via scratch reuse).
    pub fn reassess_mutation(
        &self,
        prev: &EvalState,
        masked: &SubTable,
        row: usize,
        k: usize,
        old: Code,
    ) -> EvalState {
        if masked.get(row, k) == old {
            return prev.clone();
        }
        self.reassess(prev, masked, &Patch::cell(row, k, old))
    }

    /// Re-assess after an arbitrary set of cell changes.
    ///
    /// `masked` must already contain the new values; `patch` names the
    /// changed cells with their previous values. Every measure is updated
    /// exactly — the result is bit-identical to [`Evaluator::assess`] on
    /// the same file (see the module docs for how each linkage measure
    /// achieves this). Cells whose old value equals the masked value are
    /// skipped, so crossover segments may be handed over verbatim.
    pub fn reassess(&self, prev: &EvalState, masked: &SubTable, patch: &Patch) -> EvalState {
        let mut out = prev.clone();
        self.apply_patch(masked, patch, &mut out);
        out
    }

    /// [`Evaluator::reassess`] with scratch reuse: `out` is overwritten
    /// with the updated state, recycling its buffers (no heap allocation
    /// beyond the patch bookkeeping once shapes match). `out` may hold a
    /// state of any provenance — its previous content is discarded.
    pub fn reassess_into(
        &self,
        prev: &EvalState,
        masked: &SubTable,
        patch: &Patch,
        out: &mut EvalState,
    ) {
        out.clone_from(prev);
        self.apply_patch(masked, patch, out);
    }

    /// One changed cell's exact integer deltas: DBIL accumulator, the EBIL
    /// confusion channel, and interval disclosure.
    fn apply_cell_deltas(&self, state: &mut EvalState, row: usize, k: usize, old: Code, new: Code) {
        let prep = &self.prep;
        let orig = prep.orig().get(row, k);
        if prep.is_ordinal(k) {
            state.dbil_accs[k] += u64::from(orig.abs_diff(new));
            state.dbil_accs[k] -= u64::from(orig.abs_diff(old));
        } else {
            state.dbil_accs[k] += u64::from(orig != new);
            state.dbil_accs[k] -= u64::from(orig != old);
        }
        update_confusion(&mut state.confusion, prep, row, k, old, new);
        let was = cell_disclosed(prep, k, orig, old, self.cfg.interval_fraction);
        let is = cell_disclosed(prep, k, orig, new, self.cfg.interval_fraction);
        match (was, is) {
            (true, false) => state.id_counts[k] -= 1,
            (false, true) => state.id_counts[k] += 1,
            _ => {}
        }
    }

    /// Move every touched row to its new bucket in the masked pattern
    /// index, shifting the PRL census by the corresponding histogram
    /// differences, and into its new joint cell (a new cell gets its DBRL
    /// credit here). Must run *after* `masked` holds the new values and
    /// before [`Evaluator::relink`] reads the index.
    fn repattern(&self, masked: &SubTable, touched_rows: &[usize], state: &mut EvalState) {
        let prep = &self.prep;
        let mut buf = vec![0 as Code; prep.n_attrs()];
        let mut links = LinkMemo::new();
        for &row in touched_rows {
            masked.read_row(row, &mut buf);
            let (old_pid, new_pid) = state.masked_index.move_row(row, &buf);
            let index = &state.masked_index;
            state
                .pattern_census
                .row_moved(prep, index, old_pid, new_pid);
            state.cells.move_row(prep, index, row, &mut links);
        }
    }

    /// Exact relinking after the sufficient statistics (including the
    /// masked pattern index, census and joint cells — see
    /// [`Evaluator::repattern`]) moved: PRL refits from the census and
    /// re-credits every live cell from integer pattern data, and RSRL
    /// re-credits the cells of the touched rows, or (when a category's
    /// rank window changed) every cell of a pattern holding such a
    /// category. DBRL credits are fixed per cell, so the touched rows'
    /// cells already carry theirs.
    fn relink(&self, touched_rows: &[usize], moved: &[MovedCategory], state: &mut EvalState) {
        let prep = &self.prep;

        // PRL: the census already moved with the index; an EM refit over
        // 2^a patterns and a per-cell credit sweep — bit-identical to a
        // full fit+link, because census and histograms are identical
        // integers
        state.prl_model.refit_from_counts(
            prep,
            state.pattern_census.counts(),
            self.cfg.prl_em_iters,
        );
        let index = &state.masked_index;
        state
            .cells
            .credit_prl(prep, &state.pattern_census, &state.prl_model, index);

        // RSRL: a midrank move only matters when it changes the window's
        // run of compatible categories; re-pool exactly the masked
        // patterns holding a category whose run changed, plus the patterns
        // the touched rows moved into
        let window = self.rsrl_window();
        let shifted: Vec<(usize, Code)> = moved
            .iter()
            .filter(|mc| {
                prep.rank_window(mc.attr, mc.old_midrank, window)
                    != prep.rank_window(mc.attr, mc.new_midrank, window)
            })
            .map(|mc| (mc.attr, mc.cat))
            .collect();
        let mut pools = CandidatePools::new(prep, index.n_patterns());
        for &row in touched_rows {
            let pid = index.pattern_of(row);
            if !pools.is_pooled(pid) {
                pools.pool(prep, &state.masked_stats, pid, index.codes_of(pid), window);
            }
        }
        if shifted.is_empty() {
            for &row in touched_rows {
                let c = state.cells.cell_of(row);
                state.cells.credit_rsrl_cell(prep, &pools, c);
            }
        } else {
            for (pid, q, _) in index.iter_live() {
                if !pools.is_pooled(pid) && shifted.iter().any(|&(k, v)| q[k] == v) {
                    pools.pool(prep, &state.masked_stats, pid, q, window);
                }
            }
            state.cells.credit_rsrl(prep, &pools);
        }

        self.refresh_assessment(state);
    }

    /// Single-cell fast path: the mutation operator's shape, taken every
    /// mutation offspring of a scalar run, so it skips the general
    /// engine's resolve/sort/group bookkeeping entirely.
    fn apply_single_cell(&self, masked: &SubTable, cell: PatchCell, state: &mut EvalState) {
        let prep = &self.prep;
        let PatchCell { row, attr: k, old } = cell;
        let new = masked.get(row, k);
        if new == old {
            return;
        }
        self.apply_cell_deltas(state, row, k, old, new);
        state
            .masked_tables
            .apply_row_patch(masked, row, &[(k, old)]);
        let moved = state.masked_stats.apply_patch(prep, [(k, old, new)]);
        self.repattern(masked, &[row], state);
        self.relink(&[row], &moved, state);
    }

    /// The patch engine: update `state` (already a copy of the pre-patch
    /// state) in place.
    fn apply_patch(&self, masked: &SubTable, patch: &Patch, state: &mut EvalState) {
        let prep = &self.prep;
        if let Some(cell) = patch.single_cell(prep.n_attrs()) {
            self.apply_single_cell(masked, cell, state);
            return;
        }
        // one walk over the effective changes in (row, attr) order (a patch
        // may name cells that kept their value): the exact per-cell
        // updates (DBIL, the EBIL confusion channel, interval disclosure),
        // and one batched contingency update per touched row, so two
        // attributes changing in one record keep the pair tables exact
        let mut touched_rows: Vec<usize> = Vec::new();
        let mut row_buf: Vec<(usize, Code)> = Vec::with_capacity(prep.n_attrs());
        let mut stat_changes: Vec<(usize, Code, Code)> = Vec::new();
        patch.for_each_in_order(prep.n_attrs(), |c| {
            let new = masked.get(c.row, c.attr);
            if new == c.old {
                return;
            }
            if touched_rows.last() != Some(&c.row) {
                if let Some(&prev) = touched_rows.last() {
                    state.masked_tables.apply_row_patch(masked, prev, &row_buf);
                    row_buf.clear();
                }
                touched_rows.push(c.row);
            }
            self.apply_cell_deltas(state, c.row, c.attr, c.old, new);
            row_buf.push((c.attr, c.old));
            stat_changes.push((c.attr, c.old, new));
        });
        let Some(&last) = touched_rows.last() else {
            return;
        };
        state.masked_tables.apply_row_patch(masked, last, &row_buf);

        // masked-side rank statistics: one rank rebuild per touched
        // attribute, reporting every midrank that moved
        let moved = state.masked_stats.apply_patch(prep, stat_changes);

        self.repattern(masked, &touched_rows, state);
        // a patch of many rows may leave many tombstones; compacting costs
        // O(rows), small beside such a patch (single cells never compact)
        state.cells.compact();
        self.relink(&touched_rows, &moved, state);
    }

    /// Recompute the headline numbers from the (already updated)
    /// sufficient statistics. The three linkage parts come from one pass
    /// over the records in row order, summing each record's cell credits:
    /// the same `f64`s in the same order as the oracles' per-record credit
    /// vectors, so each part equals their [`crate::linkage::credits_value`]
    /// bit for bit.
    fn refresh_assessment(&self, state: &mut EvalState) {
        let prep = &self.prep;
        let n = prep.n_rows();
        let [dbrl, prl, rsrl] = state.cells.credit_sums();
        state.assessment = Assessment {
            il_parts: IlBreakdown {
                ctbil: prep.tables().distance(&state.masked_tables),
                dbil: dbil_value(
                    dbil_sum_from_accs(prep, &state.dbil_accs),
                    prep.n_rows(),
                    prep.n_attrs(),
                ),
                ebil: ebil_from_confusion(prep, &state.confusion),
            },
            dr_parts: DrBreakdown {
                id: id_value(prep, &state.id_counts),
                dbrl: sum_value(dbrl, n),
                prl: sum_value(prl, n),
                rsrl: sum_value(rsrl, n),
            },
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::PatchCell;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn setup(n: usize) -> (Evaluator, SubTable) {
        let s = DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(10).with_records(n))
            .protected_subtable();
        let ev = Evaluator::new(&s, MetricConfig::default()).unwrap();
        (ev, s)
    }

    #[test]
    fn identity_extremes() {
        let (ev, s) = setup(120);
        let a = ev.evaluate(&s);
        assert!(a.il() < 1e-9, "identity IL must be 0, got {}", a.il());
        assert!(a.dr() > 50.0, "identity DR must be high, got {}", a.dr());
        assert_eq!(a.dr_parts.id, 100.0);
    }

    #[test]
    fn all_measures_stay_in_range() {
        let (ev, s) = setup(100);
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = ev.prepared().cats(k) as u16;
            for r in 0..m.n_rows() {
                if rng.gen_bool(0.5) {
                    m.set(r, k, rng.gen_range(0..c));
                }
            }
        }
        let a = ev.evaluate(&m);
        for v in [
            a.il_parts.ctbil,
            a.il_parts.dbil,
            a.il_parts.ebil,
            a.dr_parts.id,
            a.dr_parts.dbrl,
            a.dr_parts.prl,
            a.dr_parts.rsrl,
        ] {
            assert!((0.0..=100.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn randomization_trades_il_for_dr() {
        let (ev, s) = setup(100);
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = ev.prepared().cats(k) as u16;
            for r in 0..m.n_rows() {
                m.set(r, k, rng.gen_range(0..c));
            }
        }
        let clear = ev.evaluate(&s);
        let noisy = ev.evaluate(&m);
        assert!(noisy.il() > clear.il());
        assert!(noisy.dr() < clear.dr());
    }

    #[test]
    fn score_uses_aggregator() {
        let (ev, s) = setup(80);
        let a = ev.evaluate(&s);
        assert!((a.score(ScoreAggregator::Mean) - (a.il() + a.dr()) / 2.0).abs() < 1e-12);
        assert!((a.score(ScoreAggregator::Max) - a.il().max(a.dr())).abs() < 1e-12);
    }

    #[test]
    fn invalid_config_rejected() {
        let (_, s) = setup(40);
        for cfg in [
            MetricConfig {
                interval_fraction: 0.0,
                ..MetricConfig::default()
            },
            MetricConfig {
                rsrl_window_fraction: 0.0,
                ..MetricConfig::default()
            },
            MetricConfig {
                prl_em_iters: 0,
                ..MetricConfig::default()
            },
        ] {
            assert!(Evaluator::new(&s, cfg).is_err());
        }
    }

    #[test]
    fn incremental_il_and_id_are_exact() {
        let (ev, s) = setup(90);
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = s.clone();
        let mut state = ev.assess(&m);
        for _ in 0..25 {
            let row = rng.gen_range(0..m.n_rows());
            let k = rng.gen_range(0..m.n_attrs());
            let c = ev.prepared().cats(k) as u16;
            let old = m.get(row, k);
            m.set(row, k, rng.gen_range(0..c));
            state = ev.reassess_mutation(&state, &m, row, k, old);
        }
        let full = ev.assess(&m);
        // every measure is bit-identical after a 25-mutation chain
        assert_eq!(state.assessment, full.assessment);
    }

    #[test]
    fn incremental_linkage_matches_full_exactly() {
        let (ev, s) = setup(90);
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = s.clone();
        let mut state = ev.assess(&m);
        for _ in 0..10 {
            let row = rng.gen_range(0..m.n_rows());
            let k = rng.gen_range(0..m.n_attrs());
            let c = ev.prepared().cats(k) as u16;
            let old = m.get(row, k);
            m.set(row, k, rng.gen_range(0..c));
            state = ev.reassess_mutation(&state, &m, row, k, old);
        }
        let full = ev.assess(&m);
        // PRL refits from the patched census and RSRL re-credits every
        // record whose rank window moved: zero drift, bit for bit
        assert_eq!(state.assessment.dr_parts.prl, full.assessment.dr_parts.prl);
        assert_eq!(
            state.assessment.dr_parts.rsrl,
            full.assessment.dr_parts.rsrl
        );
        assert_eq!(state.assessment, full.assessment);
    }

    #[test]
    fn noop_mutation_changes_nothing() {
        let (ev, s) = setup(60);
        let state = ev.assess(&s);
        let same = ev.reassess_mutation(&state, &s, 5, 1, s.get(5, 1));
        assert_eq!(state.assessment, same.assessment);
    }

    #[test]
    fn multi_cell_patch_matches_full_exactly() {
        let (ev, s) = setup(90);
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = s.clone();
        let state = ev.assess(&m);
        // one patch carrying 30 random cell changes, including same-row pairs
        let mut cells = Vec::new();
        let mut seen = std::collections::HashSet::new();
        while cells.len() < 30 {
            let row = rng.gen_range(0..m.n_rows());
            let k = rng.gen_range(0..m.n_attrs());
            if !seen.insert((row, k)) {
                continue;
            }
            let c = ev.prepared().cats(k) as u16;
            let old = m.get(row, k);
            m.set(row, k, rng.gen_range(0..c));
            cells.push(PatchCell { row, attr: k, old });
        }
        let patched = ev.reassess(&state, &m, &Patch::from_cells(cells));
        let full = ev.assess(&m);
        assert_eq!(patched.assessment, full.assessment);
    }

    #[test]
    fn patch_that_empties_categories_stays_exact() {
        // drive whole categories out of (and back into) the masked file in
        // one patch: the midrank of an absent category is a NaN sentinel,
        // and the moved-category report must still re-credit exactly the
        // right records
        let (ev, s) = setup(80);
        let mut m = s.clone();
        let state = ev.assess(&m);
        let mut cells = Vec::new();
        for row in 0..m.n_rows() {
            let old = m.get(row, 0);
            if old != 0 {
                m.set(row, 0, 0);
                cells.push(PatchCell { row, attr: 0, old });
            }
        }
        assert!(!cells.is_empty(), "attribute 0 must have spread values");
        let collapsed = ev.reassess(&state, &m, &Patch::from_cells(cells));
        assert_eq!(collapsed.assessment, ev.assess(&m).assessment);
    }

    #[test]
    fn reassess_into_matches_reassess_and_reuses_scratch() {
        let (ev, s) = setup(70);
        let mut rng = StdRng::seed_from_u64(12);
        let mut m = s.clone();
        let state = ev.assess(&m);
        let old = m.get(3, 0);
        m.set(3, 0, (old + 5) % ev.prepared().cats(0) as u16);
        let patch = Patch::cell(3, 0, old);
        let owned = ev.reassess(&state, &m, &patch);
        // scratch starts as an arbitrary other state and must be overwritten
        let mut scratch = ev.assess(&s);
        ev.reassess_into(&state, &m, &patch, &mut scratch);
        assert_eq!(owned.assessment, scratch.assessment);
        // reuse the same scratch for a second, different patch
        let old2 = m.get(9, 2);
        m.set(9, 2, (old2 + 1) % ev.prepared().cats(2) as u16);
        let state2 = owned;
        let patch2 = Patch::cell(9, 2, old2);
        ev.reassess_into(&state2, &m, &patch2, &mut scratch);
        assert_eq!(
            ev.reassess(&state2, &m, &patch2).assessment,
            scratch.assessment
        );
        let _ = rng.gen::<u64>();
    }

    #[test]
    fn crossover_segment_patch_matches_full_exactly() {
        // mirror of incremental_linkage_matches_full_exactly for the
        // segment shape: swap a flattened range in from a second file,
        // reassess via a flat-range patch, compare against the full
        // recompute — bit for bit, linkage measures included
        let (ev, s) = setup(90);
        let mut rng = StdRng::seed_from_u64(13);
        let mut other = s.clone();
        for k in 0..other.n_attrs() {
            let c = ev.prepared().cats(k) as u16;
            for r in 0..other.n_rows() {
                if rng.gen_bool(0.5) {
                    other.set(r, k, rng.gen_range(0..c));
                }
            }
        }
        let state = ev.assess(&s);
        let flat = s.flat_len();
        let (a, b) = (flat / 5, flat / 2);
        let old_values: Vec<Code> = (a..=b).map(|p| s.get_flat(p)).collect();
        let mut child = s.clone();
        for p in a..=b {
            child.set_flat(p, other.get_flat(p));
        }
        let patched = ev.reassess(&state, &child, &Patch::flat_range(a, b, old_values));
        let full = ev.assess(&child);
        assert_eq!(patched.assessment, full.assessment);
    }

    #[test]
    fn all_noop_patch_returns_prev_exactly() {
        let (ev, s) = setup(50);
        let state = ev.assess(&s);
        let old_values: Vec<Code> = (0..6).map(|p| s.get_flat(p)).collect();
        let same = ev.reassess(&state, &s, &Patch::flat_range(0, 5, old_values));
        assert_eq!(state.assessment, same.assessment);
    }

    #[test]
    fn shared_evaluator_assesses_concurrently_like_a_fresh_sequential_one() {
        // one evaluator shares a single link table across threads; racing
        // first fills must not change any result
        let (ev, s) = setup(150);
        let masks: Vec<SubTable> = (0..4u64)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(30 + seed);
                let mut m = s.clone();
                for k in 0..m.n_attrs() {
                    let c = ev.prepared().cats(k) as u16;
                    for r in 0..m.n_rows() {
                        if rng.gen_bool(0.3 + 0.1 * seed as f64) {
                            m.set(r, k, rng.gen_range(0..c));
                        }
                    }
                }
                m
            })
            .collect();
        // the barrier releases every thread into its cold table at once
        let start = std::sync::Barrier::new(masks.len());
        let shared: Vec<Assessment> = std::thread::scope(|scope| {
            let (ev, start) = (&ev, &start);
            let handles: Vec<_> = masks
                .iter()
                .map(|m| {
                    scope.spawn(move || {
                        start.wait();
                        ev.evaluate(m)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = Evaluator::new(&s, MetricConfig::default()).unwrap();
        for (i, m) in masks.iter().enumerate() {
            assert_eq!(shared[i], fresh.evaluate(m), "mask {i}");
        }
        // every thread's fills landed in the one table the original holds
        assert_eq!(
            ev.prepared().link_table_fill(),
            fresh.prepared().link_table_fill()
        );
    }

    /// (masked codes, original pattern) → (count, agreement bits, credit
    /// bits) of each live joint cell.
    type LiveCells = BTreeMap<(Vec<Code>, u32), (u32, u32, [u64; 3])>;

    /// The live joint cells of a state, keyed by codes: cell and masked
    /// pattern ids depend on the state's history, the codes do not.
    fn live_cells(state: &EvalState) -> LiveCells {
        state
            .cells
            .iter_live()
            .map(|((m, o), count, agree, credit)| {
                let codes = state.masked_index.codes_of(m).to_vec();
                ((codes, o), (count, agree, credit.map(f64::to_bits)))
            })
            .collect()
    }

    #[test]
    fn patched_joint_cells_equal_a_fresh_assessment() {
        // random chains of cell-list and flat-range patches: rows leave
        // cells (tombstones), revive them and open new ones, and
        // compaction renumbers them, yet the live cells, their counts and
        // their credits equal a fresh assessment's
        let (ev, s) = setup(240);
        let mut rng = StdRng::seed_from_u64(21);
        let flat = s.flat_len();
        for chain in 0..6 {
            let mut m = s.clone();
            let mut state = ev.assess(&m);
            for step in 0..12 {
                let patch = if rng.gen_bool(0.5) {
                    let mut cells = Vec::new();
                    let mut seen = std::collections::HashSet::new();
                    for _ in 0..rng.gen_range(1..=6) {
                        let (row, k) = (rng.gen_range(0..m.n_rows()), rng.gen_range(0..3));
                        if seen.insert((row, k)) {
                            let old = m.get(row, k);
                            // draws from few codes, so cells empty and revive
                            let c = (ev.prepared().cats(k) as u16).min(3);
                            m.set(row, k, rng.gen_range(0..c));
                            cells.push(PatchCell { row, attr: k, old });
                        }
                    }
                    Patch::from_cells(cells)
                } else {
                    let start = rng.gen_range(0..flat);
                    let end = (start + rng.gen_range(0..flat / 3)).min(flat - 1);
                    let old: Vec<Code> = (start..=end).map(|p| m.get_flat(p)).collect();
                    for p in start..=end {
                        let k = p % m.n_attrs();
                        let c = (ev.prepared().cats(k) as u16).min(3);
                        m.set_flat(p, rng.gen_range(0..c));
                    }
                    Patch::flat_range(start, end, old)
                };
                state = ev.reassess(&state, &m, &patch);
                // a patch of several cells compacts: tombstones stay at
                // most a quarter of the live cells
                let live = state.cells.iter_live().count();
                if patch.len() > 1 {
                    assert!(4 * (state.cells.len() - live) <= live, "step {step}");
                }
                let fresh = ev.assess(&m);
                assert_eq!(
                    live_cells(&state),
                    live_cells(&fresh),
                    "chain {chain}, step {step}"
                );
                assert_eq!(
                    state.assessment, fresh.assessment,
                    "chain {chain}, step {step}"
                );
            }
        }
    }

    #[test]
    fn state_bytes_per_row_stay_small_at_20k_rows() {
        // 8 bytes a row of row maps (the masked pattern index's and the
        // cell ids), plus tables sized by patterns and cells: about 8
        // bytes a row more for this lightly perturbed file's 2.4k cells and
        // 1.5k masked patterns. Per-record credit vectors and self-patterns
        // would add 28 bytes a row.
        let (ev, s) = setup(20_000);
        let mut rng = StdRng::seed_from_u64(22);
        let mut m = s.clone();
        for r in 0..m.n_rows() {
            if rng.gen_bool(0.05) {
                let k = rng.gen_range(0..m.n_attrs());
                let c = ev.prepared().cats(k) as u16;
                m.set(r, k, rng.gen_range(0..c));
            }
        }
        let state = ev.assess(&m);
        let per_row = state.approx_bytes() as f64 / m.n_rows() as f64;
        assert!(per_row <= 20.0, "{per_row:.2} bytes per row");
        assert!(
            per_row >= 8.0,
            "{per_row:.2} bytes per row: row maps uncounted"
        );
    }

    #[test]
    fn breakdown_values_average_components() {
        let il = IlBreakdown {
            ctbil: 30.0,
            dbil: 60.0,
            ebil: 90.0,
        };
        assert!((il.value() - 60.0).abs() < 1e-12);
        let dr = DrBreakdown {
            id: 10.0,
            dbrl: 20.0,
            prl: 30.0,
            rsrl: 40.0,
        };
        assert!((dr.value() - 25.0).abs() < 1e-12);
    }
}
