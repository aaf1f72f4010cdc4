//! Cached statistics of the original file and of one masked file.
//!
//! Every measure consults the original data only through
//! [`PreparedOriginal`], built once per experiment; the per-evaluation
//! masked-side statistics live in [`MaskedStats`]. Keeping both explicit is
//! what makes the incremental (single-mutation) re-assessment possible.

use std::fmt;
use std::sync::{Arc, OnceLock};

use cdp_dataset::{AttrKind, Code, PatternId, PatternIndex, SubTable};

use crate::contingency::ContingencyTables;
use crate::{MetricError, Result};

/// Immutable, precomputed view of the original protected columns.
#[derive(Debug, Clone)]
pub struct PreparedOriginal {
    orig: SubTable,
    cats: Vec<usize>,
    ordinal: Vec<bool>,
    /// `1 / (c − 1)` per attribute (0 for single-category attributes);
    /// the scale of ordinal code distances.
    inv_span: Vec<f64>,
    counts: Vec<Vec<u32>>,
    probs: Vec<Vec<f64>>,
    /// Total-order position of each category: dictionary order for ordinal
    /// attributes, ascending frequency order (of the original column) for
    /// nominal ones.
    order_keys: Vec<Vec<usize>>,
    /// First rank (0-based) of each category when the original column is
    /// sorted by `order_keys`.
    rank_start: Vec<Vec<usize>>,
    tables: ContingencyTables,
    /// `Σ_v p(v)²` per attribute: the probability two random records agree
    /// by chance (the Fellegi–Sunter `u` initialization).
    chance_agreement: Vec<f64>,
    /// Distinct-pattern index of the original file — the static half of the
    /// blocked record-linkage scans.
    pattern_index: PatternIndex,
    /// `min_cell_dist[k][x]` = minimum of `cell_distance(k, x, y)` over the
    /// codes `y` actually present in original column `k`: a per-attribute
    /// lower bound on any masked-to-original cell distance, used to prune
    /// pattern comparisons in the blocked DBRL scan.
    min_cell_dist: Vec<Vec<f64>>,
    /// Coordinate of each category among the categories present in
    /// original column `k`, in `order_keys` order (`u32::MAX` for an
    /// absent category): the axes of the RSRL rank box.
    rank_coord: Vec<Vec<u32>>,
    /// `(first, last)` sorted-rank of each present category of column `k`,
    /// by coordinate, as the `f64`s the RSRL window comparison reads.
    rank_span: Vec<RankSpans>,
    /// `pattern_coord[pid·a + k]`: the rank coordinate of attribute `k` of
    /// original pattern `pid`.
    pattern_coord: Vec<u32>,
    /// Inverted postings of the pattern index: `postings[k]` groups the
    /// pattern ids by their code of attribute `k`. The above-cap RSRL
    /// candidate count walks them.
    postings: Vec<Groups>,
    /// The records grouped by their pattern id: the joint cells of a
    /// masked file are built one original pattern at a time.
    pattern_rows: Groups,
    /// Lazily filled [`PatternFacts`] per masked pattern (see
    /// [`LinkTable`]) and the RSRL rank box; `None` when the pattern
    /// space exceeds [`LINK_TABLE_MAX_SLOTS`]. Behind an `Arc`, so clones
    /// of one preparation share every fill.
    link_table: Option<Arc<LinkTable>>,
}

/// Largest masked-pattern space (`Π_k c_k`) that gets the per-original
/// pattern tables: one lazily filled slot per pattern (its DBRL link and
/// its PRL agreement histogram) and the RSRL rank box, a
/// prefix-count grid over the same space. Every shipped generator is in
/// the low thousands (Adult 1568, German 180); wider inputs keep the
/// per-call scans, with identical results.
pub const LINK_TABLE_MAX_SLOTS: usize = 1 << 16;

/// The items `0..n` grouped by a key, CSR-style: the items with key `v`
/// are `items[start[v]..start[v + 1]]`, in increasing order.
#[derive(Debug, Clone)]
struct Groups {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Groups {
    /// Group items `0..n` by `key(i) < n_keys`: a counting sort.
    ///
    /// # Panics
    /// When `n` exceeds `u32::MAX` (items are stored as `u32`).
    fn new(n_keys: usize, n: usize, key: impl Fn(usize) -> usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "{n} items exceed the u32 range");
        let mut start = vec![0u32; n_keys + 1];
        for i in 0..n {
            start[key(i) + 1] += 1;
        }
        for v in 0..n_keys {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut items = vec![0; n];
        for i in 0..n {
            let at = &mut fill[key(i)];
            items[*at as usize] = i as u32;
            *at += 1;
        }
        Groups { start, items }
    }

    #[inline]
    fn get(&self, v: usize) -> &[u32] {
        &self.items[self.start[v] as usize..self.start[v + 1] as usize]
    }

    fn approx_bytes(&self) -> usize {
        (self.start.len() + self.items.len()) * std::mem::size_of::<u32>()
    }
}

/// Everything about one masked pattern's linkage that depends only on the
/// pattern and the original, computed by the scans it replaces.
#[derive(Debug)]
pub(crate) struct PatternFacts {
    /// DBRL `(best distance, tie mass)` against the original's patterns.
    pub(crate) link: (f64, u64),
    /// PRL agreement histogram: `hist[p]` = #original records whose
    /// agreement pattern against this masked pattern is `p` (`2^a` bins).
    pub(crate) hist: Box<[u32]>,
}

/// One write-once [`PatternFacts`] slot per point of the masked pattern
/// space, indexed by the pattern's mixed-radix code `Σ_k q[k]·stride_k`,
/// plus the RSRL [`RankBox`] over the same space. A slot depends only on
/// the pattern and the original, so it is filled on first use and then
/// served to every later assessment against this original — and, through
/// the shared `Arc`, to every clone of the evaluator that owns it.
pub(crate) struct LinkTable {
    /// `(category count, stride)` per attribute.
    radix: Vec<(usize, usize)>,
    slots: Box<[OnceLock<PatternFacts>]>,
    rank_box: RankBox,
}

impl LinkTable {
    /// An empty table over the product space of `cats`, or `None` when that
    /// space exceeds [`LINK_TABLE_MAX_SLOTS`]; `rank_box` builds the RSRL
    /// grid (up to the space's size), so it runs only within the cap.
    fn new(cats: &[usize], rank_box: impl FnOnce() -> RankBox) -> Option<Self> {
        let mut radix = Vec::with_capacity(cats.len());
        let mut size = 1usize;
        for &c in cats {
            radix.push((c, size));
            size = size.checked_mul(c).filter(|&s| s <= LINK_TABLE_MAX_SLOTS)?;
        }
        Some(LinkTable {
            radix,
            slots: (0..size).map(|_| OnceLock::new()).collect(),
            rank_box: rank_box(),
        })
    }

    /// The slot of pattern `q`, or `None` when `q` lies outside the space.
    #[inline]
    fn slot(&self, q: &[Code]) -> Option<&OnceLock<PatternFacts>> {
        if q.len() != self.radix.len() {
            return None;
        }
        let mut code = 0;
        for (&x, &(c, stride)) in q.iter().zip(&self.radix) {
            if usize::from(x) >= c {
                return None;
            }
            code += usize::from(x) * stride;
        }
        self.slots.get(code)
    }

    fn filled(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    fn approx_bytes(&self) -> usize {
        let hist_bytes: usize = self
            .slots
            .iter()
            .filter_map(OnceLock::get)
            .map(|f| f.hist.len() * std::mem::size_of::<u32>())
            .sum();
        self.slots.len() * std::mem::size_of::<OnceLock<PatternFacts>>()
            + hist_bytes
            + self.radix.len() * std::mem::size_of::<(usize, usize)>()
            + self.rank_box.approx_bytes()
    }
}

impl fmt::Debug for LinkTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinkTable")
            .field("slots", &self.slots.len())
            .field("filled", &self.filled())
            .finish()
    }
}

/// The original's joint counts in rank coordinates ([`PreparedOriginal`]'s
/// `rank_coord`), stored as an inclusive prefix-sum grid. The categories
/// an RSRL window admits form one coordinate run per attribute, so the
/// candidate count of a masked pattern is the count inside a box: `2^a`
/// lookups instead of a scan over the original's patterns.
struct RankBox {
    /// `(extent, stride)` per attribute; extent = present categories.
    axes: Vec<(usize, usize)>,
    /// `prefix[Σ_k x_k·stride_k]` = #original records with coordinate
    /// `≤ x_k` on every attribute `k`.
    prefix: Box<[u32]>,
}

impl RankBox {
    fn build(index: &PatternIndex, rank_coord: &[Vec<u32>], extents: &[usize]) -> Self {
        let mut axes = Vec::with_capacity(extents.len());
        let mut size = 1usize;
        for &e in extents {
            axes.push((e, size));
            size *= e;
        }
        let mut prefix = vec![0u32; size].into_boxed_slice();
        for (_, codes, mult) in index.iter_live() {
            let cell: usize = codes
                .iter()
                .zip(rank_coord)
                .zip(&axes)
                .map(|((&x, coord), &(_, stride))| coord[usize::from(x)] as usize * stride)
                .sum();
            prefix[cell] += mult;
        }
        // one running sum along each axis turns counts into prefix counts
        for &(extent, stride) in &axes {
            for cell in 0..size {
                if (cell / stride) % extent != 0 {
                    prefix[cell] += prefix[cell - stride];
                }
            }
        }
        RankBox { axes, prefix }
    }

    /// #original records whose coordinate lies in `runs[k] = lo..hi` on
    /// every attribute `k`: inclusion–exclusion over the `2^a` corners.
    fn count(&self, runs: &[(u32, u32)]) -> u64 {
        if runs.iter().any(|&(lo, hi)| lo >= hi) {
            return 0;
        }
        let mut total = 0i64;
        'corner: for corner in 0..1usize << runs.len() {
            let mut cell = 0usize;
            let mut sign = 1i64;
            for (k, (&(lo, hi), &(_, stride))) in runs.iter().zip(&self.axes).enumerate() {
                let x = if corner >> k & 1 == 1 {
                    hi as usize - 1
                } else if lo == 0 {
                    continue 'corner; // an empty prefix counts nothing
                } else {
                    sign = -sign;
                    lo as usize - 1
                };
                cell += x * stride;
            }
            total += sign * i64::from(self.prefix[cell]);
        }
        u64::try_from(total).expect("a box count is non-negative")
    }

    fn approx_bytes(&self) -> usize {
        self.prefix.len() * std::mem::size_of::<u32>()
            + self.axes.len() * std::mem::size_of::<(usize, usize)>()
    }
}

impl PreparedOriginal {
    /// Precompute all original-side statistics.
    pub fn new(orig: &SubTable) -> Self {
        let a = orig.n_attrs();
        let n = orig.n_rows();
        let cats: Vec<usize> = (0..a).map(|k| orig.attr(k).n_categories()).collect();
        let ordinal: Vec<bool> = (0..a).map(|k| orig.attr(k).kind().is_ordinal()).collect();
        let inv_span: Vec<f64> = cats
            .iter()
            .map(|&c| if c > 1 { 1.0 / (c - 1) as f64 } else { 0.0 })
            .collect();

        let mut counts: Vec<Vec<u32>> = cats.iter().map(|&c| vec![0u32; c]).collect();
        for (k, count) in counts.iter_mut().enumerate() {
            for &v in orig.column(k) {
                count[v as usize] += 1;
            }
        }
        let probs: Vec<Vec<f64>> = counts
            .iter()
            .map(|cnt| cnt.iter().map(|&x| x as f64 / n.max(1) as f64).collect())
            .collect();

        let order_keys: Vec<Vec<usize>> = (0..a)
            .map(|k| match orig.attr(k).kind() {
                AttrKind::Ordinal => (0..cats[k]).collect(),
                AttrKind::Nominal => {
                    let mut codes: Vec<usize> = (0..cats[k]).collect();
                    codes.sort_by_key(|&c| (counts[k][c], c));
                    let mut key = vec![0usize; cats[k]];
                    for (pos, &c) in codes.iter().enumerate() {
                        key[c] = pos;
                    }
                    key
                }
            })
            .collect();

        let rank_start = rank_starts(&counts, &order_keys);
        let (rank_coord, rank_span) = rank_coords(&counts, &order_keys, &rank_start);

        let chance_agreement: Vec<f64> = probs
            .iter()
            .map(|p| p.iter().map(|&x| x * x).sum())
            .collect();

        let min_cell_dist: Vec<Vec<f64>> = (0..a)
            .map(|k| {
                (0..cats[k])
                    .map(|x| {
                        let mut best = f64::INFINITY;
                        for (y, &cnt) in counts[k].iter().enumerate() {
                            if cnt == 0 {
                                continue;
                            }
                            let d = if ordinal[k] {
                                f64::from((x as Code).abs_diff(y as Code)) * inv_span[k]
                            } else if x == y {
                                0.0
                            } else {
                                1.0
                            };
                            best = best.min(d);
                        }
                        if best.is_finite() {
                            best
                        } else {
                            0.0 // empty column: no pairs to bound
                        }
                    })
                    .collect()
            })
            .collect();

        let pattern_index = PatternIndex::build(orig);
        let pattern_coord: Vec<u32> = pattern_index
            .iter_live()
            .flat_map(|(_, codes, _)| {
                codes
                    .iter()
                    .zip(&rank_coord)
                    .map(|(&x, coord)| coord[usize::from(x)])
            })
            .collect();
        let p_o = pattern_index.n_patterns();
        let postings = (0..a)
            .map(|k| {
                Groups::new(cats[k], p_o, |pid| {
                    usize::from(pattern_index.codes_of(pid as PatternId)[k])
                })
            })
            .collect();
        let pattern_rows = Groups::new(p_o, n, |row| pattern_index.pattern_of(row) as usize);
        let link_table = LinkTable::new(&cats, || {
            let extents: Vec<usize> = rank_span.iter().map(Vec::len).collect();
            RankBox::build(&pattern_index, &rank_coord, &extents)
        })
        .map(Arc::new);
        PreparedOriginal {
            tables: ContingencyTables::build(orig),
            pattern_index,
            link_table,
            orig: orig.clone(),
            cats,
            ordinal,
            inv_span,
            counts,
            probs,
            order_keys,
            rank_start,
            chance_agreement,
            min_cell_dist,
            rank_coord,
            rank_span,
            pattern_coord,
            postings,
            pattern_rows,
        }
    }

    /// Approximate heap footprint in bytes: the retained original arena
    /// plus every derived component (marginals, probabilities, rank stats,
    /// contingency tables, the pattern index with its postings and row
    /// groups, the distance bounds, the rank coordinates, the link table's allocated slots, filled or not, with
    /// the histograms of the filled ones, and the rank box). The session cache
    /// reports this per cached original.
    pub fn approx_bytes(&self) -> usize {
        let arena = self.orig.flat_len() * std::mem::size_of::<Code>();
        let per_cat: usize = (0..self.cats.len())
            .map(|k| {
                self.counts[k].len() * std::mem::size_of::<u32>()
                    + self.probs[k].len() * std::mem::size_of::<f64>()
                    + self.order_keys[k].len() * std::mem::size_of::<usize>()
                    + self.rank_start[k].len() * std::mem::size_of::<usize>()
                    + self.min_cell_dist[k].len() * std::mem::size_of::<f64>()
                    + self.rank_coord[k].len() * std::mem::size_of::<u32>()
                    + self.rank_span[k].len() * std::mem::size_of::<(f64, f64)>()
            })
            .sum();
        let scalars = self.cats.len()
            * (std::mem::size_of::<usize>()
                + std::mem::size_of::<bool>()
                + 2 * std::mem::size_of::<f64>());
        arena
            + per_cat
            + self.pattern_coord.len() * std::mem::size_of::<u32>()
            + scalars
            + self.tables.approx_bytes()
            + self.pattern_index.approx_bytes()
            + self
                .postings
                .iter()
                .map(Groups::approx_bytes)
                .sum::<usize>()
            + self.pattern_rows.approx_bytes()
            + self.link_table.as_ref().map_or(0, |t| t.approx_bytes())
    }

    /// The original sub-table.
    pub fn orig(&self) -> &SubTable {
        &self.orig
    }

    /// Number of records.
    pub fn n_rows(&self) -> usize {
        self.orig.n_rows()
    }

    /// Number of protected attributes.
    pub fn n_attrs(&self) -> usize {
        self.orig.n_attrs()
    }

    /// Category count of attribute `k`.
    pub fn cats(&self, k: usize) -> usize {
        self.cats[k]
    }

    /// Whether attribute `k` is ordinal.
    pub fn is_ordinal(&self, k: usize) -> bool {
        self.ordinal[k]
    }

    /// `1/(c−1)` scale of attribute `k`.
    pub fn inv_span(&self, k: usize) -> f64 {
        self.inv_span[k]
    }

    /// Original marginal counts of attribute `k`.
    pub fn counts(&self, k: usize) -> &[u32] {
        &self.counts[k]
    }

    /// Original marginal probabilities of attribute `k`.
    pub fn probs(&self, k: usize) -> &[f64] {
        &self.probs[k]
    }

    /// Total-order keys of attribute `k`.
    pub fn order_keys(&self, k: usize) -> &[usize] {
        &self.order_keys[k]
    }

    /// First sorted-rank of each category in the original column `k`.
    pub fn rank_start(&self, k: usize) -> &[usize] {
        &self.rank_start[k]
    }

    /// Original contingency tables (orders 1 and 2).
    pub fn tables(&self) -> &ContingencyTables {
        &self.tables
    }

    /// Chance-agreement probability of attribute `k`.
    pub fn chance_agreement(&self, k: usize) -> f64 {
        self.chance_agreement[k]
    }

    /// Distinct-pattern index of the original protected columns (static;
    /// built once with the rest of the original-side statistics).
    pub fn pattern_index(&self) -> &PatternIndex {
        &self.pattern_index
    }

    /// Lower bound on `cell_distance(k, x, ·)` against any code present in
    /// the original column `k`.
    #[inline]
    pub fn min_cell_dist(&self, k: usize, x: Code) -> f64 {
        self.min_cell_dist[k][x as usize]
    }

    /// The link-table slot of masked pattern `q`, or `None` when the
    /// pattern space is above [`LINK_TABLE_MAX_SLOTS`] (or `q` lies outside
    /// it). [`crate::linkage::pattern_facts`] is the only reader.
    #[inline]
    pub(crate) fn facts_slot(&self, q: &[Code]) -> Option<&OnceLock<PatternFacts>> {
        self.link_table.as_ref()?.slot(q)
    }

    /// The rank-compatible categories of attribute `k` for an RSRL window
    /// of `window` positions around `midrank`, as the half-open run
    /// `lo..hi` of rank coordinates: exactly the categories
    /// [`crate::linkage::compatible_categories`] flags (present categories
    /// are ordered by rank, so the categories whose rank interval meets a
    /// window are consecutive). The run is `(0, 0)` when it is empty, as
    /// for a `NaN` midrank, which no comparison admits.
    pub(crate) fn rank_window(&self, k: usize, midrank: f64, window: f64) -> (u32, u32) {
        let lo = midrank - window;
        let hi = midrank + window;
        let spans = &self.rank_span[k];
        // `last >= lo` holds on a suffix of the coordinates, `first <= hi`
        // on a prefix: the comparisons of `compatible_categories`. A NaN
        // midrank makes `end` 0, so the run is empty
        let start = spans.partition_point(|&(_, last)| last < lo);
        let end = spans.partition_point(|&(first, _)| first <= hi);
        if start < end {
            (start as u32, end as u32)
        } else {
            (0, 0)
        }
    }

    /// Rank coordinate of each category of attribute `k` (`u32::MAX` for
    /// a category absent from the original).
    #[cfg(test)]
    pub(crate) fn rank_coords(&self, k: usize) -> &[u32] {
        &self.rank_coord[k]
    }

    /// Rank coordinates of original pattern `pid` (an id of
    /// [`PreparedOriginal::pattern_index`]), one per attribute: the points
    /// the runs of [`PreparedOriginal::rank_window`] are checked against.
    #[inline]
    pub(crate) fn pattern_rank_coords(&self, pid: PatternId) -> &[u32] {
        let a = self.n_attrs();
        &self.pattern_coord[pid as usize * a..][..a]
    }

    /// Ids of the original patterns whose attribute `k` carries code `v`
    /// (the inverted posting list), in id order.
    pub(crate) fn postings(&self, k: usize, v: Code) -> &[PatternId] {
        self.postings[k].get(usize::from(v))
    }

    /// The records carrying original pattern `pid`, in row order.
    pub(crate) fn pattern_rows(&self, pid: PatternId) -> &[u32] {
        self.pattern_rows.get(pid as usize)
    }

    /// #original records inside every run of `runs` (one per attribute,
    /// from [`PreparedOriginal::rank_window`]), counted in the rank box;
    /// `None` when the pattern space is above [`LINK_TABLE_MAX_SLOTS`].
    pub(crate) fn rank_box_count(&self, runs: &[(u32, u32)]) -> Option<u64> {
        Some(self.link_table.as_ref()?.rank_box.count(runs))
    }

    /// Whether the pattern space is within [`LINK_TABLE_MAX_SLOTS`], so
    /// the link table and the rank box exist.
    pub(crate) fn has_link_table(&self) -> bool {
        self.link_table.is_some()
    }

    /// `(slots, filled)` of the link table; `(0, 0)` when the pattern space
    /// is above [`LINK_TABLE_MAX_SLOTS`] and pattern facts are scanned per
    /// call instead.
    pub fn link_table_fill(&self) -> (usize, usize) {
        self.link_table
            .as_ref()
            .map_or((0, 0), |t| (t.slots.len(), t.filled()))
    }

    /// Distance between two codes of attribute `k`: normalized code
    /// distance for ordinal attributes, 0/1 for nominal ones.
    #[inline]
    pub fn cell_distance(&self, k: usize, x: Code, y: Code) -> f64 {
        if self.ordinal[k] {
            f64::from(x.abs_diff(y)) * self.inv_span[k]
        } else if x == y {
            0.0
        } else {
            1.0
        }
    }

    /// Verify that a masked file is comparable to the original (same schema
    /// object semantics, attribute selection and row count).
    pub fn check_compatible(&self, masked: &SubTable) -> Result<()> {
        if masked.n_rows() != self.orig.n_rows()
            || masked.attr_indices() != self.orig.attr_indices()
            || **masked.schema() != **self.orig.schema()
        {
            return Err(MetricError::ShapeMismatch(format!(
                "masked file ({} rows, attrs {:?}) does not match original ({} rows, attrs {:?})",
                masked.n_rows(),
                masked.attr_indices(),
                self.orig.n_rows(),
                self.orig.attr_indices(),
            )));
        }
        Ok(())
    }
}

/// Per-evaluation statistics of one masked file: marginal counts and the
/// first sorted-rank of each category (under the *original* order keys, the
/// attacker's fixed view of the category order).
#[derive(Debug, PartialEq)]
pub struct MaskedStats {
    /// Marginal counts per attribute.
    pub counts: Vec<Vec<u32>>,
    /// First rank of each category in the sorted masked column.
    pub rank_start: Vec<Vec<usize>>,
}

impl Clone for MaskedStats {
    fn clone(&self) -> Self {
        MaskedStats {
            counts: self.counts.clone(),
            rank_start: self.rank_start.clone(),
        }
    }

    /// Buffer-reusing copy (`Vec::clone_from` recycles the per-attribute
    /// vectors), so scratch evaluation states never re-allocate here.
    fn clone_from(&mut self, src: &Self) {
        self.counts.clone_from(&src.counts);
        self.rank_start.clone_from(&src.rank_start);
    }
}

impl MaskedStats {
    /// Approximate heap footprint in bytes: counts and rank starts.
    pub(crate) fn approx_bytes(&self) -> usize {
        let counts: usize = self.counts.iter().map(Vec::len).sum();
        let starts: usize = self.rank_start.iter().map(Vec::len).sum();
        counts * std::mem::size_of::<u32>() + starts * std::mem::size_of::<usize>()
    }

    /// Build the masked-side statistics.
    pub fn build(prep: &PreparedOriginal, masked: &SubTable) -> Self {
        let a = prep.n_attrs();
        let mut counts: Vec<Vec<u32>> = (0..a).map(|k| vec![0u32; prep.cats(k)]).collect();
        for (k, count) in counts.iter_mut().enumerate() {
            for &v in masked.column(k) {
                count[v as usize] += 1;
            }
        }
        let order_keys: Vec<Vec<usize>> = (0..a).map(|k| prep.order_keys(k).to_vec()).collect();
        let rank_start = rank_starts(&counts, &order_keys);
        MaskedStats { counts, rank_start }
    }

    /// Midrank of category `v` of attribute `k` in the masked column, or
    /// `NaN` when the category does not occur in the masked file. A
    /// zero-count category has no rank interval at all; reporting its
    /// `rank_start` (as a `saturating_sub` formulation would) places it on
    /// top of whatever category happens to start there, letting RSRL
    /// windows match values the masked file never publishes. The `NaN`
    /// sentinel makes every window comparison false instead, so absent
    /// categories are never rank-compatible with anything.
    pub fn midrank(&self, k: usize, v: Code) -> f64 {
        let c = self.counts[k][v as usize];
        if c == 0 {
            return f64::NAN;
        }
        self.rank_start[k][v as usize] as f64 + (c - 1) as f64 / 2.0
    }

    /// Update after one cell of attribute `k` changed from `old` to `new`.
    /// Recomputes that attribute's rank starts (O(c)); no allocation beyond
    /// the rank rebuild's scratch. See [`MaskedStats::apply_patch`] for the
    /// variant that reports which midranks moved.
    pub fn apply_mutation(&mut self, prep: &PreparedOriginal, k: usize, old: Code, new: Code) {
        let _ = self.apply_patch(prep, [(k, old, new)]);
    }

    /// Update after a batch of cell changes, given as `(attribute, old,
    /// new)` triples (row identities are irrelevant to marginal counts).
    /// Count deltas are applied per change; the O(c log c) rank-start
    /// rebuild runs once per *touched attribute*, which is what makes
    /// multi-cell patches cheaper than a chain of single-cell updates.
    ///
    /// Returns every `(attribute, category)` whose **midrank actually
    /// moved** — a count change of one category shifts the rank starts of
    /// every category after it in the total order, so midranks of
    /// *untouched* categories move too. The report is what lets the
    /// incremental evaluator re-credit exactly the records whose RSRL rank
    /// windows changed, instead of only the touched records (the PR 4
    /// approximation) or the whole file.
    pub fn apply_patch<I>(&mut self, prep: &PreparedOriginal, changed: I) -> Vec<MovedCategory>
    where
        I: IntoIterator<Item = (usize, Code, Code)>,
    {
        // snapshot each attribute's (counts, rank starts) on first touch,
        // so old midranks survive the in-place update
        let mut snapshots: Vec<(usize, Vec<u32>, Vec<usize>)> = Vec::new();
        for (k, old, new) in changed {
            if old == new {
                continue;
            }
            if !snapshots.iter().any(|(sk, _, _)| *sk == k) {
                snapshots.push((k, self.counts[k].clone(), self.rank_start[k].clone()));
            }
            self.counts[k][old as usize] -= 1;
            self.counts[k][new as usize] += 1;
        }
        let mut moved = Vec::new();
        for (k, old_counts, old_starts) in snapshots {
            recompute_rank_start(&self.counts[k], prep.order_keys(k), &mut self.rank_start[k]);
            for v in 0..self.counts[k].len() {
                if old_counts[v] == self.counts[k][v] && old_starts[v] == self.rank_start[k][v] {
                    continue;
                }
                let old_midrank = if old_counts[v] == 0 {
                    f64::NAN
                } else {
                    old_starts[v] as f64 + (old_counts[v] - 1) as f64 / 2.0
                };
                moved.push(MovedCategory {
                    attr: k,
                    cat: v as Code,
                    old_midrank,
                    new_midrank: self.midrank(k, v as Code),
                });
            }
        }
        moved
    }
}

/// An `(attribute, category)` whose masked-file midrank changed under a
/// [`MaskedStats::apply_patch`], with the midrank before and after
/// (`NaN` marks a category absent from the masked file on that side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovedCategory {
    /// Protected-attribute index.
    pub attr: usize,
    /// Category code within that attribute.
    pub cat: Code,
    /// Midrank before the patch (`NaN` if the category was absent).
    pub old_midrank: f64,
    /// Midrank after the patch (`NaN` if the category is now absent).
    pub new_midrank: f64,
}

fn rank_starts(counts: &[Vec<u32>], order_keys: &[Vec<usize>]) -> Vec<Vec<usize>> {
    counts
        .iter()
        .zip(order_keys.iter())
        .map(|(cnt, keys)| {
            let mut start = vec![0usize; cnt.len()];
            recompute_rank_start(cnt, keys, &mut start);
            start
        })
        .collect()
}

/// `(first, last)` sorted-rank of each present category of one column, by
/// rank coordinate.
type RankSpans = Vec<(f64, f64)>;

/// Per attribute, the rank coordinate of each category (its position among
/// the present categories in `order_keys` order, `u32::MAX` if absent) and
/// the `(first, last)` rank of each coordinate.
fn rank_coords(
    counts: &[Vec<u32>],
    order_keys: &[Vec<usize>],
    rank_start: &[Vec<usize>],
) -> (Vec<Vec<u32>>, Vec<RankSpans>) {
    counts
        .iter()
        .zip(order_keys)
        .zip(rank_start)
        .map(|((cnt, keys), starts)| {
            let mut by_key: Vec<usize> = (0..cnt.len()).filter(|&v| cnt[v] > 0).collect();
            by_key.sort_by_key(|&v| keys[v]);
            let mut coord = vec![u32::MAX; cnt.len()];
            let spans = by_key
                .iter()
                .enumerate()
                .map(|(x, &v)| {
                    coord[v] = x as u32;
                    let first = starts[v] as f64;
                    let last = (starts[v] + cnt[v] as usize - 1) as f64;
                    (first, last)
                })
                .collect();
            (coord, spans)
        })
        .unzip()
}

fn recompute_rank_start(counts: &[u32], keys: &[usize], out: &mut [usize]) {
    // categories visited in total-order position
    let mut by_key: Vec<usize> = (0..counts.len()).collect();
    by_key.sort_by_key(|&c| keys[c]);
    let mut cum = 0usize;
    for &c in &by_key {
        out[c] = cum;
        cum += counts[c] as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};

    fn sub() -> SubTable {
        DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(2).with_records(100))
            .protected_subtable()
    }

    #[test]
    fn counts_and_probs_are_consistent() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        for k in 0..p.n_attrs() {
            let total: u32 = p.counts(k).iter().sum();
            assert_eq!(total as usize, p.n_rows());
            let psum: f64 = p.probs(k).iter().sum();
            assert!((psum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn postings_and_row_groups_invert_the_pattern_index() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        let index = p.pattern_index();
        for k in 0..p.n_attrs() {
            let mut seen = vec![0u32; index.n_patterns()];
            for v in 0..p.cats(k) {
                let ids = p.postings(k, v as Code);
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "id order");
                for &pid in ids {
                    assert_eq!(index.codes_of(pid)[k], v as Code, "posting misfiled");
                    seen[pid as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "postings not a partition");
        }
        let mut rows: Vec<u32> = (0..index.n_patterns() as PatternId)
            .flat_map(|pid| {
                let group = p.pattern_rows(pid);
                assert_eq!(group.len(), index.multiplicity(pid) as usize);
                assert!(group.iter().all(|&r| index.pattern_of(r as usize) == pid));
                group.to_vec()
            })
            .collect();
        rows.sort_unstable();
        assert!(
            rows.iter().copied().eq(0..p.n_rows() as u32),
            "rows not a partition"
        );
    }

    #[test]
    fn ordinal_order_keys_are_identity() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        // EDUCATION (k=0) is ordinal in Adult
        assert!(p.is_ordinal(0));
        assert_eq!(p.order_keys(0), &(0..16).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn nominal_order_keys_sort_by_frequency() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        // MARITAL (k=1) is nominal: key order must sort counts ascending
        assert!(!p.is_ordinal(1));
        let keys = p.order_keys(1);
        let counts = p.counts(1);
        let mut by_key: Vec<usize> = (0..counts.len()).collect();
        by_key.sort_by_key(|&c| keys[c]);
        for w in by_key.windows(2) {
            assert!(counts[w[0]] <= counts[w[1]]);
        }
    }

    #[test]
    fn rank_starts_partition_the_records() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        for k in 0..p.n_attrs() {
            let starts = p.rank_start(k);
            let counts = p.counts(k);
            let keys = p.order_keys(k);
            let mut spans: Vec<(usize, usize)> = (0..counts.len())
                .filter(|&c| counts[c] > 0)
                .map(|c| (starts[c], starts[c] + counts[c] as usize))
                .collect();
            spans.sort_unstable();
            let mut expected = 0usize;
            for (s0, s1) in spans {
                assert_eq!(s0, expected);
                expected = s1;
            }
            assert_eq!(expected, p.n_rows());
            let _ = keys;
        }
    }

    #[test]
    fn cell_distance_semantics() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        // ordinal EDUCATION: 16 categories, span 15
        assert!((p.cell_distance(0, 0, 15) - 1.0).abs() < 1e-12);
        assert!((p.cell_distance(0, 3, 3) - 0.0).abs() < 1e-12);
        assert!((p.cell_distance(0, 3, 4) - 1.0 / 15.0).abs() < 1e-12);
        // nominal MARITAL: 0/1
        assert_eq!(p.cell_distance(1, 2, 2), 0.0);
        assert_eq!(p.cell_distance(1, 2, 3), 1.0);
    }

    #[test]
    fn masked_stats_mutation_matches_rebuild() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        let mut m = s.clone();
        let mut stats = MaskedStats::build(&p, &m);
        let muts = [(0usize, 0usize, 9u16), (5, 1, 3), (10, 2, 7), (0, 0, 2)];
        for &(row, k, new) in &muts {
            let new = new % p.cats(k) as Code;
            let old = m.get(row, k);
            m.set(row, k, new);
            stats.apply_mutation(&p, k, old, new);
        }
        assert_eq!(stats, MaskedStats::build(&p, &m));
    }

    #[test]
    fn masked_stats_patch_matches_rebuild() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        let mut m = s.clone();
        let mut stats = MaskedStats::build(&p, &m);
        let muts = [(0usize, 0usize, 9u16), (5, 1, 3), (10, 2, 7), (0, 0, 2)];
        let mut batch = Vec::new();
        for &(row, k, new) in &muts {
            let new = new % p.cats(k) as Code;
            let old = m.get(row, k);
            m.set(row, k, new);
            batch.push((k, old, new));
        }
        stats.apply_patch(&p, batch);
        assert_eq!(stats, MaskedStats::build(&p, &m));
    }

    #[test]
    fn midrank_of_unique_value() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        let stats = MaskedStats::build(&p, &s);
        for k in 0..p.n_attrs() {
            for v in 0..p.cats(k) as Code {
                if stats.counts[k][v as usize] == 1 {
                    assert_eq!(stats.midrank(k, v), stats.rank_start[k][v as usize] as f64);
                }
            }
        }
    }

    #[test]
    fn midrank_of_absent_category_is_nan() {
        // regression: a zero-count category used to report midrank ==
        // rank_start (via saturating_sub), aliasing whatever present
        // category starts at that rank and letting RSRL windows match
        // values the masked file never publishes
        let s = sub();
        let p = PreparedOriginal::new(&s);
        let mut m = s.clone();
        // wipe category 0 of attribute 0 out of the masked file
        for r in 0..m.n_rows() {
            if m.get(r, 0) == 0 {
                m.set(r, 0, 1);
            }
        }
        let stats = MaskedStats::build(&p, &m);
        assert_eq!(stats.counts[0][0], 0);
        assert!(stats.midrank(0, 0).is_nan(), "absent category must be NaN");
        // present categories keep real midranks
        assert!(stats.midrank(0, 1).is_finite());
    }

    #[test]
    fn apply_patch_reports_exactly_the_moved_midranks() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        let mut m = s.clone();
        let mut stats = MaskedStats::build(&p, &m);
        let before = stats.clone();
        let (row, k) = (0usize, 0usize);
        let old = m.get(row, k);
        let new = (old + 3) % p.cats(k) as Code;
        m.set(row, k, new);
        let moved = stats.apply_patch(&p, [(k, old, new)]);
        // every reported category really moved, with the right endpoints …
        for mc in &moved {
            assert_eq!(mc.attr, k);
            let was = before.midrank(mc.attr, mc.cat);
            let is = stats.midrank(mc.attr, mc.cat);
            assert!(
                was.to_bits() == mc.old_midrank.to_bits()
                    && is.to_bits() == mc.new_midrank.to_bits(),
                "cat {}: reported {} -> {}, actual {} -> {}",
                mc.cat,
                mc.old_midrank,
                mc.new_midrank,
                was,
                is
            );
        }
        // … and every unreported category kept count and rank start
        for v in 0..p.cats(k) {
            if moved.iter().any(|mc| mc.cat == v as Code) {
                continue;
            }
            assert_eq!(before.counts[k][v], stats.counts[k][v]);
            assert_eq!(before.rank_start[k][v], stats.rank_start[k][v]);
        }
        // both mutated categories are always part of the report
        assert!(moved.iter().any(|mc| mc.cat == old));
        assert!(moved.iter().any(|mc| mc.cat == new));
    }

    #[test]
    fn incompatible_masked_rejected() {
        let s = sub();
        let p = PreparedOriginal::new(&s);
        let other = DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(2).with_records(50))
            .protected_subtable();
        assert!(p.check_compatible(&other).is_err());
        assert!(p.check_compatible(&s).is_ok());
    }
}
