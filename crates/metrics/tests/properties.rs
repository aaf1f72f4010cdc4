//! Property tests of the blocked-linkage exactness contract: the
//! pattern-index (blocked) scans produce credits and assessments that are
//! `assert_eq!`-identical — not merely close — to the all-pairs reference
//! scans (the oracle kept in `cdp_metrics::linkage`), on random tables
//! *and* after random patch sequences through the incremental evaluator.
//!
//! Random instances are generated from `(shape, seed)` tuples via seeded
//! RNGs, so proptest shrinks over compact parameters while the instances
//! stay arbitrary.

use std::ops::RangeInclusive;
use std::sync::Arc;

use cdp_dataset::{Attribute, Code, PatternIndex, Schema, SubTable};
use cdp_metrics::linkage::{
    dbrl, dbrl_credits, dbrl_credits_blocked, prl, rsrl, rsrl_credits, rsrl_credits_blocked,
};
use cdp_metrics::{
    Assessment, Evaluator, MaskedStats, MetricConfig, Patch, PatchCell, PreparedOriginal,
    LINK_TABLE_MAX_SLOTS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random sub-table: `a` attributes (mixed kinds), `n` rows.
fn random_subtable(a: usize, n: usize, seed: u64) -> SubTable {
    random_subtable_with(a, n, 2..=6, seed)
}

/// [`random_subtable`] with each attribute's category count drawn from
/// `cats`.
fn random_subtable_with(a: usize, n: usize, cats: RangeInclusive<usize>, seed: u64) -> SubTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let attrs: Vec<Attribute> = (0..a)
        .map(|i| {
            let cats = rng.gen_range(cats.clone());
            if rng.gen_bool(0.5) {
                Attribute::ordinal(format!("A{i}"), cats)
            } else {
                Attribute::nominal(format!("A{i}"), cats)
            }
        })
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

/// A random masking of `sub`: each cell re-drawn with probability ~0.4.
fn random_masking(sub: &SubTable, seed: u64) -> SubTable {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut m = sub.clone();
    for k in 0..m.n_attrs() {
        let c = m.attr(k).n_categories() as Code;
        for r in 0..m.n_rows() {
            if rng.gen_bool(0.4) {
                m.set(r, k, rng.gen_range(0..c));
            }
        }
    }
    m
}

fn evaluator(original: &SubTable) -> Evaluator {
    Evaluator::new(original, MetricConfig::default()).unwrap()
}

/// The DBRL, PRL and RSRL parts of `assessment` (an assessment of
/// `masked`) equal the all-pairs reference scans of `masked`, bit for bit.
fn assert_linkage_matches_pairs_oracle(ev: &Evaluator, masked: &SubTable, assessment: &Assessment) {
    let prep = ev.prepared();
    let cfg = MetricConfig::default();
    let window = cfg.rsrl_window_fraction;
    assert_eq!(
        assessment.dr_parts.dbrl.to_bits(),
        dbrl(prep, masked).to_bits(),
        "DBRL vs all-pairs"
    );
    assert_eq!(
        assessment.dr_parts.prl.to_bits(),
        prl(prep, masked, cfg.prl_em_iters).to_bits(),
        "PRL vs all-pairs"
    );
    assert_eq!(
        assessment.dr_parts.rsrl.to_bits(),
        rsrl(prep, masked, window).to_bits(),
        "RSRL vs all-pairs"
    );
}

/// The seven parts of an assessment as bit patterns, so `-0.0 != 0.0`
/// and a NaN equals itself.
fn assessment_bits(a: &Assessment) -> [u64; 7] {
    let (il, dr) = (a.il_parts, a.dr_parts);
    [il.ctbil, il.dbil, il.ebil, dr.id, dr.dbrl, dr.prl, dr.rsrl].map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The free-function scans: DBRL and RSRL credits agree bit for bit
    /// between the two backends. Few
    /// categories (2..=6) force heavy pattern duplication, exercising the
    /// multiplicity-weighted tie expansion. A `wide` input has 7
    /// attributes of 5–6 categories, a pattern space above
    /// `LINK_TABLE_MAX_SLOTS`, so its blocked DBRL scans run without the
    /// link table.
    #[test]
    fn blocked_scans_equal_all_pairs_on_random_tables(
        a in 2usize..=4, n in 10usize..=60, seed in any::<u64>(), wide in any::<bool>()
    ) {
        let original = if wide {
            random_subtable_with(7, n, 5..=6, seed)
        } else {
            random_subtable(a, n, seed)
        };
        let masked = random_masking(&original, seed ^ 1);
        let prep = PreparedOriginal::new(&original);
        let space: usize = (0..prep.n_attrs()).map(|k| prep.cats(k)).product();
        prop_assert_eq!(space > LINK_TABLE_MAX_SLOTS, wide);
        prop_assert_eq!(prep.link_table_fill().0, if wide { 0 } else { space });
        let index = PatternIndex::build(&masked);
        prop_assert_eq!(
            dbrl_credits_blocked(&prep, &masked, &index),
            dbrl_credits(&prep, &masked)
        );
        let stats = MaskedStats::build(&prep, &masked);
        for window in [1.0, 3.0, 10.0] {
            prop_assert_eq!(
                rsrl_credits_blocked(&prep, &stats, &index, window),
                rsrl_credits(&prep, &stats, &masked, window)
            );
        }
    }

    /// Whole-evaluator equality: the evaluator's DBRL and RSRL parts of
    /// a masked file equal the all-pairs reference scans of that file.
    #[test]
    fn blocked_assessment_equals_pairs_reference(
        a in 2usize..=4, n in 10usize..=50, seed in any::<u64>()
    ) {
        let original = random_subtable(a, n, seed);
        let masked = random_masking(&original, seed ^ 2);
        let ev = evaluator(&original);
        assert_linkage_matches_pairs_oracle(&ev, &masked, &ev.evaluate(&masked));
    }

    /// The patch path: drive the evaluator through a random mutation/patch
    /// sequence. After every step the patched state's DBRL and RSRL parts
    /// must equal the all-pairs reference scans of the patched file, and
    /// the whole assessment must equal a from-scratch assessment — the
    /// exactness contract extended to the index-patching
    /// (`PatternIndex::move_row`) code path.
    #[test]
    fn blocked_patch_path_stays_identical_to_pairs_and_full(
        a in 2usize..=3, n in 10usize..=40, seed in any::<u64>()
    ) {
        let original = random_subtable(a, n, seed);
        let mut masked = random_masking(&original, seed ^ 3);
        let ev = evaluator(&original);
        let mut state = ev.assess(&masked);
        assert_linkage_matches_pairs_oracle(&ev, &masked, &state.assessment);
        let mut rng = StdRng::seed_from_u64(seed ^ 4);
        for step in 0..6 {
            // alternate single-cell mutations and multi-cell patches
            let patch = if step % 2 == 0 {
                let row = rng.gen_range(0..masked.n_rows());
                let k = rng.gen_range(0..masked.n_attrs());
                let c = masked.attr(k).n_categories() as Code;
                let old = masked.get(row, k);
                masked.set(row, k, rng.gen_range(0..c));
                Patch::cell(row, k, old)
            } else {
                let mut cells = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for _ in 0..rng.gen_range(2..8) {
                    let row = rng.gen_range(0..masked.n_rows());
                    let k = rng.gen_range(0..masked.n_attrs());
                    if !seen.insert((row, k)) {
                        continue;
                    }
                    let c = masked.attr(k).n_categories() as Code;
                    let old = masked.get(row, k);
                    masked.set(row, k, rng.gen_range(0..c));
                    cells.push(PatchCell { row, attr: k, old });
                }
                Patch::from_cells(cells)
            };
            state = ev.reassess(&state, &masked, &patch);
            assert_linkage_matches_pairs_oracle(&ev, &masked, &state.assessment);
            prop_assert_eq!(
                state.assessment,
                ev.assess(&masked).assessment,
                "step {} vs full",
                step
            );
        }
    }

    /// Flat-range patches, the crossover shape the evaluator walks in
    /// place, give the same state as the same cells handed over as an
    /// explicit list (resolved, sorted and checked), and the same
    /// assessment as a fresh `assess`. Ranges cover one cell, straddle a
    /// row boundary, span the whole file, or fall anywhere.
    #[test]
    fn flat_range_patch_equals_cell_list_and_full(
        a in 1usize..=4, n in 2usize..=40, shape in 0usize..4, seed in any::<u64>()
    ) {
        let original = random_subtable(a, n, seed);
        let base = random_masking(&original, seed ^ 5);
        let donor = random_masking(&original, seed ^ 6);
        let ev = evaluator(&original);
        let state = ev.assess(&base);
        let flat = base.flat_len();
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let (s, r) = match shape {
            0 => {
                let p = rng.gen_range(0..flat);
                (p, p)
            }
            1 => {
                let boundary = rng.gen_range(1..n) * a;
                (boundary - rng.gen_range(1..=a), boundary + rng.gen_range(0..a))
            }
            2 => (0, flat - 1),
            _ => {
                let s = rng.gen_range(0..flat);
                (s, rng.gen_range(s..flat))
            }
        };
        let old: Vec<Code> = (s..=r).map(|p| base.get_flat(p)).collect();
        let mut child = base.clone();
        for p in s..=r {
            child.set_flat(p, donor.get_flat(p));
        }
        let range = Patch::flat_range(s, r, old);
        let cells = Patch::from_cells(range.resolve(a));
        let by_range = ev.reassess(&state, &child, &range);
        let by_cells = ev.reassess(&state, &child, &cells);
        prop_assert_eq!(format!("{by_range:?}"), format!("{by_cells:?}"));
        prop_assert_eq!(
            assessment_bits(&by_range.assessment),
            assessment_bits(&ev.assess(&child).assessment)
        );
    }
}
