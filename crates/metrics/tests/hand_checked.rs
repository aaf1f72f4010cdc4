//! Hand-computed ground truth on a 4-record, 2-attribute table.
//!
//! Original (O ordinal with 3 categories, N nominal with 2):
//!
//! | row | O | N |
//! |-----|---|---|
//! | 0   | 0 | 0 |
//! | 1   | 1 | 0 |
//! | 2   | 2 | 1 |
//! | 3   | 1 | 1 |
//!
//! The masked variant changes exactly one cell: row 0's O from 0 to 1.
//! Every expected value below is derived in the comments, making this the
//! arithmetic anchor for the whole measure suite.

use std::sync::Arc;

use cdp_dataset::{AttrKind, Attribute, PatternIndex, Schema, SubTable};
use cdp_metrics::linkage::{dbrl, dbrl_credit, dbrl_credit_blocked, dbrl_credits_blocked, rsrl};
use cdp_metrics::{Evaluator, MetricConfig, PreparedOriginal};

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Attribute::new(
                "O",
                AttrKind::Ordinal,
                vec!["o0".into(), "o1".into(), "o2".into()],
            )
            .unwrap(),
            Attribute::new("N", AttrKind::Nominal, vec!["n0".into(), "n1".into()]).unwrap(),
        ])
        .unwrap(),
    )
}

fn original() -> SubTable {
    SubTable::new(
        schema(),
        vec![0, 1],
        vec![vec![0, 1, 2, 1], vec![0, 0, 1, 1]],
    )
    .unwrap()
}

fn masked() -> SubTable {
    // row 0: O 0 -> 1
    SubTable::new(
        schema(),
        vec![0, 1],
        vec![vec![1, 1, 2, 1], vec![0, 0, 1, 1]],
    )
    .unwrap()
}

fn evaluator() -> Evaluator {
    Evaluator::new(&original(), MetricConfig::default()).unwrap()
}

const TOL: f64 = 1e-3;

#[test]
fn dbil_single_ordinal_step() {
    // one changed cell at ordinal distance |0-1|/(3-1) = 0.5;
    // 8 cells total -> 100 * 0.5 / 8 = 6.25
    let a = evaluator().evaluate(&masked());
    assert!(
        (a.il_parts.dbil - 6.25).abs() < TOL,
        "dbil = {}",
        a.il_parts.dbil
    );
}

#[test]
fn ctbil_by_table_counting() {
    // singles O: [1,2,1] vs [0,3,1] -> |diff| = 2; singles N: 0;
    // pair O×N: orig {(0,0):1,(1,0):1,(2,1):1,(1,1):1},
    //           masked {(1,0):2,(2,1):1,(1,1):1} -> |diff| = 2;
    // total 4 over denominator 2·n·T = 2·4·3 = 24 -> 100·4/24 = 16.667
    let a = evaluator().evaluate(&masked());
    assert!(
        (a.il_parts.ctbil - 100.0 * 4.0 / 24.0).abs() < TOL,
        "ctbil = {}",
        a.il_parts.ctbil
    );
}

#[test]
fn ebil_from_the_confusion_channel() {
    // attr O: masked value o1 was published for originals {o0 ×1, o1 ×2},
    // so H(orig | masked=o1) = H(1/3, 2/3) = 0.918296 bits, charged to 3
    // records -> 2.754887 bits. masked o2 is unambiguous. attr N identical.
    // capacity = n · (log2 3 + log2 2) = 4 · 2.584963 = 10.339850
    // EBIL = 100 · 2.754887 / 10.339850 = 26.6434
    let a = evaluator().evaluate(&masked());
    assert!(
        (a.il_parts.ebil - 26.6434).abs() < TOL,
        "ebil = {}",
        a.il_parts.ebil
    );
}

#[test]
fn interval_disclosure_window_catches_one_step() {
    // O window = max(1, round(0.1·2)) = 1 -> the 0->1 change stays inside
    // the interval; everything else is identical. ID = 100.
    let a = evaluator().evaluate(&masked());
    assert!(
        (a.dr_parts.id - 100.0).abs() < TOL,
        "id = {}",
        a.dr_parts.id
    );
}

#[test]
fn dbrl_links_three_of_four() {
    // masked rows: (1,0),(1,0),(2,1),(1,1)
    // record 0 -> nearest original is row 1 (distance 0), not itself: 0
    // records 1..3 -> their own originals at distance 0, unique: 1 each
    let a = evaluator().evaluate(&masked());
    assert!(
        (a.dr_parts.dbrl - 75.0).abs() < TOL,
        "dbrl = {}",
        a.dr_parts.dbrl
    );
}

#[test]
fn prl_links_three_of_four() {
    // full-agreement candidates are unique for records 1..3 and point to
    // row 1 (not 0) for record 0; with m > u the full-agreement pattern
    // dominates, so PRL = 75 regardless of the exact EM estimates
    let a = evaluator().evaluate(&masked());
    assert!(
        (a.dr_parts.prl - 75.0).abs() < TOL,
        "prl = {}",
        a.dr_parts.prl
    );
}

#[test]
fn rsrl_candidate_sets_by_hand() {
    // window = max(1, 0.05·4) = 1 rank position.
    // original rank starts O: o0:0, o1:1, o2:3; N: n0:0, n1:2.
    // masked midranks O: o1 -> 1.0 (3 holders from rank 0), o2 -> 3.
    // record 0 (1,0): O∈{o0,o1}, N=n0 -> candidates {row0,row1}, self in -> 1/2
    // record 1 (1,0): same set -> 1/2
    // record 2 (2,1): O∈{o1,o2}, N=n1 -> {row2,row3} -> 1/2
    // record 3 (1,1): O∈{o0,o1}, N=n1 -> {row3} -> 1
    // RSRL = 100·(0.5+0.5+0.5+1)/4 = 62.5
    let a = evaluator().evaluate(&masked());
    assert!(
        (a.dr_parts.rsrl - 62.5).abs() < TOL,
        "rsrl = {}",
        a.dr_parts.rsrl
    );
}

#[test]
fn identity_reference_values() {
    // identity masking: IL components all zero; ID = 100; all four rows
    // are distinct so DBRL = PRL = 100.
    // RSRL by hand: midranks O: o0->0, o1->1.5, o2->3; candidate sets
    // {row0,row1}, {row1}, {row2,row3}, {row3} -> (0.5+1+0.5+1)/4 = 75.
    let a = evaluator().evaluate(&original());
    assert!(a.il_parts.ctbil.abs() < TOL);
    assert!(a.il_parts.dbil.abs() < TOL);
    assert!(a.il_parts.ebil.abs() < TOL);
    assert!((a.dr_parts.id - 100.0).abs() < TOL);
    assert!((a.dr_parts.dbrl - 100.0).abs() < TOL);
    assert!((a.dr_parts.prl - 100.0).abs() < TOL);
    assert!(
        (a.dr_parts.rsrl - 75.0).abs() < TOL,
        "rsrl = {}",
        a.dr_parts.rsrl
    );
}

#[test]
fn aggregates_follow_from_components() {
    let a = evaluator().evaluate(&masked());
    let il = (a.il_parts.ctbil + a.il_parts.dbil + a.il_parts.ebil) / 3.0;
    let dr = (a.dr_parts.id + a.dr_parts.dbrl + a.dr_parts.prl + a.dr_parts.rsrl) / 4.0;
    assert!((a.il() - il).abs() < 1e-12);
    assert!((a.dr() - dr).abs() < 1e-12);
}

#[test]
fn blocked_backend_reproduces_the_hand_checked_numbers() {
    // the evaluator's blocked DBRL and RSRL parts equal the all-pairs
    // reference scans bit for bit, so every hand-derived number above
    // holds for both scan shapes verbatim
    let ev = evaluator();
    let window = MetricConfig::default().rsrl_window_fraction;
    for m in [original(), masked()] {
        let a = ev.evaluate(&m);
        assert_eq!(a.dr_parts.dbrl.to_bits(), dbrl(ev.prepared(), &m).to_bits());
        assert_eq!(
            a.dr_parts.rsrl.to_bits(),
            rsrl(ev.prepared(), &m, window).to_bits()
        );
    }
}

#[test]
fn blocked_tie_mass_expands_duplicate_originals_by_hand() {
    // original with a duplicated row — (1,0) appears twice:
    //
    // | row | O | N |   distinct patterns: (1,0)×2, (2,1)×1, (1,1)×1
    // |-----|---|---|
    // | 0   | 1 | 0 |
    // | 1   | 1 | 0 |
    // | 2   | 2 | 1 |
    // | 3   | 1 | 1 |
    //
    // identity masking: record 0 sits at distance 0 from originals 0 AND 1,
    // so its tie set has two members and the credit is 1/2. The blocked
    // scan sees ONE original pattern (1,0) with multiplicity 2 and must
    // expand the tie mass to the same 2 — per-record and batch.
    let dup = SubTable::new(
        schema(),
        vec![0, 1],
        vec![vec![1, 1, 2, 1], vec![0, 0, 1, 1]],
    )
    .unwrap();
    let prep = PreparedOriginal::new(&dup);
    let index = PatternIndex::build(&dup);
    assert_eq!(prep.pattern_index().n_patterns(), 3);
    let expected = [0.5, 0.5, 1.0, 1.0];
    for (i, &want) in expected.iter().enumerate() {
        assert_eq!(dbrl_credit_blocked(&prep, &dup, i), want, "record {i}");
        assert_eq!(dbrl_credit(&prep, &dup, i), want, "record {i} (pairs)");
    }
    assert_eq!(dbrl_credits_blocked(&prep, &dup, &index), expected.to_vec());
}

#[test]
fn incremental_path_matches_full_exactly() {
    // the 0->1 mutation changes o0's and o1's masked counts, so the
    // midranks of *untouched* records' values move too (o1: 1.5 -> 1.0).
    // The midrank-aware relink re-credits their holders, making the
    // incremental RSRL the exact 62.5 of `rsrl_candidate_sets_by_hand` —
    // under the old touched-rows-only approximation records 1..3 kept
    // their identity-run credits and the patched state read 75.
    let ev = evaluator();
    let orig = original();
    let state0 = ev.assess(&orig);
    let m = masked();
    let state1 = ev.reassess_mutation(&state0, &m, 0, 0, 0);
    let full = ev.assess(&m);
    assert_eq!(
        state1.assessment, full.assessment,
        "patched state must equal the full recompute bit for bit"
    );
    assert!((state1.assessment.dr_parts.dbrl - 75.0).abs() < TOL);
    assert!(
        (state1.assessment.dr_parts.rsrl - 62.5).abs() < TOL,
        "incremental rsrl = {}",
        state1.assessment.dr_parts.rsrl
    );
}
