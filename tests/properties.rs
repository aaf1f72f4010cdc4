//! Property-based tests of the cross-crate invariants.
//!
//! Random instances are generated from `(shape, seed)` tuples via seeded
//! RNGs, so proptest shrinks over compact parameters while the instances
//! stay arbitrary.

use std::sync::Arc;

use cdp::core::operators::{crossover, mutate};
use cdp::dataset::{AttrKind, Attribute, Code, Hierarchy, Schema, SubTable};
use cdp::metrics::{Evaluator, MetricConfig, Patch, PatchCell, ScoreAggregator};
use cdp::sdc::{MethodContext, Pram, PramMode, ProtectionMethod, RankSwapping};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random sub-table: `a` attributes (mixed kinds), `n` rows.
fn random_subtable(a: usize, n: usize, seed: u64) -> SubTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let attrs: Vec<Attribute> = (0..a)
        .map(|i| {
            let cats = rng.gen_range(2..=8);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mutation_changes_exactly_one_cell_and_stays_valid(
        a in 2usize..=4, n in 8usize..=30, seed in any::<u64>()
    ) {
        let original = random_subtable(a, n, seed);
        let mut child = original.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        if let Some(mu) = mutate(&mut child, &mut rng) {
            prop_assert_eq!(original.hamming(&child), 1);
            prop_assert!(child.validate().is_ok());
            prop_assert_ne!(mu.old, mu.new);
        }
    }

    #[test]
    fn crossover_preserves_positionwise_multisets(
        a in 2usize..=4, n in 8usize..=30, seed in any::<u64>()
    ) {
        let x = random_subtable(a, n, seed);
        let y = random_masking(&x, seed ^ 2);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let (z1, z2, (s, r)) = crossover(&x, &y, &mut rng);
        prop_assert!(s <= r && r < x.flat_len());
        for p in 0..x.flat_len() {
            let mut before = [x.get_flat(p), y.get_flat(p)];
            let mut after = [z1.get_flat(p), z2.get_flat(p)];
            before.sort_unstable();
            after.sort_unstable();
            prop_assert_eq!(before, after);
        }
        prop_assert!(z1.validate().is_ok());
        prop_assert!(z2.validate().is_ok());
    }

    #[test]
    fn all_measures_bounded_for_arbitrary_maskings(
        a in 2usize..=3, n in 10usize..=30, seed in any::<u64>()
    ) {
        let original = random_subtable(a, n, seed);
        let masked = random_masking(&original, seed ^ 4);
        let ev = Evaluator::new(&original, MetricConfig::default()).unwrap();
        let assessment = ev.evaluate(&masked);
        for v in [
            assessment.il_parts.ctbil,
            assessment.il_parts.dbil,
            assessment.il_parts.ebil,
            assessment.dr_parts.id,
            assessment.dr_parts.dbrl,
            assessment.dr_parts.prl,
            assessment.dr_parts.rsrl,
        ] {
            prop_assert!((0.0..=100.0).contains(&v), "measure out of range: {}", v);
        }
    }

    #[test]
    fn identity_masking_has_zero_il_and_full_interval_disclosure(
        a in 2usize..=3, n in 10usize..=30, seed in any::<u64>()
    ) {
        let original = random_subtable(a, n, seed);
        let ev = Evaluator::new(&original, MetricConfig::default()).unwrap();
        let assessment = ev.evaluate(&original);
        prop_assert!(assessment.il() < 1e-9);
        prop_assert!((assessment.dr_parts.id - 100.0).abs() < 1e-9);
    }

    #[test]
    fn aggregators_are_monotone_and_bounded(
        il in 0.0f64..100.0, dr in 0.0f64..100.0, d in 0.0f64..10.0
    ) {
        for agg in [
            ScoreAggregator::Mean,
            ScoreAggregator::Max,
        ] {
            let base = agg.score(il, dr);
            prop_assert!((0.0..=100.0 + 1e-9).contains(&base));
            prop_assert!(agg.score((il + d).min(100.0), dr) + 1e-9 >= base);
            prop_assert!(agg.score(il, (dr + d).min(100.0)) + 1e-9 >= base);
        }
    }

    #[test]
    fn pram_invariant_matrix_preserves_any_marginal(
        seed in any::<u64>(), cats in 2usize..=10, theta in 0.05f64..1.0
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut probs: Vec<f64> = (0..cats).map(|_| rng.gen_range(0.01..1.0)).collect();
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        let t = Pram::new(theta, PramMode::Invariant).transition_matrix(&probs);
        for b in 0..cats {
            let out: f64 = (0..cats).map(|a| probs[a] * t[a][b]).sum();
            prop_assert!((out - probs[b]).abs() < 1e-9);
        }
    }

    #[test]
    fn rank_swapping_preserves_marginals_on_random_tables(
        a in 2usize..=4, n in 10usize..=40, seed in any::<u64>(), p in 1usize..=30
    ) {
        let original = random_subtable(a, n, seed);
        let hs: Vec<&Hierarchy> = vec![];
        let ctx = MethodContext { hierarchies: &hs };
        let mut rng = StdRng::seed_from_u64(seed ^ 5);
        let masked = RankSwapping::new(p).protect(&original, &ctx, &mut rng).unwrap();
        for k in 0..original.n_attrs() {
            let count = |col: &[Code]| {
                let mut c = vec![0usize; original.attr(k).n_categories()];
                for &v in col {
                    c[v as usize] += 1;
                }
                c
            };
            prop_assert_eq!(count(original.column(k)), count(masked.column(k)));
        }
    }

    #[test]
    fn incremental_chain_matches_full_exactly(
        a in 2usize..=3, n in 10usize..=25, seed in any::<u64>()
    ) {
        // a chain of 8 single-cell reassessments equals the full recompute
        // bit for bit — every measure, PRL and RSRL included
        let original = random_subtable(a, n, seed);
        let ev = Evaluator::new(&original, MetricConfig::default()).unwrap();
        let mut masked = original.clone();
        let mut state = ev.assess(&masked);
        let mut rng = StdRng::seed_from_u64(seed ^ 6);
        for _ in 0..8 {
            let row = rng.gen_range(0..n);
            let k = rng.gen_range(0..a);
            let c = masked.attr(k).n_categories() as Code;
            let old = masked.get(row, k);
            masked.set(row, k, rng.gen_range(0..c));
            state = ev.reassess_mutation(&state, &masked, row, k, old);
        }
        let full = ev.assess(&masked);
        prop_assert_eq!(state.assessment, full.assessment);
    }

    #[test]
    fn patch_reassess_matches_full_exactly(
        a in 2usize..=3, n in 10usize..=25, cells in 1usize..=12, seed in any::<u64>()
    ) {
        // one multi-cell patch == the full recompute, bit for bit: the
        // exact-by-construction measures (CTBIL/DBIL/EBIL/ID, DBRL) and
        // the census-refit PRL / midrank-aware RSRL alike
        let original = random_subtable(a, n, seed);
        let ev = Evaluator::new(&original, MetricConfig::default()).unwrap();
        let mut masked = random_masking(&original, seed ^ 7);
        let state = ev.assess(&masked);
        let mut rng = StdRng::seed_from_u64(seed ^ 8);
        let mut patch_cells: Vec<PatchCell> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..cells {
            let row = rng.gen_range(0..n);
            let k = rng.gen_range(0..a);
            if !seen.insert((row, k)) {
                continue;
            }
            let c = masked.attr(k).n_categories() as Code;
            let old = masked.get(row, k);
            masked.set(row, k, rng.gen_range(0..c));
            patch_cells.push(PatchCell { row, attr: k, old });
        }
        let patched = ev.reassess(&state, &masked, &Patch::from_cells(patch_cells));
        let full = ev.assess(&masked);
        let (p, f) = (patched.assessment, full.assessment);
        prop_assert_eq!(p.dr_parts.prl, f.dr_parts.prl);
        prop_assert_eq!(p.dr_parts.rsrl, f.dr_parts.rsrl);
        prop_assert_eq!(p, f);
    }

    #[test]
    fn crossover_offspring_patch_matches_full_exactly(
        a in 2usize..=3, n in 10usize..=25, seed in any::<u64>()
    ) {
        // evaluate a real crossover offspring via its flat-range patch and
        // compare against the full recompute (the path every crossover
        // child of an evolution takes): bit-identical across all seven
        // measures
        let x = random_subtable(a, n, seed);
        let y = random_masking(&x, seed ^ 9);
        let ev = Evaluator::new(&x, MetricConfig::default()).unwrap();
        let x_state = ev.assess(&x);
        let mut rng = StdRng::seed_from_u64(seed ^ 10);
        let (z1, _, (s, r)) = crossover(&x, &y, &mut rng);
        let old_values: Vec<Code> = (s..=r).map(|p| x.get_flat(p)).collect();
        let patched = ev.reassess(&x_state, &z1, &Patch::flat_range(s, r, old_values));
        let full = ev.assess(&z1);
        let (p, f) = (patched.assessment, full.assessment);
        prop_assert_eq!(p.dr_parts.prl, f.dr_parts.prl);
        prop_assert_eq!(p.dr_parts.rsrl, f.dr_parts.rsrl);
        prop_assert_eq!(p, f);
    }

    #[test]
    fn hierarchies_map_into_valid_codes_at_every_level(
        cats in 1usize..=25
    ) {
        let attr = Attribute::ordinal("X", cats);
        let h = Hierarchy::ordinal_auto(&attr);
        for l in 0..h.n_levels() {
            for code in 0..cats as Code {
                let mapped = h.level(l).map(code);
                prop_assert!((mapped as usize) < cats);
            }
        }
        // deepest level collapses everything
        let deepest = h.level(h.n_levels() - 1);
        let first = deepest.map(0);
        for code in 0..cats as Code {
            prop_assert_eq!(deepest.map(code), first);
        }
    }

    #[test]
    fn subtable_flat_round_trip(
        a in 2usize..=4, n in 8usize..=30, seed in any::<u64>()
    ) {
        let sub = random_subtable(a, n, seed);
        for p in 0..sub.flat_len() {
            let (row, k) = sub.coords_of_flat(p);
            prop_assert!(row < n && k < a);
            prop_assert_eq!(sub.get_flat(p), sub.get(row, k));
            prop_assert_eq!(row * a + k, p);
        }
    }

    #[test]
    fn nominal_kind_never_uses_code_distance(
        n in 10usize..=30, seed in any::<u64>()
    ) {
        // for nominal attributes, any two distinct codes are equidistant
        let mut rng = StdRng::seed_from_u64(seed);
        let cats = rng.gen_range(3..=8);
        let attr = Attribute::nominal("N", cats);
        let schema = Arc::new(Schema::new(vec![attr, Attribute::ordinal("O", 4)]).unwrap());
        let columns = vec![
            (0..n).map(|_| rng.gen_range(0..cats as Code)).collect(),
            (0..n).map(|_| rng.gen_range(0..4)).collect(),
        ];
        let sub = SubTable::new(schema, vec![0, 1], columns).unwrap();
        let ev = Evaluator::new(&sub, MetricConfig::default()).unwrap();
        let prep = ev.prepared();
        for x in 0..cats as Code {
            for y in 0..cats as Code {
                let d = prep.cell_distance(0, x, y);
                if x == y {
                    prop_assert_eq!(d, 0.0);
                } else {
                    prop_assert_eq!(d, 1.0);
                }
            }
        }
    }

    #[test]
    fn attr_kind_is_exposed_consistently(kind_ord in any::<bool>(), cats in 2usize..=6) {
        let attr = if kind_ord {
            Attribute::ordinal("K", cats)
        } else {
            Attribute::nominal("K", cats)
        };
        prop_assert_eq!(attr.kind() == AttrKind::Ordinal, kind_ord);
        prop_assert_eq!(attr.n_categories(), cats);
    }
}
