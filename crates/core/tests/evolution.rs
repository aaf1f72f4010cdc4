//! End-to-end tests of Algorithm 1 on small instances of the paper's
//! datasets.

use cdp_core::{EvoConfig, Evolution, OperatorKind};
use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_metrics::{Evaluator, MetricConfig, ScoreAggregator};
use cdp_sdc::{build_population, NamedProtection, SuiteConfig};

fn setup(kind: DatasetKind, n: usize, seed: u64) -> (Evaluator, Vec<NamedProtection>) {
    let ds = kind.generate(&GeneratorConfig::seeded(seed).with_records(n));
    let pop = build_population(&ds, &SuiteConfig::small(), seed).unwrap();
    let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
    (ev, pop)
}

#[test]
fn scores_never_worsen() {
    // elitism + crowding guarantee monotone min and per-slot scores
    let (ev, pop) = setup(DatasetKind::Adult, 90, 1);
    let cfg = EvoConfig::builder().iterations(60).seed(1).build();
    let outcome = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .unwrap()
        .run();
    let s = outcome.summary();
    assert!(s.final_min <= s.initial_min + 1e-9);
    assert!(s.final_mean <= s.initial_mean + 1e-9);
    assert!(s.final_max <= s.initial_max + 1e-9);
    // min score series is non-increasing iteration by iteration
    let mins: Vec<f64> = outcome.trace.generations.iter().map(|g| g.min).collect();
    for w in mins.windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "min score increased: {w:?}");
    }
}

#[test]
fn population_size_is_invariant() {
    let (ev, pop) = setup(DatasetKind::German, 80, 2);
    let n0 = pop.len();
    let cfg = EvoConfig::builder().iterations(40).seed(2).build();
    let outcome = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .unwrap()
        .run();
    assert_eq!(outcome.population.len(), n0);
    assert_eq!(outcome.initial.len(), n0);
    assert_eq!(outcome.final_points.len(), n0);
}

#[test]
fn runs_are_seed_deterministic() {
    let run = || {
        let (ev, pop) = setup(DatasetKind::Flare, 70, 3);
        let cfg = EvoConfig::builder().iterations(50).seed(33).build();
        Evolution::new(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.iterations_run, b.iterations_run);
    assert_eq!(a.population.scores(), b.population.scores());
    for (x, y) in a.trace.generations.iter().zip(b.trace.generations.iter()) {
        assert_eq!(x.min, y.min);
        assert_eq!(x.mean, y.mean);
        assert_eq!(x.max, y.max);
        assert_eq!(x.operator, y.operator);
    }
}

#[test]
fn different_seeds_explore_differently() {
    let run = |seed| {
        let (ev, pop) = setup(DatasetKind::Adult, 70, 4);
        let cfg = EvoConfig::builder().iterations(60).seed(seed).build();
        Evolution::new(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run()
    };
    let a = run(1);
    let b = run(2);
    let ops_a: Vec<_> = a.trace.generations.iter().map(|g| g.operator).collect();
    let ops_b: Vec<_> = b.trace.generations.iter().map(|g| g.operator).collect();
    assert_ne!(
        ops_a, ops_b,
        "seeds should draw different operator schedules"
    );
}

#[test]
fn both_operators_fire_with_default_rate() {
    let (ev, pop) = setup(DatasetKind::Adult, 60, 5);
    let cfg = EvoConfig::builder().iterations(80).seed(5).build();
    let outcome = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .unwrap()
        .run();
    let ops: Vec<OperatorKind> = outcome
        .trace
        .generations
        .iter()
        .filter_map(|g| g.operator)
        .collect();
    assert!(ops.contains(&OperatorKind::Mutation));
    assert!(ops.contains(&OperatorKind::Crossover));
}

#[test]
fn mutation_only_run_works() {
    let (ev, pop) = setup(DatasetKind::German, 60, 6);
    let cfg = EvoConfig::builder()
        .iterations(40)
        .mutation_rate(1.0)
        .seed(6)
        .build();
    let outcome = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .unwrap()
        .run();
    assert!(outcome
        .trace
        .generations
        .iter()
        .filter_map(|g| g.operator)
        .all(|o| o == OperatorKind::Mutation));
}

#[test]
fn crossover_only_run_works() {
    let (ev, pop) = setup(DatasetKind::German, 60, 7);
    let cfg = EvoConfig::builder()
        .iterations(40)
        .mutation_rate(0.0)
        .seed(7)
        .build();
    let outcome = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .unwrap()
        .run();
    assert!(outcome
        .trace
        .generations
        .iter()
        .filter_map(|g| g.operator)
        .all(|o| o == OperatorKind::Crossover));
}

#[test]
fn empty_population_is_an_error() {
    let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(9).with_records(50));
    let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
    let cfg = EvoConfig::builder().iterations(5).build();
    let empty: Vec<(String, cdp_dataset::SubTable)> = vec![];
    assert!(Evolution::new(ev, cfg)
        .with_named_population(empty)
        .is_err());
}

#[test]
fn incompatible_individual_is_an_error() {
    let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(10).with_records(50));
    let other = DatasetKind::Adult.generate(&GeneratorConfig::seeded(10).with_records(30));
    let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
    let cfg = EvoConfig::builder().iterations(5).build();
    let bad = vec![("wrong".to_string(), other.protected_subtable())];
    let err = Evolution::new(ev, cfg).with_named_population(bad);
    assert!(matches!(
        err,
        Err(cdp_core::EvoError::IncompatibleIndividual { .. })
    ));
}

#[test]
fn robustness_truncation_still_optimizes() {
    // the paper's §3.3: drop the best 10%, evolution recovers
    let (ev, pop) = setup(DatasetKind::Flare, 80, 11);
    let n0 = pop.len();
    let cfg = EvoConfig::builder()
        .iterations(60)
        .aggregator(ScoreAggregator::Max)
        .seed(11)
        .build();
    let outcome = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .unwrap()
        .drop_best_fraction(0.10)
        .unwrap()
        .run();
    assert!(outcome.population.len() < n0);
    let s = outcome.summary();
    assert!(s.final_min <= s.initial_min + 1e-9);
}

/// Run Algorithm 1 and check the two exactness contracts of the patched
/// offspring path: only the initial population pays a full assessment
/// (every offspring is a patch of its parent's state), and the published
/// winner's cached assessment equals a fresh full assessment of its file,
/// bit for bit.
fn assert_patched_run_is_exact(mutation_rate: f64, seed: u64) {
    let (ev, pop) = setup(DatasetKind::Adult, 70, seed);
    let n = pop.len();
    let cfg = EvoConfig::builder()
        .iterations(60)
        .mutation_rate(mutation_rate)
        .seed(seed)
        .build();
    let outcome = Evolution::new(ev.clone(), cfg)
        .with_named_population(pop)
        .unwrap()
        .run();
    let ops: Vec<OperatorKind> = outcome
        .trace
        .generations
        .iter()
        .filter_map(|g| g.operator)
        .collect();
    let mutations = ops.iter().filter(|&&o| o == OperatorKind::Mutation).count();
    let crossovers = ops.len() - mutations;
    assert_eq!(outcome.eval_counts.full, n);
    assert_eq!(outcome.eval_counts.incremental, mutations + 2 * crossovers);

    let best = outcome.population.best();
    let fresh = ev.assess(&best.data).assessment;
    assert_eq!(*best.assessment(), fresh);
    let point = outcome.final_best();
    assert_eq!(point.il.to_bits(), fresh.il().to_bits());
    assert_eq!(point.dr.to_bits(), fresh.dr().to_bits());
    assert_eq!(point.score.to_bits(), fresh.score(cfg.aggregator).to_bits());
}

#[test]
fn patched_mutation_run_publishes_an_exact_winner() {
    assert_patched_run_is_exact(1.0, 12);
}

#[test]
fn patched_run_publishes_an_exact_winner_and_an_exact_eval_split() {
    assert_patched_run_is_exact(0.5, 17);
}

#[test]
fn pareto_front_is_consistent() {
    let (ev, pop) = setup(DatasetKind::Housing, 80, 20);
    let cfg = EvoConfig::builder().iterations(60).seed(20).build();
    let outcome = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .unwrap()
        .run();
    let front = &outcome.pareto_front;
    assert!(!front.is_empty());
    // pairwise non-domination
    for a in front {
        for b in front {
            let dominates = a.il <= b.il && a.dr <= b.dr && (a.il < b.il || a.dr < b.dr);
            assert!(!dominates, "front holds a dominated point");
        }
    }
    // the scalar best final individual must not dominate the whole front
    let best = outcome.final_best();
    assert!(
        front
            .iter()
            .any(|p| p.il <= best.il + 1e-9 || p.dr <= best.dr + 1e-9),
        "front should cover the scalar winner's neighbourhood"
    );
}

#[test]
fn observer_sees_every_generation() {
    let (ev, pop) = setup(DatasetKind::Adult, 50, 15);
    let cfg = EvoConfig::builder().iterations(25).seed(15).build();
    let mut seen = 0usize;
    let _ = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .unwrap()
        .run_with(|g| {
            assert!(g.iteration >= 1);
            seen += 1;
        });
    assert_eq!(seen, 25);
}

#[test]
fn max_aggregator_balances_il_dr() {
    // the paper's central claim (§3.2): Eq.2 yields more balanced final
    // (IL, DR) pairs than Eq.1
    let run = |agg| {
        let (ev, pop) = setup(DatasetKind::Flare, 90, 16);
        let cfg = EvoConfig::builder()
            .iterations(150)
            .aggregator(agg)
            .seed(16)
            .build();
        Evolution::new(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run()
    };
    let mean_run = run(ScoreAggregator::Mean);
    let max_run = run(ScoreAggregator::Max);
    let imbalance = |points: &[cdp_core::ScatterPoint]| {
        points.iter().map(|p| (p.il - p.dr).abs()).sum::<f64>() / points.len() as f64
    };
    let mean_imb = imbalance(&mean_run.final_points);
    let max_imb = imbalance(&max_run.final_points);
    assert!(
        max_imb <= mean_imb + 5.0,
        "Max should not be much less balanced: {max_imb} vs {mean_imb}"
    );
}
