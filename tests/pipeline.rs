//! Cross-crate integration: the full paper pipeline at reduced scale on
//! every dataset, plus the publish/export path.

use std::sync::Arc;

use cdp::core::OperatorKind;
use cdp::dataset::io::{read_table, write_table, SchemaSource};
use cdp::prelude::*;

fn mini_run(kind: DatasetKind, aggregator: ScoreAggregator, seed: u64) -> EvolutionOutcome {
    let ds = kind.generate(&GeneratorConfig::seeded(seed).with_records(80));
    let population = build_population(&ds, &SuiteConfig::small(), seed).unwrap();
    let evaluator = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
    let config = EvoConfig::builder()
        .iterations(30)
        .aggregator(aggregator)
        .seed(seed)
        .build();
    Evolution::new(evaluator, config)
        .with_named_population(population)
        .unwrap()
        .run()
}

#[test]
fn all_four_datasets_run_both_fitness_functions() {
    for kind in DatasetKind::all() {
        for agg in [ScoreAggregator::Mean, ScoreAggregator::Max] {
            let outcome = mini_run(kind, agg, 1);
            let s = outcome.summary();
            assert!(
                s.final_mean <= s.initial_mean + 1e-9,
                "{} / {} regressed",
                kind.name(),
                agg.name()
            );
            assert!(s.final_min > 0.0, "scores are meaningful");
            assert!(s.initial_max <= 100.0, "scores are bounded");
        }
    }
}

#[test]
fn final_individuals_remain_valid_protected_files() {
    let outcome = mini_run(DatasetKind::Housing, ScoreAggregator::Max, 2);
    for ind in outcome.population.members() {
        ind.data.validate().unwrap();
    }
}

#[test]
fn best_protection_exports_and_reimports() {
    let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(3).with_records(80));
    let population = build_population(&ds, &SuiteConfig::small(), 3).unwrap();
    let evaluator = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
    let config = EvoConfig::builder().iterations(20).seed(3).build();
    let outcome = Evolution::new(evaluator, config)
        .with_named_population(population)
        .unwrap()
        .run();

    let published = ds
        .table
        .with_subtable(&outcome.population.best().data)
        .unwrap();
    let mut buf = Vec::new();
    write_table(&published, &mut buf).unwrap();
    let back = read_table(
        SchemaSource::Fixed(Arc::clone(published.schema())),
        buf.as_slice(),
    )
    .unwrap();
    assert_eq!(back.n_rows(), published.n_rows());
    for j in 0..published.n_attrs() {
        assert_eq!(back.column(j), published.column(j));
    }
}

#[test]
fn evolution_improves_over_pure_initial_population() {
    // the point of the paper: post-masking optimization beats the best
    // off-the-shelf protection on at least some run
    let outcome = mini_run(DatasetKind::Flare, ScoreAggregator::Max, 4);
    let initial_best = outcome.initial_best().score;
    let final_best = outcome.final_best().score;
    assert!(final_best <= initial_best + 1e-9);
}

#[test]
fn unbalanced_protections_penalized_only_by_max() {
    // construct an extreme protection: identity (IL 0, DR high)
    let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(5).with_records(80));
    let original = ds.protected_subtable();
    let evaluator = Evaluator::new(&original, MetricConfig::default()).unwrap();
    let a = evaluator.evaluate(&original);
    let eq1 = a.score(ScoreAggregator::Mean);
    let eq2 = a.score(ScoreAggregator::Max);
    assert!(eq2 > eq1, "max must punish the unbalanced identity masking");
    assert!((eq2 - a.dr()).abs() < 1e-12);
}

#[test]
fn protection_job_reproduces_the_hand_wired_run_exactly() {
    // the pipeline is a re-packaging, not a re-implementation: same seeds
    // -> same RNG streams -> bit-identical outcome.
    let hand = {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(6).with_records(80));
        let population = build_population(&ds, &SuiteConfig::small(), 6).unwrap();
        let evaluator = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        let config = EvoConfig::builder()
            .iterations(30)
            .aggregator(ScoreAggregator::Max)
            .seed(6)
            .build();
        Evolution::new(evaluator, config)
            .with_named_population(population)
            .unwrap()
            .run()
    };
    let job = ProtectionJob::builder()
        .dataset(DatasetKind::German)
        .records(80)
        .suite_small()
        .aggregator(ScoreAggregator::Max)
        .iterations(30)
        .seed(6)
        .build()
        .unwrap();
    let report = job.run().unwrap();
    let outcome = report.outcome.into_scalar().expect("evolved");
    assert_eq!(outcome.summary(), hand.summary());
    assert_eq!(outcome.iterations_run, hand.iterations_run);
    assert_eq!(
        outcome.population.best().data,
        hand.population.best().data,
        "winning protected file must be identical"
    );
    assert_eq!(report.best.name, hand.population.best().name);
}

#[test]
fn nsga_job_reproduces_the_hand_wired_run_exactly() {
    // the nsga job mode is a re-packaging of `Nsga2`, not a
    // re-implementation: same seeds -> same RNG streams -> bit-identical
    // fronts, trajectory and evaluation counts
    use cdp::core::nsga::{Nsga2, NsgaConfig};
    let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(6).with_records(80));
    let population = build_population(&ds, &SuiteConfig::small(), 6).unwrap();
    let evaluator = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
    let hand = Nsga2::new(
        evaluator,
        NsgaConfig {
            generations: 12,
            seed: 6,
            ..NsgaConfig::default()
        },
    )
    .with_named_population(population)
    .unwrap()
    .run();

    let job = ProtectionJob::builder()
        .dataset(DatasetKind::German)
        .records(80)
        .suite_small()
        .nsga()
        .iterations(12)
        .seed(6)
        .build()
        .unwrap();
    let report = job.run().unwrap();
    let front = report.front().expect("nsga job");

    assert_eq!(front.hypervolume, hand.hypervolume_series);
    assert_eq!(front.evaluations, hand.evaluations);
    for (ours, theirs) in [
        (&front.points, &hand.front),
        (&front.initial, &hand.initial_front),
        (&front.archive, &hand.archive_front),
    ] {
        assert_eq!(ours.len(), theirs.len());
        for (a, b) in ours.iter().zip(theirs.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.il, b.il);
            assert_eq!(a.dr, b.dr);
        }
    }
    // front members carry the exact protected files the hand-wired run ends
    // with, and the published winner is the knee point among them
    assert_eq!(front.members.len(), hand.front_members.len());
    for (a, b) in front.members.iter().zip(hand.front_members.iter()) {
        assert_eq!(a.data, b.data, "front member files must be identical");
    }
    assert_eq!(report.best.data, front.knee().data);
    let published = report.published_best().unwrap();
    for (k, &j) in report.protected.iter().enumerate() {
        assert_eq!(published.column(j), report.best.data.column(k));
    }
}

#[test]
fn session_shares_one_preparation_across_optimizer_modes() {
    // acceptance: a scalar job followed by an nsga job against the same
    // original must reuse the cached evaluator preparation
    let scalar = ProtectionJob::builder()
        .dataset(DatasetKind::Adult)
        .records(80)
        .iterations(10)
        .seed(3)
        .build()
        .unwrap();
    let nsga = ProtectionJob::builder()
        .dataset(DatasetKind::Adult)
        .records(80)
        .nsga()
        .iterations(5)
        .seed(3)
        .build()
        .unwrap();
    let session = Session::new();
    let a = session.run(&scalar).unwrap();
    let b = session.run(&nsga).unwrap();
    assert!(!a.evaluator_reused);
    assert!(
        b.evaluator_reused,
        "nsga job must hit the scalar job's cache"
    );
    assert_eq!(
        session.stats().preparations,
        1,
        "one original, one preparation"
    );

    // and the cached preparation changes nothing: a fresh session produces
    // the identical front
    let fresh = Session::new().run(&nsga).unwrap();
    assert_eq!(
        fresh.front().unwrap().hypervolume,
        b.front().unwrap().hypervolume
    );
    assert_eq!(fresh.best.data, b.best.data);
}

#[test]
fn session_skips_evaluator_re_preparation_across_jobs() {
    // acceptance: a second job against the same original must not prepare
    // the evaluator again, observable via the event hook and the counter
    let job = |iters: usize| {
        ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .records(80)
            .suite_small()
            .iterations(iters)
            .seed(3)
            .build()
            .unwrap()
    };
    let session = Session::new();
    let mut reused_flags = Vec::new();
    let observe = |flags: &mut Vec<bool>, e: &JobEvent| {
        if let JobEvent::EvaluatorReady { reused } = e {
            flags.push(*reused);
        }
    };
    let first = session
        .run_with(&job(10), |e| observe(&mut reused_flags, e))
        .unwrap();
    let second = session
        .run_with(&job(20), |e| observe(&mut reused_flags, e))
        .unwrap();
    assert_eq!(reused_flags, [false, true]);
    assert!(!first.evaluator_reused);
    assert!(second.evaluator_reused);
    assert_eq!(
        session.stats().preparations,
        1,
        "one original, one preparation"
    );

    // and the cached preparation changes nothing about the results: a
    // fresh session produces the identical outcome
    let fresh = Session::new().run(&job(20)).unwrap();
    assert_eq!(fresh.summary().unwrap(), second.summary().unwrap());
}

#[test]
fn job_report_publishes_and_audits_the_winner() {
    let report = ProtectionJob::builder()
        .dataset(DatasetKind::Housing)
        .records(80)
        .suite_small()
        .iterations(15)
        .seed(8)
        .audit()
        .build()
        .unwrap()
        .run()
        .unwrap();
    // published table: full schema, winner's columns substituted
    let published = report.published_best().unwrap();
    assert_eq!(published.n_rows(), 80);
    assert_eq!(published.n_attrs(), report.table.n_attrs());
    for (k, &j) in report.protected.iter().enumerate() {
        assert_eq!(published.column(j), report.best.data.column(k));
    }
    // audit: k-anonymity + prosecutor always, journalist vs the original
    let privacy = report.privacy.expect("audit enabled");
    assert!(privacy.k_anonymity.k >= 1);
    assert!(privacy.journalist.is_some());
    assert!(privacy.sensitive.is_empty(), "no sensitive attrs named");
}

#[test]
fn facade_prelude_covers_the_whole_pipeline() {
    // compile-time check that the prelude exposes every type the
    // quickstart needs, and a behavioural smoke test on top
    let ds: Dataset = DatasetKind::Adult.generate(&GeneratorConfig::seeded(6).with_records(60));
    let pop: Vec<cdp::sdc::NamedProtection> =
        build_population(&ds, &SuiteConfig::small(), 6).unwrap();
    let ev: Evaluator = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
    let cfg: EvoConfig = EvoConfig::builder().iterations(5).build();
    let out: EvolutionOutcome = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .unwrap()
        .run();
    let _: &Population = &out.population;
    let _: &Individual = out.population.best();
    assert_eq!(out.iterations_run, 5);
}

#[test]
fn scalar_job_reports_an_exact_eval_split_and_an_exact_winner() {
    // the evaluation split flows through the whole pipeline:
    // EvolutionFinished carries it and the report mirrors it. Only the
    // initial population pays a full assessment; every offspring (one per
    // mutation, two per crossover) is a patch of its parent's state. The
    // published winner's assessment equals a fresh full assessment of its
    // file, bit for bit.
    let job = ProtectionJob::builder()
        .dataset(DatasetKind::Adult)
        .records(80)
        .suite_small()
        .iterations(40)
        .seed(6)
        .build()
        .unwrap();
    let mut counts = None;
    let mut population = None;
    let report = Session::new()
        .run_with(&job, |e| match e {
            JobEvent::PopulationReady { size } => population = Some(*size),
            JobEvent::EvolutionFinished { evaluations, .. } => counts = Some(*evaluations),
            _ => {}
        })
        .unwrap();
    let counts = counts.expect("evolution ran");
    let outcome = report.scalar_outcome().unwrap();
    assert_eq!(
        outcome.eval_counts, counts,
        "the report mirrors the event stream"
    );
    let ops: Vec<OperatorKind> = outcome
        .trace
        .generations
        .iter()
        .filter_map(|g| g.operator)
        .collect();
    let mutations = ops.iter().filter(|&&o| o == OperatorKind::Mutation).count();
    assert_eq!(counts.full, population.expect("population masked"));
    assert_eq!(counts.incremental, mutations + 2 * (ops.len() - mutations));

    let fresh = Evaluator::new(&report.original(), MetricConfig::default())
        .unwrap()
        .assess(&report.best.data)
        .assessment;
    assert_eq!(report.best.assessment, fresh);
    assert_eq!(report.best.assessment.il().to_bits(), fresh.il().to_bits());
    assert_eq!(report.best.assessment.dr().to_bits(), fresh.dr().to_bits());
}

#[test]
fn nsga_job_reports_an_exact_eval_split_and_an_exact_winner() {
    // the NSGA-II mirror: λ = population size offspring per generation,
    // all patched; the knee-point winner's assessment equals a fresh full
    // assessment of its file, bit for bit
    let generations = 10;
    let job = ProtectionJob::builder()
        .dataset(DatasetKind::German)
        .records(80)
        .suite_small()
        .nsga()
        .iterations(generations)
        .seed(11)
        .build()
        .unwrap();
    let mut population = None;
    let report = Session::new()
        .run_with(&job, |e| {
            if let JobEvent::PopulationReady { size } = e {
                population = Some(*size);
            }
        })
        .unwrap();
    let front = report.front().unwrap();
    let n = population.expect("population masked");
    assert_eq!(
        front.eval_counts.full, n,
        "only the initial population is fully assessed"
    );
    assert_eq!(front.eval_counts.incremental, generations * n);
    assert_eq!(front.eval_counts.total(), front.evaluations);

    let fresh = Evaluator::new(&report.original(), MetricConfig::default())
        .unwrap()
        .assess(&report.best.data)
        .assessment;
    assert_eq!(report.best.assessment, fresh);
    assert_eq!(report.best.assessment.il().to_bits(), fresh.il().to_bits());
    assert_eq!(report.best.assessment.dr().to_bits(), fresh.dr().to_bits());
}

#[test]
fn island_nsga_job_keeps_the_eval_split_and_every_front_member_exact() {
    // two islands with migration: each island patches its own offspring
    // (λ = its subpopulation size), so the merged split equals the
    // single-island one, and every member of the merged front — migrants
    // included — carries the exact full assessment of its file
    let generations = 8;
    let job = ProtectionJob::builder()
        .dataset(DatasetKind::German)
        .records(80)
        .suite_small()
        .nsga()
        .iterations(generations)
        .islands(2)
        .migration_interval(3)
        .seed(13)
        .build()
        .unwrap();
    let mut population = None;
    let report = Session::new()
        .run_with(&job, |e| {
            if let JobEvent::PopulationReady { size } = e {
                population = Some(*size);
            }
        })
        .unwrap();
    let front = report.front().unwrap();
    let n = population.expect("population masked");
    assert_eq!(front.eval_counts.full, n);
    assert_eq!(front.eval_counts.incremental, generations * n);
    assert_eq!(front.eval_counts.total(), front.evaluations);

    let evaluator = Evaluator::new(&report.original(), MetricConfig::default()).unwrap();
    assert!(!front.members.is_empty());
    for (k, member) in front.members.iter().enumerate() {
        let fresh = evaluator.assess(&member.data).assessment;
        assert_eq!(member.assessment, fresh, "front member {k}");
        assert_eq!(member.assessment.il().to_bits(), fresh.il().to_bits());
        assert_eq!(member.assessment.dr().to_bits(), fresh.dr().to_bits());
    }
}
