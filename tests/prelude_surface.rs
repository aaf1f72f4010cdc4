//! API-surface smoke test: every name the prelude promises must resolve,
//! and the pipeline types must be constructible — guarding the facade's
//! re-exports against accidental breakage (a rename or dropped `pub use`
//! fails this file at compile time).

// Each prelude name imported explicitly: a missing re-export is a compile
// error pointing at the exact line.
#[allow(unused_imports)]
use cdp::prelude::{
    build_population, AttrKind, Attribute, BestProtection, Code, DataSource, Dataset, DatasetKind,
    DrBreakdown, EvalCounts, EvoConfig, Evolution, EvolutionOutcome, Front, GeneratorConfig,
    Hierarchy, IlBreakdown, Individual, JobEvent, JobOutcome, JobReport, MetricConfig,
    OptimizerMode, PipelineError, Population, PopulationSpec, ProtectionJob, ProtectionMethod,
    Recoder, Schema, ScoreAggregator, Session, SessionStats, SharedSession, SubTable, SuiteConfig,
    SuiteKind, Table,
};
use cdp::prelude::{Assessment, CostKind, Evaluator, LatticeSearch, PrivacyReport};

/// The facade's five crate aliases stay addressable.
#[test]
fn crate_aliases_resolve() {
    let _: fn(&cdp::dataset::SubTable) -> f64 = cdp::dataset::stats::uniqueness;
    let _: cdp::metrics::ScoreAggregator = cdp::metrics::ScoreAggregator::Max;
    let _: cdp::core::OperatorKind = cdp::core::OperatorKind::Mutation;
    let _: cdp::sdc::PramMode = cdp::sdc::PramMode::Invariant;
    let _: cdp::privacy::CostKind = cdp::privacy::CostKind::Discernibility;
    let _: fn() -> cdp::pipeline::ProtectionJobBuilder = cdp::pipeline::ProtectionJob::builder;
}

/// Every pipeline type on the prelude is usable, not just importable.
#[test]
fn pipeline_types_are_usable_from_the_prelude() {
    let job: ProtectionJob = ProtectionJob::builder()
        .dataset(DatasetKind::Adult)
        .records(40)
        .suite_kind(SuiteKind::Small)
        .aggregator(ScoreAggregator::Max)
        .iterations(2)
        .seed(1)
        .build()
        .expect("valid job");
    let _: &DataSource = job.source();
    let _: &PopulationSpec = job.population();

    let session: Session = Session::new();
    let mut events: Vec<JobEvent> = Vec::new();
    let report: JobReport = session
        .run_with(&job, |e| events.push(e.clone()))
        .expect("job runs");
    let best: &BestProtection = &report.best;
    let assessment: &Assessment = &best.assessment;
    assert!(assessment.il() >= 0.0);
    assert!(!events.is_empty());

    // the mode-aware surface: OptimizerMode on the job, JobOutcome/Front
    // on the report
    let mode: OptimizerMode = job.optimizer();
    assert!(matches!(mode, OptimizerMode::Scalar(_)));
    let outcome: &JobOutcome = &report.outcome;
    assert!(outcome.scalar().is_some());
    let nsga_job = ProtectionJob::builder()
        .dataset(DatasetKind::Adult)
        .records(40)
        .nsga()
        .iterations(2)
        .seed(1)
        .build()
        .expect("valid nsga job");
    let nsga_report = session.run(&nsga_job).expect("nsga job runs");
    assert_eq!(
        session.stats().preparations,
        1,
        "modes share the evaluator cache"
    );
    let front: &Front = nsga_report.front().expect("front");
    assert!(!front.members.is_empty());

    // the concurrency-safe surface: `Session` is `SharedSession`, a clone
    // shares the same cache, SessionStats reports it
    let shared: SharedSession = session.clone();
    let stats: SessionStats = shared.stats();
    assert_eq!(stats.preparations, 1);
    assert_eq!(stats, session.stats());
    let rerun = shared.run(&job).expect("shared rerun");
    assert!(rerun.evaluator_reused, "clone sees the session cache");
    assert!(shared.stats().hit_rate().expect("requests seen") > 0.0);

    let err: PipelineError = ProtectionJob::builder().build().unwrap_err();
    assert!(err.to_string().contains("invalid job"));
}

/// The free-form (pre-pipeline) surface stays intact for existing code.
#[test]
fn legacy_entry_points_remain_public() {
    let ds: Dataset = DatasetKind::German.generate(&GeneratorConfig::seeded(2).with_records(40));
    let pop = build_population(&ds, &SuiteConfig::small(), 2).expect("sweep");
    let evaluator: Evaluator =
        Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).expect("evaluator");
    let cfg: EvoConfig = EvoConfig::builder().iterations(2).seed(2).build();
    let outcome: EvolutionOutcome = Evolution::new(evaluator, cfg)
        .with_named_population(pop)
        .expect("compatible")
        .run();
    assert_eq!(outcome.iterations_run, 2);
    let counts: EvalCounts = outcome.eval_counts;
    assert!(counts.full >= 1);

    // the delta-evaluation surface of cdp::metrics
    let _: fn(usize, usize, Code) -> cdp::metrics::Patch = cdp::metrics::Patch::cell;
    let _: fn(usize, usize, Vec<Code>) -> cdp::metrics::Patch = cdp::metrics::Patch::flat_range;

    // privacy surface
    let sub: SubTable = ds.protected_subtable();
    let recoder: Recoder =
        Recoder::new(&sub, ds.protected_hierarchies()).expect("nested hierarchies");
    let search: LatticeSearch = LatticeSearch::new(&sub, &recoder);
    let _: Result<_, _> = search.optimal(2, CostKind::Discernibility);
    let report: PrivacyReport =
        cdp::privacy::report::audit(&sub, Some(&sub), &[]).expect("audit runs");
    assert!(report.k_anonymity.k >= 1);
}
