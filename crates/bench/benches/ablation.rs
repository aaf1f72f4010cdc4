//! Ablations of the design choices DESIGN.md §8 calls out.
//!
//! Each variant runs a short evolution on a reduced Adult instance; wall
//! time per run is the headline number, and the printed final-mean scores
//! (via `--nocapture`-style stderr) let quality be compared offline from
//! the emitted CSVs of the main harness.
//!
//! 1. Selection weighting: inverse / complement / rank / literal Eq. 3.
//! 2. Crowding pairing: index-paired (paper) vs distance-paired (classic).
//! 3. Aggregators: mean (Eq. 1), max (Eq. 2), weighted, distance-to-ideal.
//! 4. Parallel vs serial initial-population evaluation.
//!
//! Patched vs full offspring scoring is not an ablation: offspring are
//! always patched, and the `micro` section of `BENCH_evaluator.json` times
//! `Evaluator::reassess` against `Evaluator::assess`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cdp_core::{evaluate_all, EvoConfig, Evolution, ReplacementPolicy, SelectionWeighting};
use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_dataset::SubTable;
use cdp_metrics::{Evaluator, MetricConfig, ScoreAggregator};
use cdp_sdc::{build_population, NamedProtection, SuiteConfig};

const RECORDS: usize = 150;
const ITERS: usize = 30;

fn setup() -> (Evaluator, Vec<NamedProtection>) {
    let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(5).with_records(RECORDS));
    let pop = build_population(&ds, &SuiteConfig::small(), 5).expect("suite");
    let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).expect("evaluator");
    (ev, pop)
}

fn run(ev: &Evaluator, pop: &[NamedProtection], cfg: EvoConfig) -> f64 {
    let items: Vec<(String, SubTable)> = pop
        .iter()
        .map(|p| (p.name.clone(), p.data.clone()))
        .collect();
    let outcome = Evolution::new(ev.clone(), cfg)
        .with_named_population(items)
        .expect("compatible population")
        .run();
    outcome.summary().final_mean
}

fn bench_ablation(c: &mut Criterion) {
    let (ev, pop) = setup();
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    for sel in [
        SelectionWeighting::InverseScore,
        SelectionWeighting::Complement,
        SelectionWeighting::Rank,
        SelectionWeighting::RawScore,
        SelectionWeighting::Tournament { k: 3 },
    ] {
        group.bench_with_input(
            BenchmarkId::new("selection", sel.name()),
            &sel,
            |b, &sel| {
                b.iter(|| {
                    let cfg = EvoConfig::builder()
                        .iterations(ITERS)
                        .selection(sel)
                        .seed(1)
                        .build();
                    std::hint::black_box(run(&ev, &pop, cfg))
                })
            },
        );
    }

    for rep in [
        ReplacementPolicy::IndexPairedCrowding,
        ReplacementPolicy::DistancePairedCrowding,
    ] {
        group.bench_with_input(BenchmarkId::new("crowding", rep.name()), &rep, |b, &rep| {
            b.iter(|| {
                let cfg = EvoConfig::builder()
                    .iterations(ITERS)
                    .mutation_rate(0.0)
                    .replacement(rep)
                    .seed(2)
                    .build();
                std::hint::black_box(run(&ev, &pop, cfg))
            })
        });
    }

    for (name, agg) in [
        ("mean", ScoreAggregator::Mean),
        ("max", ScoreAggregator::Max),
        ("weighted", ScoreAggregator::Weighted { w: 0.3 }),
        ("dist", ScoreAggregator::DistanceToIdeal),
    ] {
        group.bench_with_input(BenchmarkId::new("aggregator", name), &agg, |b, &agg| {
            b.iter(|| {
                let cfg = EvoConfig::builder()
                    .iterations(ITERS)
                    .aggregator(agg)
                    .seed(3)
                    .build();
                std::hint::black_box(run(&ev, &pop, cfg))
            })
        });
    }

    let items: Vec<(String, SubTable)> = pop
        .iter()
        .map(|p| (p.name.clone(), p.data.clone()))
        .collect();
    for (name, parallel) in [("serial", false), ("parallel", true)] {
        group.bench_with_input(BenchmarkId::new("init_eval", name), &parallel, |b, &par| {
            b.iter(|| std::hint::black_box(evaluate_all(&ev, &items, par)))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
