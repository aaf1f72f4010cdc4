//! Supplementary convergence study (not a paper artifact): how the final
//! max/mean/min scores scale with the iteration budget and with the
//! population size, per dataset.
//!
//! The paper never states its iteration budget; this sweep shows where the
//! curves flatten, which is what justifies the 1000-iteration default of
//! `reproduce`.
//!
//! ```text
//! cargo run --release -p cdp_bench --bin sweep -- [--records N] [--seed S] [--out DIR]
//! ```
//! Writes `convergence.csv` (iterations sweep) and `popsize.csv`
//! (population-fraction sweep) under the output directory.

use std::path::PathBuf;

use cdp_bench::write_csv;
use cdp_core::{EvoConfig, Evolution};
use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_metrics::{Evaluator, MetricConfig, ScoreAggregator};
use cdp_sdc::{build_population, SuiteConfig};

struct Args {
    records: usize,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        records: 300,
        seed: 42,
        out: PathBuf::from("results"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--records" => {
                args.records = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.records)
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.seed),
            "--out" => args.out = it.next().map(PathBuf::from).unwrap_or(args.out),
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(1);
            }
        }
    }
    args
}

fn run(
    kind: DatasetKind,
    records: usize,
    seed: u64,
    iterations: usize,
    keep_fraction: f64,
) -> (f64, f64, f64) {
    let ds = kind.generate(&GeneratorConfig::seeded(seed).with_records(records));
    let mut pop = build_population(&ds, &SuiteConfig::paper(kind), seed).expect("sweep");
    if keep_fraction < 1.0 {
        let keep = ((pop.len() as f64 * keep_fraction).ceil() as usize).max(4);
        pop.truncate(keep);
    }
    let evaluator =
        Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).expect("evaluator");
    let cfg = EvoConfig::builder()
        .iterations(iterations)
        .aggregator(ScoreAggregator::Max)
        .seed(seed)
        .build();
    let outcome = Evolution::new(evaluator, cfg)
        .with_named_population(pop)
        .expect("compatible")
        .run();
    let s = outcome.summary();
    (s.final_max, s.final_mean, s.final_min)
}

fn main() {
    let args = parse_args();

    // sweep 1: iteration budget
    let mut rows = Vec::new();
    for kind in DatasetKind::all() {
        for iters in [50usize, 100, 200, 400, 800] {
            let (max, mean, min) = run(kind, args.records, args.seed, iters, 1.0);
            println!(
                "{:<8} iters {:>4}: max {:6.2} mean {:6.2} min {:6.2}",
                kind.name(),
                iters,
                max,
                mean,
                min
            );
            rows.push(vec![
                kind.name().to_string(),
                iters.to_string(),
                format!("{max:.4}"),
                format!("{mean:.4}"),
                format!("{min:.4}"),
            ]);
        }
    }
    let path = args.out.join("convergence.csv");
    write_csv(
        &path,
        &["dataset", "iterations", "max", "mean", "min"],
        &rows,
    )
    .expect("write convergence.csv");
    println!("-> {}", path.display());

    // sweep 2: population size (keep the first fraction of the sweep)
    let mut rows = Vec::new();
    for kind in DatasetKind::all() {
        for keep in [0.25f64, 0.5, 0.75, 1.0] {
            let (max, mean, min) = run(kind, args.records, args.seed, 300, keep);
            println!(
                "{:<8} keep {:>4.0}%: max {:6.2} mean {:6.2} min {:6.2}",
                kind.name(),
                keep * 100.0,
                max,
                mean,
                min
            );
            rows.push(vec![
                kind.name().to_string(),
                format!("{keep:.2}"),
                format!("{max:.4}"),
                format!("{mean:.4}"),
                format!("{min:.4}"),
            ]);
        }
    }
    let path = args.out.join("popsize.csv");
    write_csv(
        &path,
        &["dataset", "keep_fraction", "max", "mean", "min"],
        &rows,
    )
    .expect("write popsize.csv");
    println!("-> {}", path.display());
}
