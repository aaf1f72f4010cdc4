//! The paper's first workload end to end: protect the Adult census
//! extract, compare Eq. 1 (mean) against Eq. 2 (max) fitness, and export
//! the best protected file as CSV — what a statistical agency would
//! actually publish.
//!
//! Both experiments run through one [`Session`], so the original file's
//! measure statistics are prepared once and shared.
//!
//! ```sh
//! cargo run --release --example adult_protection
//! ```

use cdp::core::ScatterPoint;
use cdp::dataset::io::{read_table_path, write_table_path, SchemaSource};
use cdp::prelude::*;

fn job(aggregator: ScoreAggregator) -> ProtectionJob {
    // Paper shape, reduced records to finish in ~a minute.
    ProtectionJob::builder()
        .dataset(DatasetKind::Adult)
        .records(400)
        .suite_paper()
        .aggregator(aggregator)
        .iterations(300)
        .seed(7)
        .build()
        .expect("valid job")
}

fn balance(points: &[ScatterPoint]) -> f64 {
    points.iter().map(|p| (p.il - p.dr).abs()).sum::<f64>() / points.len() as f64
}

fn main() {
    let session = Session::new();

    println!("== Experiment 1: Eq. 1 (mean of IL and DR) ==");
    let mean_run = session.run(&job(ScoreAggregator::Mean)).expect("job runs");
    let s = mean_run.summary().expect("evolved");
    println!(
        "max {:.2}->{:.2}  mean {:.2}->{:.2}  min {:.2}->{:.2}",
        s.initial_max, s.final_max, s.initial_mean, s.final_mean, s.initial_min, s.final_min
    );
    println!("final |IL-DR| imbalance: {:.2}", balance(&mean_run.points));

    println!("\n== Experiment 2: Eq. 2 (max of IL and DR) ==");
    let max_run = session.run(&job(ScoreAggregator::Max)).expect("job runs");
    assert!(
        max_run.evaluator_reused,
        "second run must reuse the session's prepared evaluator"
    );
    let s = max_run.summary().expect("evolved");
    println!(
        "max {:.2}->{:.2}  mean {:.2}->{:.2}  min {:.2}->{:.2}",
        s.initial_max, s.final_max, s.initial_mean, s.final_mean, s.initial_min, s.final_min
    );
    println!(
        "final |IL-DR| imbalance: {:.2}  (the paper's §3.2 claim: lower than Eq. 1's)",
        balance(&max_run.points)
    );
    println!(
        "(evaluator prepared {} time(s) for 2 runs — session reuse)",
        session.stats().preparations
    );

    // Publish the winner: the report re-assembles the full table with the
    // protected columns swapped in; write CSV and prove it reads back.
    let best = &max_run.best;
    println!(
        "\nbest protection: `{}` (IL {:.2}, DR {:.2})",
        best.name,
        best.assessment.il(),
        best.assessment.dr()
    );
    let published = max_run.published_best().expect("same schema and shape");
    let out = std::env::temp_dir().join("adult_protected.csv");
    write_table_path(&published, &out).expect("write CSV");
    let back = read_table_path(
        SchemaSource::Fixed(std::sync::Arc::clone(published.schema())),
        &out,
    )
    .expect("round trip");
    assert_eq!(back.n_rows(), published.n_rows());
    println!("published file written to {}", out.display());
}
