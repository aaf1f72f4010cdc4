//! Quickstart: evolve a better protection for the Adult dataset — the
//! whole workflow as one declarative [`ProtectionJob`].
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cdp::prelude::*;

fn main() {
    // One job describes the paper's whole pipeline: the original file (a
    // synthetic stand-in for UCI Adult, reduced so the example finishes in
    // seconds), the initial SDC population, the fitness (Eq. 2 max, as the
    // paper recommends), and the evolution budget.
    let job = ProtectionJob::builder()
        .dataset(DatasetKind::Adult)
        .records(300)
        .suite_small()
        .aggregator(ScoreAggregator::Max)
        .iterations(200)
        .seed(42)
        .build()
        .expect("valid job");

    // Run it, streaming progress through the shared event channel.
    let report = job
        .run_with(|event| match event {
            JobEvent::SourceReady {
                rows,
                attrs,
                protected,
            } => println!("dataset: {rows} records, {attrs} attributes, {protected} protected"),
            JobEvent::PopulationReady { size } => {
                println!("initial population: {size} protections")
            }
            _ => {}
        })
        .expect("job runs");

    // Report.
    let s = report.summary().expect("evolved job");
    println!(
        "max score:  {:6.2} -> {:6.2}  ({:+.2}%)",
        s.initial_max,
        s.final_max,
        -s.improvement_max()
    );
    println!(
        "mean score: {:6.2} -> {:6.2}  ({:+.2}%)",
        s.initial_mean,
        s.final_mean,
        -s.improvement_mean()
    );
    println!(
        "min score:  {:6.2} -> {:6.2}  ({:+.2}%)",
        s.initial_min,
        s.final_min,
        -s.improvement_min()
    );
    let best = &report.best;
    println!(
        "best protection: `{}` with IL = {:.2}, DR = {:.2}",
        best.name,
        best.assessment.il(),
        best.assessment.dr()
    );
}
