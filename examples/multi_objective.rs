//! Scalar fitness (the paper) vs NSGA-II (extension): one run, whole front.
//!
//! The paper runs its algorithm once per aggregator (Eq. 1 mean, Eq. 2 max)
//! and gets one winner per run. NSGA-II selection works on Pareto dominance
//! directly, so one run returns the whole (IL, DR) trade-off curve. This
//! example gives all three contenders a comparable evaluation budget and
//! compares the fronts they discover by 2-D hypervolume.
//!
//! Every contender is the *same* [`ProtectionJob`] builder chain — the
//! scalar-vs-Pareto ablation is literally a one-flag flip (`.nsga()`) —
//! and all three run through one [`Session`], so the original's measure
//! statistics are prepared exactly once.
//!
//! ```sh
//! cargo run --release --example multi_objective
//! ```

use cdp::core::nsga::{hypervolume, HV_REFERENCE};
use cdp::core::ScatterPoint;
use cdp::prelude::*;

fn hv(points: &[ScatterPoint]) -> f64 {
    let objs: Vec<(f64, f64)> = points.iter().map(|p| (p.il, p.dr)).collect();
    hypervolume(&objs, HV_REFERENCE)
}

fn main() {
    let iterations = 150usize;
    let session = Session::new();

    let job = |aggregator: ScoreAggregator| {
        ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(250)
            .suite_small()
            .aggregator(aggregator)
            .iterations(iterations)
            .seed(3)
            .build()
            .expect("valid job")
    };
    let pop_size = SuiteConfig::small().total();
    println!(
        "dataset {} / population {} / scalar budget {} iterations",
        DatasetKind::German.name(),
        pop_size,
        iterations
    );
    println!();
    println!("contender        front  hypervolume");
    println!("------------------------------------");

    // --- scalar contenders: the paper's Algorithm 1, Eq. 1 then Eq. 2 ---
    let mut initial_hv = 0.0;
    for aggregator in [ScoreAggregator::Mean, ScoreAggregator::Max] {
        let report = session.run(&job(aggregator)).expect("job runs");
        let outcome = report.scalar_outcome().expect("evolved");
        initial_hv = hv(&outcome.initial);
        println!(
            "ga({:<4})         {:>4}   {:>10.0}",
            aggregator.name(),
            outcome.pareto_front.len(),
            hv(&outcome.pareto_front)
        );
    }

    // --- NSGA-II: the same job shape, one flag flipped, matched budget ---
    // a scalar run spends ~1.5 evaluations per iteration (1 for mutation
    // generations, 2 for crossover generations, both at rate 0.5)
    let generations = (iterations * 3 / 2 / pop_size).max(2);
    let nsga_job = ProtectionJob::builder()
        .dataset(DatasetKind::German)
        .records(250)
        .suite_small()
        .nsga()
        .iterations(generations)
        .seed(3)
        .build()
        .expect("valid job");
    let report = session.run(&nsga_job).expect("job runs");
    assert!(
        report.evaluator_reused,
        "scalar jobs already prepared this original"
    );
    assert_eq!(
        session.stats().preparations,
        1,
        "one original, one preparation"
    );
    let front = report.front().expect("nsga outcome");
    println!(
        "nsga2({:>2} gen)    {:>4}   {:>10.0}",
        generations,
        front.archive.len(),
        hv(&front.archive)
    );
    println!("initial pop         -   {initial_hv:>10.0}");

    println!();
    println!("NSGA-II front (IL ascending, * = knee point):");
    let knee = front.knee_index();
    for (i, p) in front.points.iter().enumerate() {
        println!(
            "  {}IL {:6.2}  DR {:6.2}   [{}]",
            if i == knee { "*" } else { " " },
            p.il,
            p.dr,
            p.name
        );
    }
    println!();
    println!(
        "hypervolume over generations: {:.0} -> {:.0}",
        front.initial_hypervolume(),
        front.final_hypervolume()
    );
}
