//! GA vs the anonymization baseline: optimal lattice k-anonymization.
//!
//! The paper optimizes empirical linkage risk; the anonymization line of
//! work (Samarati, Incognito, OLA, ARX) instead *guarantees* a k and pays
//! whatever information loss that costs. This example runs both paradigms
//! on the same file and scores each with the other's yardstick:
//!
//! * the GA's best protection — one [`ProtectionJob`] — scored by the
//!   paper's measures *and* by the k it incidentally achieves (usually 1:
//!   swapped files keep unique combinations);
//! * the lattice-optimal k-anonymous recodings for k ∈ {2, 3, 5, 10} —
//!   guaranteed k, scored by the paper's IL/DR measures through the same
//!   [`Session`]'s cached evaluator.
//!
//! ```sh
//! cargo run --release --example kanon_baseline
//! ```

use cdp::prelude::*;
use cdp::privacy::{mondrian_anonymize, Partition};

fn main() {
    let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(7).with_records(300));
    let sub = ds.protected_subtable();
    let hierarchies = ds.protected_hierarchies();
    let session = Session::new();

    println!("contender            IL      DR   max(IL,DR)   k");
    println!("-------------------------------------------------");

    // --- contender 1: the paper's evolutionary optimizer (Eq. 2) ---
    let job = ProtectionJob::builder()
        .generated(ds.clone())
        .suite_small()
        .aggregator(ScoreAggregator::Max)
        .iterations(150)
        .seed(7)
        .build()
        .expect("valid job");
    let report = session.run(&job).expect("job runs");
    let best = &report.best;
    let ga_k = Partition::of_subtable(&best.data)
        .map(|p| p.min_class_size())
        .unwrap_or(0);
    println!(
        "{:<18} {:6.2}  {:6.2}   {:8.2}   {:3}",
        "ga(max)",
        best.assessment.il(),
        best.assessment.dr(),
        best.assessment.il().max(best.assessment.dr()),
        ga_k
    );

    // the baselines score against the same original: the session hands back
    // the evaluator the GA job already prepared
    let (evaluator, reused) = session
        .evaluator_for(&sub, MetricConfig::default())
        .expect("evaluator");
    assert!(reused, "the job already prepared this original");

    // --- global recoding: optimal k-anonymous lattice node ---
    let recoder = Recoder::new(&sub, hierarchies).expect("nested hierarchies");
    let search = LatticeSearch::new(&sub, &recoder);
    for k in [2usize, 3, 5, 10] {
        match search.optimal(k, CostKind::Discernibility) {
            Ok(found) => {
                let masked = recoder.apply(&sub, &found.node).expect("valid node");
                let a = evaluator.evaluate(&masked);
                println!(
                    "{:<18} {:6.2}  {:6.2}   {:8.2}   {:3}",
                    format!("lattice(k={k})"),
                    a.il(),
                    a.dr(),
                    a.score(ScoreAggregator::Max),
                    found.achieved_k
                );
            }
            Err(e) => println!("lattice(k={k}): {e}"),
        }
    }

    // --- local recoding: Mondrian multidimensional partitioning ---
    for k in [2usize, 3, 5, 10] {
        match mondrian_anonymize(&sub, k) {
            Ok((masked, stats)) => {
                let a = evaluator.evaluate(&masked);
                println!(
                    "{:<18} {:6.2}  {:6.2}   {:8.2}   {:3}",
                    format!("mondrian(k={k})"),
                    a.il(),
                    a.dr(),
                    a.score(ScoreAggregator::Max),
                    stats.achieved_k
                );
            }
            Err(e) => println!("mondrian(k={k}): {e}"),
        }
    }

    println!();
    println!("reading the table:");
    println!(" * the GA minimizes max(IL, DR) but leaves unique records (k = 1);");
    println!(" * full-domain recoding (lattice) guarantees k at rapidly growing IL;");
    println!(" * local recoding (Mondrian) guarantees the same k far cheaper —");
    println!("   the utility/guarantee trade-off separating the paradigms, and the");
    println!("   reason local recoding became the anonymization default.");
}
