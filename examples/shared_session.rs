//! Shared session: many threads, one evaluator cache — the in-process
//! form of what `cdp serve` does over TCP.
//!
//! ```sh
//! cargo run --release --example shared_session
//! ```
//!
//! Four worker threads each run a job. Three of them target the same
//! original (Adult, seed 7 — the seed generates the table, so same seed
//! means same original), so the expensive evaluator preparation —
//! hierarchy walks, record linkage tables — is paid **once** and the
//! other two block briefly on that key and then hit the cache. The
//! German job prepares its own evaluator in parallel. `SessionStats`
//! shows the ledger at the end.

use cdp::prelude::*;

fn main() {
    let adult = |iterations: usize| {
        ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .records(200)
            .suite_small()
            .iterations(iterations)
            .seed(7)
            .build()
            .expect("valid job")
    };
    let german = ProtectionJob::builder()
        .dataset(DatasetKind::German)
        .records(200)
        .suite_small()
        .iterations(60)
        .seed(9)
        .build()
        .expect("valid job");

    // A SharedSession is cheap to clone; every clone sees the same cache.
    // Each thread hands back its job's verdict and summary line, and the
    // lines print in job order once every thread has joined, so the output
    // does not depend on which thread finished (or prepared) first.
    let session = SharedSession::new();
    let jobs = [
        ("adult", "adult, 40 iters", adult(40)),
        ("adult", "adult, 60 iters", adult(60)),
        ("adult", "adult, 80 iters", adult(80)),
        ("german", "german, 60 iters", german),
    ];
    let outcomes: Vec<(bool, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(_, label, job)| {
                let session = session.clone();
                scope.spawn(move || {
                    let mut reused = false;
                    let report = session
                        .run_with(job, |event| {
                            if let JobEvent::EvaluatorReady { reused: r } = event {
                                reused = *r;
                            }
                        })
                        .expect("job runs");
                    let best = &report.best;
                    let line = format!(
                        "{label}: best `{}` IL = {:.2}, DR = {:.2}",
                        best.name,
                        best.assessment.il(),
                        best.assessment.dr()
                    );
                    (reused, line)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("job thread"))
            .collect()
    });
    for (_, line) in &outcomes {
        println!("{line}");
    }

    // Which of the three Adult jobs prepared depends on thread timing; how
    // many prepared and how many hit does not.
    for original in ["adult", "german"] {
        let reused: Vec<bool> = jobs
            .iter()
            .zip(&outcomes)
            .filter(|((name, _, _), _)| *name == original)
            .map(|(_, &(reused, _))| reused)
            .collect();
        let hits = reused.iter().filter(|&&r| r).count();
        let prepared = reused.len() - hits;
        println!("{original}: evaluator prepared {prepared} time(s), cache hit {hits} time(s)");
    }

    // The ledger: 4 jobs, 2 distinct originals, 2 preparations total.
    let stats = session.stats();
    println!(
        "cache: {} preparations, {} hits ({} evaluators, ~{} KiB resident)",
        stats.preparations,
        stats.hits,
        stats.cached,
        stats.approx_bytes / 1024
    );
    assert_eq!(stats.preparations, 2, "one per distinct original");
    assert_eq!(stats.hits + stats.preparations, 4, "one lookup per job");
    if let Some(rate) = stats.hit_rate() {
        println!("hit rate: {:.0}%", rate * 100.0);
    }
}
