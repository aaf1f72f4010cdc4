//! The in-process batch workloads: a closed loop of one `ProtectionJob` at
//! a time, each on a fresh `SharedSession`, just as every `cdp optimize`
//! process starts cold.

use std::error::Error;
use std::time::{Duration, Instant};

use cdp::core::nsga::hypervolume;
use cdp::core::{EvalCounts, Evolution};
use cdp::dataset::generators::{Dataset, DatasetKind, GeneratorConfig};
use cdp::dataset::{SubTable, Table};
use cdp::metrics::ScoreAggregator;
use cdp::pipeline::{BestProtection, JobEvent, JobReport, ProtectionJob, SharedSession, SuiteKind};

use crate::host::{self, HostTimes};
use crate::layers::{self, same_bits};
use crate::report::{EndToEnd, Outcome, PerLayer};
use crate::stats::{median, secs};
use crate::timeline::{Stage, Timeline};
use crate::{alloc, seeds, Opts};

/// One batch workload: an Adult original and the job run against it.
pub struct Batch {
    records: usize,
    suite: SuiteKind,
    iterations: usize,
    audit: bool,
    /// Leading jobs whose winners give the quality medians; every run
    /// completes them, so those medians depend on the seed alone.
    quality_jobs: usize,
}

/// The paper's experiment: Adult, 1000 records, the paper suite, Max
/// fitness, 250 iterations.
pub const PAPER_ADULT_1K: Batch = Batch {
    records: 1000,
    suite: SuiteKind::Paper,
    iterations: 250,
    audit: false,
    quality_jobs: 8,
};

/// The row-scaling job: Adult, 100,000 records, the small suite, Max
/// fitness, 40 iterations, audited.
pub const ADULT_100K_AUDIT: Batch = Batch {
    records: 100_000,
    suite: SuiteKind::Small,
    iterations: 40,
    audit: true,
    quality_jobs: 5,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u64 = 3;
/// Generator seed of the original: one file for every run, as the paper
/// evaluates one Adult file, so only the job seeds follow `--seed`.
const ORIGINAL_SEED: u64 = 42;

impl Batch {
    fn job(&self, original: &Dataset, seed: u64) -> cdp::pipeline::Result<ProtectionJob> {
        let builder = ProtectionJob::builder()
            .generated(original.clone())
            .suite_kind(self.suite)
            .aggregator(ScoreAggregator::Max)
            .iterations(self.iterations)
            .seed(seed);
        if self.audit { builder.audit() } else { builder }.build()
    }
}

struct JobRun {
    traced: bool,
    latency: Duration,
    first_progress: Duration,
    cpu_s: f64,
    peak_bytes: usize,
    /// Traced jobs only: stage timestamps, the publish call, the
    /// evaluation counts and the session's cache hit rate.
    timeline: Timeline,
    publish: Duration,
    evals: EvalCounts,
    hit_rate: f64,
}

fn run_job(
    job: &ProtectionJob,
    traced: bool,
) -> Result<(JobRun, JobReport, Table), Box<dyn Error>> {
    let session = SharedSession::new();
    alloc::reset_peak();
    let cpu0 = host::cpu_seconds("self")?;
    let t0 = Instant::now();
    let mut first_progress = None;
    let mut timeline = Timeline::default();
    let mut evals = EvalCounts::default();
    let report = session.run_with(job, |event| {
        let Some(stage) = Stage::of(event) else {
            return;
        };
        if stage == Stage::Progress && first_progress.is_none() {
            first_progress = Some(t0.elapsed());
        }
        if traced {
            timeline.push(stage, t0.elapsed());
            if let JobEvent::EvolutionFinished { evaluations, .. } = event {
                evals = *evaluations;
            }
        }
    })?;
    let publish_start = Instant::now();
    let published = report.published_best()?;
    let publish = publish_start.elapsed();
    let latency = t0.elapsed();
    let cpu_s = host::cpu_seconds("self")? - cpu0;
    let run = JobRun {
        traced,
        latency,
        first_progress: first_progress.ok_or("the job reported no generation")?,
        cpu_s,
        peak_bytes: alloc::peak(),
        timeline,
        publish,
        evals,
        hit_rate: session.stats().hit_rate().unwrap_or(0.0),
    };
    Ok((run, report, published))
}

/// The published file must carry the winner, which a fresh evaluator must
/// score bit-identically, and leave every other column as it was.
fn verify(
    job: &ProtectionJob,
    original: &SubTable,
    report: &JobReport,
    published: &Table,
) -> Result<(), String> {
    layers::reassess_fresh(original, job, &report.best.data, &report.best.assessment)?;
    let carried = published
        .subtable(&report.protected)
        .map_err(|e| e.to_string())?;
    if carried != report.best.data {
        return Err("the published file does not carry the winner".into());
    }
    let unprotected = (0..published.n_attrs()).filter(|j| !report.protected.contains(j));
    for j in unprotected {
        if published.column(j) != report.table.column(j) {
            return Err(format!("the published file altered column {j}"));
        }
    }
    if job.audit_spec().is_some() != report.privacy.is_some() {
        return Err("the audit stage did not run as requested".into());
    }
    Ok(())
}

/// Hypervolume of the non-dominated final points, reference 100 on both
/// axes (dominated points add nothing to the sweep).
fn final_hv(report: &JobReport) -> f64 {
    let points: Vec<(f64, f64)> = report.points.iter().map(|p| (p.il, p.dr)).collect();
    hypervolume(&points, (100.0, 100.0))
}

pub fn run(w: &Batch, opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    let host0 = HostTimes::now()?;
    let mut out = Outcome::default();

    // set-up: generate the original, then one warm-up job (the process's
    // first job pays thread start-up and heap growth)
    let config = GeneratorConfig::seeded(ORIGINAL_SEED).with_records(w.records);
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut dataset = None;
    for r in 0..SETUP_REPS {
        let t = Instant::now();
        let ds = DatasetKind::Adult.generate(&config);
        generate.push(t.elapsed());
        let warmup = w.job(&ds, seeds::derive(opts.seed, seeds::WARMUP + r))?;
        SharedSession::new().run(&warmup)?.published_best()?;
        setup.push(t.elapsed());
        dataset = Some(ds);
    }
    let ds = dataset.expect("at least one set-up");
    let original = ds.protected_subtable();

    // the timed loop; a traced run alternates untraced and traced jobs
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut verifying = Duration::ZERO;
    let mut runs = Vec::new();
    let mut quality = Vec::new();
    let mut reference: Option<BestProtection> = None;
    let mut i = 0;
    while i < w.quality_jobs || start.elapsed() - verifying < budget {
        let job = w.job(&ds, seeds::derive(opts.seed, seeds::JOBS + i as u64))?;
        let traced = opts.trace && i % 2 == 1;
        match run_job(&job, traced) {
            Ok((run, report, published)) => {
                let t = Instant::now();
                out.check(
                    &format!("job {i}"),
                    verify(&job, &original, &report, &published),
                );
                verifying += t.elapsed();
                if i < w.quality_jobs {
                    quality.push((
                        report.best.assessment.score(ScoreAggregator::Max),
                        final_hv(&report),
                    ));
                }
                if i == 0 {
                    reference = Some(report.best);
                }
                runs.push(run);
            }
            Err(e) => out.check(&format!("job {i}"), Err(e.to_string())),
        }
        i += 1;
    }
    let wall = (start.elapsed() - verifying).as_secs_f64();
    let n = runs.len().max(1) as f64;
    let latencies: Vec<f64> = runs.iter().map(|r| r.latency.as_secs_f64()).collect();
    out.note(format!(
        "input: {} rows, {}-suite protections, closed loop with 1 client, {} jobs",
        w.records,
        w.suite.name(),
        runs.len()
    ));
    out.note(format!(
        "host: steal_frac {:.4}, nproc {}",
        HostTimes::now()?.steal_frac_since(&host0),
        host::nproc()
    ));

    if !opts.trace {
        EndToEnd {
            setup_s: median(&secs(&setup)),
            job_latencies_s: latencies,
            jobs_per_s: runs.len() as f64 / wall,
            cpu_per_job_s: runs.iter().map(|r| r.cpu_s).sum::<f64>() / n,
            first_progress_s: runs
                .iter()
                .map(|r| r.first_progress.as_secs_f64())
                .collect(),
            peak_mem_bytes: median(&runs.iter().map(|r| r.peak_bytes as f64).collect::<Vec<_>>()),
            winner_score: median(&quality.iter().map(|q| q.0).collect::<Vec<_>>()),
            front_hv: median(&quality.iter().map(|q| q.1).collect::<Vec<_>>()),
            success_rate: (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        }
        .report(&mut out);
        return Ok(out);
    }

    // traced: stage spans of the traced jobs, then the direct layer calls
    let traced: Vec<&JobRun> = runs.iter().filter(|r| r.traced).collect();
    let of_traced = |f: &dyn Fn(&JobRun) -> f64| -> f64 {
        median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let untraced_p50 = median(
        &runs
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.latency.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let mut per_layer = PerLayer {
        dataset_generate_s: median(&secs(&generate)),
        pipeline_publish_s: of_traced(&|r| r.publish.as_secs_f64()),
        pipeline_cache_hit_rate: of_traced(&|r| r.hit_rate),
        core_evals_full: of_traced(&|r| r.evals.full as f64),
        core_evals_incremental: of_traced(&|r| r.evals.incremental as f64),
        trace_overhead_ratio: of_traced(&|r| r.latency.as_secs_f64()) / untraced_p50,
        ..PerLayer::from_timelines(&traced.iter().map(|r| &r.timeline).collect::<Vec<_>>())
    };

    // the hand-wired job 0: the same public calls the pipeline makes
    let job0 = w.job(&ds, seeds::derive(opts.seed, seeds::JOBS))?;
    let (probe, figures) = layers::probe(&job0, seeds::derive(opts.seed, seeds::PROBE))?;
    let outcome = Evolution::new(probe.evaluator.clone(), job0.evo_config())
        .with_named_population(probe.population.clone())?
        .run_with(|_| {});
    let winner = outcome.population.best();
    let t = Instant::now();
    cdp::privacy::report::audit(&winner.data, Some(&probe.original), &[])?;
    per_layer.privacy_audit_s = t.elapsed().as_secs_f64();
    let published = probe.src.table.with_subtable(&winner.data)?;
    let verdict = match &reference {
        None => Err("job 0 did not finish".to_string()),
        Some(r) if r.name != winner.name => {
            Err(format!("winner `{}` vs `{}`", winner.name, r.name))
        }
        Some(r) if r.data != winner.data => Err("winning files differ".to_string()),
        Some(r) if !same_bits(&r.assessment, winner.assessment()) => {
            Err("winning assessments differ".to_string())
        }
        Some(r) if published.subtable(&probe.src.protected)? != r.data => {
            Err("the hand-wired publish differs".to_string())
        }
        Some(_) => Ok(()),
    };
    out.check("hand-wired reproduction of job 0", verdict);
    out.note(format!(
        "input: original has {} distinct patterns, population {}",
        figures.original_patterns,
        probe.population.len()
    ));
    per_layer.host_steal_frac = HostTimes::now()?.steal_frac_since(&host0);
    per_layer.report(&figures, &mut out);
    Ok(out)
}
