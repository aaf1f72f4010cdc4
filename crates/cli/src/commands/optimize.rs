//! `cdp optimize` — run the evolutionary optimizer (scalar fitness,
//! Algorithm 1 of the paper) or NSGA-II over a population of protections,
//! writing figure-ready CSVs.
//!
//! Flags deserialize into one [`cdp::pipeline::ProtectionJob`] carrying
//! its [`cdp::pipeline::OptimizerMode`]; both modes run through
//! [`SharedSession::run_with`], so the CLI and the library cannot drift.
//! The dataset and optimizer flags are job-spec keys read by
//! `JobSpec::from_flags`, so they share the `--job` grammar's parser,
//! defaults and mode checks.

use std::io::Write;
use std::path::Path;

use cdp::pipeline::{JobEvent, OptimizerMode, ProtectionJob, SharedSession};
use cdp_core::ScatterPoint;
use cdp_dataset::io::write_table_path;

use crate::args::Args;
use crate::data::{load_table_with, resolve_attrs};
use crate::error::{CliError, Result};
use crate::spec::{parse_method, JobSpec};

/// Usage text.
pub const USAGE: &str = "\
cdp optimize (--dataset <name> | --input <file.csv> | --job <spec>) --out <dir>
             [--attrs <A,B,C>]           attributes to protect (input mode)
             [--methods <spec,spec,...>] initial population (input mode)
             [--copies <n>]              seeds per method spec (default 2)
             [--suite <small|paper>]     population sweep (dataset mode)
             [--records <n>]             record count (dataset mode)
             [--schema <sidecar>]        attribute kinds/dictionaries (input mode)
             [--mode <scalar|nsga>]      optimizer (default scalar)
             [--fitness <mean|max>]      scalar aggregator (default max)
             [--iters <n>]               iterations/generations (default 300)
             [--drop <fraction>]         drop best initial fraction (scalar)
             [--offspring <n>]           offspring per generation (nsga; 0 = pop size)
             [--xprob <p>]               crossover probability (nsga; default 0.5)
             [--seed <u64>]

Scalar mode writes evolution.csv, scatter.csv and best.csv into --out;
NSGA-II mode writes front.csv, hypervolume.csv and best.csv (the front's
knee point).

The dataset and optimizer flags are keys of the job spec: --iters sets
`gens` under --mode nsga, and a flag of the other mode is rejected.
--job takes one quoted key=value job spec — exactly the `job:` line a
dataset-mode run echoes — so any run can be reproduced verbatim; it
takes no other flag but --out. A flag the chosen source ignores is an
error. The islands=, mig=, obj=, eps= and audit= keys have no flag; use
--job:
  cdp optimize --job 'dataset=adult suite=paper fitness=max iters=300 seed=7' --out dir
  cdp optimize --job 'dataset=german suite=small mode=nsga gens=200 seed=7' --out dir";

/// Default initial-population recipe for `--input` mode.
const DEFAULT_METHODS: &str =
    "microagg:3,microagg:6,topcode:0.15,bottomcode:0.15,recode:1,rankswap:2,rankswap:8,pram:0.8,pram:0.65";

/// Flags that only shape an `--input` run's population.
const INPUT_FLAGS: [&str; 4] = ["attrs", "methods", "copies", "schema"];

/// Run the command.
pub fn run(args: &Args) -> Result<()> {
    let mut known = vec!["input", "job", "out"];
    known.extend(INPUT_FLAGS);
    known.extend(JobSpec::flags());
    known.sort_unstable();
    known.dedup();
    args.expect_only(&known)?;
    let out_dir = Path::new(args.require("out")?);
    std::fs::create_dir_all(out_dir)?;

    let job = job_from_args(args)?;
    match job.optimizer() {
        OptimizerMode::Scalar(_) => run_scalar(&job, out_dir),
        OptimizerMode::Nsga(_) => run_nsga(&job, out_dir),
    }
}

/// Deserialize the flags into one [`ProtectionJob`].
fn job_from_args(args: &Args) -> Result<ProtectionJob> {
    if let Some(text) = args.get("job") {
        // a whole run as one pasteable spec string
        if args.get("dataset").is_some() || args.get("input").is_some() {
            return Err(CliError::Usage(
                "--job replaces --dataset/--input; pass one source only".into(),
            ));
        }
        if args.get("mode").is_some() {
            return Err(CliError::Usage(
                "the optimizer mode is part of the --job spec (mode=nsga); drop --mode".into(),
            ));
        }
        reject_flags(
            args,
            JobSpec::flags().chain(INPUT_FLAGS),
            "does not combine with --job; set the run inside the spec",
        )?;
        return JobSpec::parse(text)?.to_job();
    }
    match (args.get("dataset"), args.get("input")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--dataset and --input are mutually exclusive".into(),
        )),
        (None, None) => Err(CliError::Usage(
            "one of --dataset or --input is required".into(),
        )),
        // dataset mode: the flags are job-spec keys
        (Some(_), None) => {
            reject_flags(args, INPUT_FLAGS, "applies to input mode (--input)")?;
            JobSpec::from_flags(args)?.to_job()
        }
        (None, Some(path)) => {
            reject_flags(
                args,
                ["suite", "records"],
                "applies to dataset mode; --input takes --methods and its file's rows",
            )?;
            // the optimizer flags read as in dataset mode; the loaded table
            // and the method list then replace the spec's source and suite
            let spec = JobSpec::from_flags(args)?;
            let table = load_table_with(path, args.get("schema"))?;
            let indices = resolve_attrs(&table, args.list("attrs"))?;
            let methods = args
                .get("methods")
                .unwrap_or(DEFAULT_METHODS)
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(parse_method)
                .collect::<Result<Vec<_>>>()?;
            Ok(spec
                .builder()
                .table(table, indices)
                .methods(methods)
                .copies(args.get_or("copies", 2)?)
                .build()?)
        }
    }
}

/// A usage error naming the first of `flags` that was given.
fn reject_flags<'a>(
    args: &Args,
    flags: impl IntoIterator<Item = &'a str>,
    why: &str,
) -> Result<()> {
    match flags.into_iter().find(|flag| args.get(flag).is_some()) {
        Some(flag) => Err(CliError::Usage(format!("--{flag} {why}"))),
        None => Ok(()),
    }
}

fn run_scalar(job: &ProtectionJob, out_dir: &Path) -> Result<()> {
    if job.iterations() == 0 {
        return Err(CliError::Usage(
            "scalar mode needs --iters >= 1 (0 is mask-and-score only)".into(),
        ));
    }
    // echo the canonical spec so any dataset-mode run can be reproduced by
    // pasting the line back into the flags
    if let Ok(spec) = JobSpec::from_job(job) {
        println!("job: {}", spec.to_spec_string());
    }
    let session = SharedSession::new();
    let mut dims = (0usize, 0usize);
    let report = session.run_with(job, |event| match event {
        JobEvent::SourceReady {
            rows, protected, ..
        } => dims = (*rows, *protected),
        JobEvent::PopulationReady { size } => println!(
            "optimizing {size} protections of {} records x {} attributes ({} iterations)",
            dims.0,
            dims.1,
            job.iterations()
        ),
        _ => {}
    })?;
    let outcome = report.scalar_outcome().expect("iterations >= 1 evolves");

    // evolution.csv: the paper's max/mean/min series
    let mut evolution = std::fs::File::create(out_dir.join("evolution.csv"))?;
    writeln!(evolution, "iteration,min,mean,max")?;
    for g in &outcome.trace.generations {
        writeln!(
            evolution,
            "{},{:.4},{:.4},{:.4}",
            g.iteration, g.min, g.mean, g.max
        )?;
    }

    // scatter.csv: initial + final (IL, DR) dispersion
    let mut scatter = std::fs::File::create(out_dir.join("scatter.csv"))?;
    writeln!(scatter, "phase,name,il,dr,score")?;
    write_points(&mut scatter, "initial", &outcome.initial)?;
    write_points(&mut scatter, "final", &outcome.final_points)?;

    // best.csv: the winning protected file, substituted into the full table
    write_table_path(&report.published_best()?, out_dir.join("best.csv"))?;

    let summary = outcome.summary();
    println!(
        "best score {:.2} -> {:.2} ({}), files in {}",
        summary.initial_min,
        summary.final_min,
        report.best.name,
        out_dir.display()
    );
    println!(
        "max {:.2} -> {:.2} ({:+.2}%), mean {:.2} -> {:.2} ({:+.2}%)",
        summary.initial_max,
        summary.final_max,
        -summary.improvement_max(),
        summary.initial_mean,
        summary.final_mean,
        -summary.improvement_mean(),
    );
    Ok(())
}

fn run_nsga(job: &ProtectionJob, out_dir: &Path) -> Result<()> {
    // NSGA-II is a first-class job mode: the run goes through the same
    // session engine as the scalar path, artifact emission lives on the
    // report's `Front`.
    if let Ok(spec) = JobSpec::from_job(job) {
        println!("job: {}", spec.to_spec_string());
    }
    let session = SharedSession::new();
    let mut dims = (0usize, 0usize);
    let report = session.run_with(job, |event| match event {
        JobEvent::SourceReady {
            rows, protected, ..
        } => dims = (*rows, *protected),
        JobEvent::PopulationReady { size } => println!(
            "optimizing {size} protections of {} records x {} attributes ({} generations)",
            dims.0,
            dims.1,
            job.iterations()
        ),
        _ => {}
    })?;
    let front = report.front().expect("nsga jobs produce a front");

    front.write_front_csv(std::fs::File::create(out_dir.join("front.csv"))?)?;
    front.write_hypervolume_csv(std::fs::File::create(out_dir.join("hypervolume.csv"))?)?;
    // best.csv: the knee point of the front, substituted into the full table
    write_table_path(&report.published_best()?, out_dir.join("best.csv"))?;

    println!(
        "front size {} -> {} (archive {}), hypervolume {:.0} -> {:.0}, {} evaluations, files in {}",
        front.initial.len(),
        front.points.len(),
        front.archive.len(),
        front.initial_hypervolume(),
        front.final_hypervolume(),
        front.evaluations,
        out_dir.display()
    );
    println!(
        "knee point `{}` (IL {:.2}, DR {:.2}) written to best.csv",
        report.best.name,
        report.best.assessment.il(),
        report.best.assessment.dr()
    );
    Ok(())
}

fn write_points(out: &mut std::fs::File, phase: &str, points: &[ScatterPoint]) -> Result<()> {
    for p in points {
        writeln!(
            out,
            "{phase},{},{:.4},{:.4},{:.4}",
            p.name, p.il, p.dr, p.score
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cdp_cli_optimize").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn dataset_scalar_mode_writes_artifacts() {
        let out = tmp_dir("scalar");
        run(&args(&[
            "--dataset",
            "adult",
            "--records",
            "60",
            "--iters",
            "20",
            "--seed",
            "3",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        for file in ["evolution.csv", "scatter.csv", "best.csv"] {
            let text = std::fs::read_to_string(out.join(file)).unwrap();
            assert!(text.lines().count() > 1, "{file} has content");
        }
        let evolution = std::fs::read_to_string(out.join("evolution.csv")).unwrap();
        assert!(evolution.starts_with("iteration,min,mean,max"));
        assert_eq!(evolution.lines().count(), 22); // header + initial + 20
    }

    #[test]
    fn job_flag_runs_a_pasted_spec() {
        let out = tmp_dir("jobflag");
        run(&args(&[
            "--job",
            "dataset=german suite=small fitness=mean iters=5 seed=2 records=50",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.join("best.csv").exists());
        // --job excludes the other source flags
        let err = run(&args(&[
            "--job",
            "dataset=german",
            "--dataset",
            "adult",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--job replaces"));
    }

    #[test]
    fn scalar_mode_rejects_zero_iterations_up_front() {
        let out = tmp_dir("zeroiters");
        let err = run(&args(&[
            "--dataset",
            "adult",
            "--records",
            "40",
            "--iters",
            "0",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--iters >= 1"));
    }

    #[test]
    fn dataset_mode_supports_drop_fraction() {
        let out = tmp_dir("drop");
        run(&args(&[
            "--dataset",
            "flare",
            "--records",
            "60",
            "--iters",
            "5",
            "--drop",
            "0.10",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let scatter = std::fs::read_to_string(out.join("scatter.csv")).unwrap();
        let initial = scatter
            .lines()
            .filter(|l| l.starts_with("initial,"))
            .count();
        assert!(initial < 12, "drop must shrink the population: {initial}");
    }

    #[test]
    fn input_nsga_mode_writes_front() {
        let dir = tmp_dir("nsga");
        let input = dir.join("input.csv");
        let mut csv = String::from("X,Y,Z\n");
        for i in 0..60 {
            csv.push_str(["a,p,1\n", "b,q,2\n", "c,r,3\n", "a,q,1\n"][i % 4]);
        }
        std::fs::write(&input, csv).unwrap();
        run(&args(&[
            "--input",
            input.to_str().unwrap(),
            "--attrs",
            "X,Y",
            "--methods",
            "pram:0.8,rankswap:3",
            "--copies",
            "3",
            "--mode",
            "nsga",
            "--iters",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let front = std::fs::read_to_string(dir.join("front.csv")).unwrap();
        assert!(front.starts_with("phase,name,il,dr,score"));
        assert!(front.contains("final,"));
        let hv = std::fs::read_to_string(dir.join("hypervolume.csv")).unwrap();
        assert_eq!(hv.lines().count(), 7); // header + initial + 5 generations
    }

    #[test]
    fn dataset_nsga_mode_writes_front_and_knee_point() {
        let out = tmp_dir("nsga_ds");
        run(&args(&[
            "--dataset",
            "german",
            "--records",
            "60",
            "--mode",
            "nsga",
            "--iters",
            "4",
            "--seed",
            "6",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let front = std::fs::read_to_string(out.join("front.csv")).unwrap();
        assert!(front.starts_with("phase,name,il,dr,score"));
        for phase in ["initial,", "final,", "archive,"] {
            assert!(front.contains(phase), "missing {phase} rows");
        }
        let hv = std::fs::read_to_string(out.join("hypervolume.csv")).unwrap();
        assert_eq!(hv.lines().count(), 6); // header + initial + 4 generations
        let best = std::fs::read_to_string(out.join("best.csv")).unwrap();
        assert_eq!(best.lines().count(), 61); // header + 60 records
    }

    #[test]
    fn nsga_job_spec_reruns_identically() {
        // the echoed `job:` line is re-runnable and reproduces the artifacts
        let out = tmp_dir("nsga_spec_a");
        let out2 = tmp_dir("nsga_spec_b");
        run(&args(&[
            "--dataset",
            "flare",
            "--records",
            "60",
            "--mode",
            "nsga",
            "--iters",
            "3",
            "--seed",
            "9",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "--job",
            "dataset=flare suite=small mode=nsga gens=3 seed=9 records=60",
            "--out",
            out2.to_str().unwrap(),
        ]))
        .unwrap();
        for file in ["front.csv", "hypervolume.csv", "best.csv"] {
            assert_eq!(
                std::fs::read_to_string(out.join(file)).unwrap(),
                std::fs::read_to_string(out2.join(file)).unwrap(),
                "{file} must be bit-identical"
            );
        }
    }

    #[test]
    fn snapshot_cache_flags_are_unknown() {
        let out = tmp_dir("cache_flags");
        let err = run(&args(&[
            "--dataset",
            "adult",
            "--records",
            "40",
            "--iters",
            "2",
            "--cache-cap",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(
            err.to_string().contains("unknown flag --cache-cap"),
            "{err}"
        );
    }

    #[test]
    fn cross_mode_flags_rejected_with_mode_named() {
        let out = tmp_dir("cross");
        for (flags, needle) in [
            (vec!["--mode", "nsga", "--fitness", "max"], "--fitness"),
            (vec!["--mode", "nsga", "--drop", "0.05"], "--drop"),
            (vec!["--offspring", "4"], "--offspring"),
            (vec!["--xprob", "0.7"], "--xprob"),
        ] {
            let mut tokens = vec!["--dataset", "adult", "--out", out.to_str().unwrap()];
            tokens.extend(flags);
            let err = run(&args(&tokens)).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
        // --mode belongs inside a --job spec
        let err = run(&args(&[
            "--job",
            "dataset=adult",
            "--mode",
            "nsga",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--job spec"));
    }

    #[test]
    fn flags_the_source_mode_ignores_are_rejected_by_name() {
        let dir = tmp_dir("ignored");
        let input = dir.join("input.csv");
        std::fs::write(&input, "X,Y\na,p\nb,q\na,q\nb,p\n").unwrap();
        let out = dir.to_str().unwrap();
        let dataset = ["--dataset", "adult", "--records", "40"];
        let input_mode = ["--input", input.to_str().unwrap()];
        let job = ["--job", "dataset=adult records=40 iters=5"];
        for (source, extra, flag) in [
            (&dataset[..], &["--methods", "pram:0.5"][..], "--methods"),
            (&dataset, &["--copies", "9"], "--copies"),
            (&dataset, &["--attrs", "AGE"], "--attrs"),
            (&dataset, &["--schema", "s.txt"], "--schema"),
            (&input_mode, &["--records", "40"], "--records"),
            (&input_mode, &["--suite", "paper"], "--suite"),
            (&job, &["--iters", "5"], "--iters"),
            (&job, &["--seed", "3"], "--seed"),
            (&job, &["--records", "40"], "--records"),
            (&job, &["--suite", "paper"], "--suite"),
            (&job, &["--offspring", "4"], "--offspring"),
            (&job, &["--methods", "pram:0.5"], "--methods"),
        ] {
            let mut tokens = vec!["--out", out];
            tokens.extend(source);
            tokens.extend(extra);
            let err = run(&args(&tokens)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{flag}: {err}");
            assert!(err.to_string().contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn mutually_exclusive_inputs_rejected() {
        let out = tmp_dir("bad");
        let err = run(&args(&[
            "--dataset",
            "adult",
            "--input",
            "x.csv",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        let err2 = run(&args(&["--out", out.to_str().unwrap()])).unwrap_err();
        assert!(err2.to_string().contains("required"));
    }

    #[test]
    fn unknown_mode_and_fitness_rejected() {
        let out = tmp_dir("flags");
        for (flag, value) in [("mode", "annealing"), ("fitness", "min")] {
            let err = run(&args(&[
                "--dataset",
                "adult",
                "--records",
                "40",
                "--iters",
                "2",
                &format!("--{flag}"),
                value,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap_err();
            assert!(err.to_string().contains(value), "--{flag} {value}");
        }
    }
}
