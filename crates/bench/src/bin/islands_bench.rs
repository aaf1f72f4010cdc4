//! Island-model sweep: the scalar evolution at K ∈ {1, 2, 4, 8} islands
//! on one shared evaluation budget, written as `BENCH_islands.json`.
//!
//! Two timings per K:
//!
//! * **wall_ms** — elapsed time of the run as observed on this machine.
//!   Each epoch runs the K islands as executor tasks on at most as many
//!   threads as there are cores; with fewer than K cores the islands
//!   take turns, so wall does *not* show the whole parallel win. K = 1
//!   runs its offspring batches on the executor instead.
//! * **critical_path_ms** — the sum over migration epochs of the busiest
//!   island's compute time: the wall time a machine with ≥ K free cores
//!   would see. The speedup column is computed on this, and the JSON
//!   records `threads_available` so the reader can judge which of the two
//!   timings is the honest one for their hardware.
//!
//! The sweep also re-runs the largest K twice and cross-checks the winner
//! bit-for-bit (`determinism_repeat_ok`) — the scheduler's contract is
//! identical output for identical (seed, K, M) regardless of thread
//! interleaving.
//!
//! ```text
//! cargo run --release -p cdp_bench --bin islands_bench -- \
//!     [--quick] [--out PATH] [--seed S]
//! ```
//!
//! `--quick` shrinks records/budget/K-ladder for CI smoke runs (~seconds).

use std::fmt::Write as _;
use std::path::PathBuf;

use cdp_core::{EvoConfig, EvolutionOutcome, IslandEvent, IslandModel, IslandTiming};
use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_metrics::{Evaluator, MetricConfig};
use cdp_sdc::{build_population, SuiteConfig};

struct Args {
    quick: bool,
    out: PathBuf,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: PathBuf::from("BENCH_islands.json"),
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = it.next().map(PathBuf::from).unwrap_or(args.out),
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.seed),
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(1);
            }
        }
    }
    args
}

struct SweepRow {
    islands: usize,
    timing: IslandTiming,
    migrations: usize,
    emigrants: usize,
    outcome: EvolutionOutcome,
}

fn sweep_run(
    kind: DatasetKind,
    records: usize,
    iterations: usize,
    paper_suite: bool,
    islands: usize,
    seed: u64,
) -> SweepRow {
    let ds = kind.generate(&GeneratorConfig::seeded(seed).with_records(records));
    let suite = if paper_suite {
        SuiteConfig::paper(kind)
    } else {
        SuiteConfig::small()
    };
    let pop = build_population(&ds, &suite, seed).expect("suite");
    let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).expect("evaluator");
    let cfg = EvoConfig::builder()
        .iterations(iterations)
        .islands(islands)
        .seed(seed)
        .build();
    let mut migrations = 0usize;
    let mut emigrants = 0usize;
    let (outcome, timing) = IslandModel::scalar(ev, cfg)
        .with_named_population(pop)
        .expect("compatible population")
        .run_with_timing(|event| {
            if let IslandEvent::Migration {
                emigrants: moved, ..
            } = event
            {
                migrations += 1;
                emigrants += moved;
            }
        });
    SweepRow {
        islands,
        timing,
        migrations,
        emigrants,
        outcome,
    }
}

fn main() {
    let args = parse_args();
    let (kind, records, iterations, paper_suite, ladder): (_, _, _, _, &[usize]) = if args.quick {
        (DatasetKind::Adult, 300, 80, false, &[1, 2, 4])
    } else {
        (DatasetKind::Adult, 1000, 250, true, &[1, 2, 4, 8])
    };

    let mut rows = Vec::new();
    for &k in ladder {
        eprintln!("islands: K = {k} …");
        rows.push(sweep_run(
            kind,
            records,
            iterations,
            paper_suite,
            k,
            args.seed,
        ));
    }

    // determinism cross-check: the largest K, re-run from scratch, must
    // publish the bit-identical winner and eval counts
    let &k_max = ladder.last().expect("non-empty ladder");
    eprintln!("determinism: K = {k_max} repeat …");
    let repeat = sweep_run(kind, records, iterations, paper_suite, k_max, args.seed);
    let baseline = rows.last().expect("swept");
    let determinism_ok = {
        let (a, b) = (baseline.outcome.final_best(), repeat.outcome.final_best());
        a.il == b.il
            && a.dr == b.dr
            && a.score == b.score
            && baseline.outcome.eval_counts == repeat.outcome.eval_counts
            && baseline.migrations == repeat.migrations
    };

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let base_cp = rows[0].timing.critical_path.as_secs_f64().max(1e-12);
    let base_wall = rows[0].timing.wall.as_secs_f64().max(1e-12);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"quick\": {},", args.quick);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(
        json,
        "  \"dataset\": \"{}\", \"records\": {records}, \"iterations\": {iterations}, \
         \"suite\": \"{}\",",
        kind.name(),
        if paper_suite { "paper" } else { "small" }
    );
    let _ = writeln!(json, "  \"threads_available\": {threads},");
    let _ = writeln!(
        json,
        "  \"note\": \"iterations is the total budget, split across islands; \
         speedup_critical_path is the projected speedup on >= K free cores \
         (sum over epochs of the busiest island), speedup_wall is what this \
         machine actually observed — on {threads} thread(s) the two diverge \
         and wall is the honest local number\","
    );
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let best = row.outcome.final_best();
        let _ = writeln!(
            json,
            "    {{\"islands\": {}, \"wall_ms\": {:.1}, \"critical_path_ms\": {:.1}, \
             \"speedup_wall\": {:.2}, \"speedup_critical_path\": {:.2}, \
             \"migrations\": {}, \"emigrants\": {}, \
             \"assess_full\": {}, \"assess_incremental\": {}, \
             \"best_il\": {:.4}, \"best_dr\": {:.4}, \"best_score\": {:.4}}}{comma}",
            row.islands,
            row.timing.wall.as_secs_f64() * 1e3,
            row.timing.critical_path.as_secs_f64() * 1e3,
            base_wall / row.timing.wall.as_secs_f64().max(1e-12),
            base_cp / row.timing.critical_path.as_secs_f64().max(1e-12),
            row.migrations,
            row.emigrants,
            row.outcome.eval_counts.full,
            row.outcome.eval_counts.incremental,
            best.il,
            best.dr,
            best.score,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"determinism_repeat_ok\": {determinism_ok}");
    let _ = writeln!(json, "}}");

    if let Some(parent) = args.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write BENCH_islands.json");
    print!("{json}");
    eprintln!("wrote {}", args.out.display());

    if !determinism_ok {
        eprintln!(
            "DETERMINISM CHECK FAILED: two K={k_max} runs with the same seed \
             published different winners"
        );
        std::process::exit(1);
    }
}
