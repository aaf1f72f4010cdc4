//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce [--records N] [--iters N] [--seed S] [--out DIR] <target>...
//!
//! targets:
//!   fig1 .. fig20     one figure (CSV + ASCII plot under --out)
//!   timing            the in-text generation-cost table
//!   summary-eq1       §3.1 improvement table (mean fitness)
//!   summary-eq2       §3.2 improvement table (max fitness)
//!   summary-robust    §3.3 robustness gaps
//!   ext-kanon         extension: GA vs optimal lattice k-anonymization
//!   ext-pareto        extension: scalar fitness vs NSGA-II hypervolume
//!   all               everything above
//! ```
//!
//! Defaults reproduce the paper scale (1000/1066 records, 1000 iterations);
//! pass `--records 200 --iters 100` for a quick smoke run.

use std::path::PathBuf;
use std::process::ExitCode;

use cdp_bench::{
    figure_spec, kanon_comparison, markdown_table, measure_timing, pareto_comparison, write_csv,
    ExperimentConfig, Harness, SummaryRow, ALL_FIGURES,
};
use cdp_dataset::generators::DatasetKind;
use cdp_metrics::ScoreAggregator;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: reproduce [--records N] [--iters N] [--seed S] [--out DIR] \
                 <fig1..fig20|timing|summary-eq1|summary-eq2|summary-robust|\
                 ext-kanon|ext-pareto|all>..."
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut cfg = ExperimentConfig::default();
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--records" => {
                cfg.records = Some(parse(it.next(), "--records")?);
            }
            "--iters" => {
                cfg.iterations = parse(it.next(), "--iters")?;
            }
            "--seed" => {
                cfg.seed = parse(it.next(), "--seed")?;
            }
            "--out" => {
                cfg.out_dir = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        return Err("no targets given".into());
    }
    if targets.iter().any(|t| t == "all") {
        targets = ALL_FIGURES
            .iter()
            .map(|id| format!("fig{id}"))
            .chain(
                [
                    "timing",
                    "summary-eq1",
                    "summary-eq2",
                    "summary-robust",
                    "ext-kanon",
                    "ext-pareto",
                ]
                .iter()
                .map(|s| s.to_string()),
            )
            .collect();
    }

    let out_dir = cfg.out_dir.clone();
    let records = cfg.records;
    let seed = cfg.seed;
    let mut harness = Harness::new(cfg);
    let mut summary_md = String::new();

    for target in targets {
        if let Some(id) = target
            .strip_prefix("fig")
            .and_then(|s| s.parse::<u8>().ok())
        {
            if figure_spec(id).is_none() {
                return Err(format!("unknown figure id {id}"));
            }
            let fig = harness.figure(id).map_err(|e| e.to_string())?;
            println!("{}", fig.plot);
            println!("  -> {}", fig.csv_path.display());
            continue;
        }
        match target.as_str() {
            "timing" => {
                println!("measuring generation cost decomposition (Adult)...");
                let t = measure_timing(DatasetKind::Adult, records, 200, seed);
                let md = t.to_markdown();
                println!("{md}");
                summary_md.push_str("## Timing table\n\n");
                summary_md.push_str(&md);
                summary_md.push('\n');
            }
            "summary-eq1" | "summary-eq2" => {
                let agg = if target.ends_with("1") {
                    ScoreAggregator::Mean
                } else {
                    ScoreAggregator::Max
                };
                let rows = harness.summary(agg);
                let md = summary_markdown(&rows);
                println!("Improvement summary, fitness = {}:", agg.name());
                println!("{md}");
                summary_md.push_str(&format!("## Summary ({})\n\n", agg.name()));
                summary_md.push_str(&md);
                summary_md.push('\n');
            }
            "summary-robust" => {
                let r = harness.robustness();
                let md = markdown_table(
                    &["population", "final min score", "gap to full"],
                    &[
                        vec!["full".into(), format!("{:.2}", r.full_min), "—".into()],
                        vec![
                            "best 5% removed".into(),
                            format!("{:.2}", r.drop5_min),
                            format!("{:+.2} (paper: +1.33)", r.gap5()),
                        ],
                        vec![
                            "best 10% removed".into(),
                            format!("{:.2}", r.drop10_min),
                            format!("{:+.2} (paper: +1.08)", r.gap10()),
                        ],
                    ],
                );
                println!("Robustness (Flare, Eq. 2):");
                println!("{md}");
                summary_md.push_str("## Robustness (Flare, Eq. 2)\n\n");
                summary_md.push_str(&md);
                summary_md.push('\n');
            }
            "ext-kanon" => {
                println!("extension: GA vs optimal lattice k-anonymization (Adult)...");
                let cmp = kanon_comparison(&mut harness, DatasetKind::Adult, &[2, 3, 5, 10]);
                let md = cmp.to_markdown();
                println!("{md}");
                let rows: Vec<Vec<String>> = cmp
                    .rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.label.clone(),
                            format!("{:.4}", r.il),
                            format!("{:.4}", r.dr),
                            format!("{:.4}", r.score_max),
                            r.achieved_k.to_string(),
                        ]
                    })
                    .collect();
                std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
                write_csv(
                    out_dir.join("ext_kanon.csv"),
                    &["contender", "il", "dr", "score_max", "k"],
                    &rows,
                )
                .map_err(|e| e.to_string())?;
                summary_md.push_str("## Extension: GA vs lattice k-anonymization (Adult)\n\n");
                summary_md.push_str(&md);
                summary_md.push('\n');
            }
            "ext-pareto" => {
                println!("extension: scalar fitness vs NSGA-II (German)...");
                let cmp = pareto_comparison(&mut harness, DatasetKind::German);
                let md = cmp.to_markdown();
                println!("{md}");
                let rows: Vec<Vec<String>> = cmp
                    .nsga_front
                    .iter()
                    .map(|p| {
                        vec![
                            p.name.clone(),
                            format!("{:.4}", p.il),
                            format!("{:.4}", p.dr),
                        ]
                    })
                    .collect();
                std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
                write_csv(
                    out_dir.join("ext_pareto_front.csv"),
                    &["protection", "il", "dr"],
                    &rows,
                )
                .map_err(|e| e.to_string())?;
                summary_md.push_str("## Extension: scalar vs NSGA-II (German)\n\n");
                summary_md.push_str(&md);
                summary_md.push('\n');
            }
            other => return Err(format!("unknown target `{other}`")),
        }
    }

    if !summary_md.is_empty() {
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let path = out_dir.join("summaries.md");
        // append so sequential invocations of different targets accumulate
        // into one report; delete the file to start fresh
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| e.to_string())?;
        f.write_all(summary_md.as_bytes())
            .map_err(|e| e.to_string())?;
        println!("summaries appended to {}", path.display());
    }
    Ok(())
}

fn summary_markdown(rows: &[SummaryRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let s = row.summary;
            vec![
                row.dataset.name().to_string(),
                format!(
                    "{:.2} -> {:.2} ({:.2}%)",
                    s.initial_max,
                    s.final_max,
                    s.improvement_max()
                ),
                format!(
                    "{:.2} -> {:.2} ({:.2}%)",
                    s.initial_mean,
                    s.final_mean,
                    s.improvement_mean()
                ),
                format!(
                    "{:.2} -> {:.2} ({:.2}%)",
                    s.initial_min,
                    s.final_min,
                    s.improvement_min()
                ),
            ]
        })
        .collect();
    markdown_table(&["dataset", "max score", "mean score", "min score"], &body)
}

fn parse<T: std::str::FromStr>(v: Option<String>, flag: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("invalid value for {flag}"))
}
