#![warn(missing_docs)]

//! # cdp-bench
//!
//! Experiment harness regenerating **every table and figure** of the
//! paper's evaluation (§3), and the benchmark binaries that commit the
//! repo's per-layer numbers (`evaluator_bench`, `islands_bench`).
//!
//! * Figures 1–16 — per dataset × fitness function: the initial/final
//!   (IL, DR) dispersion plot and the max/mean/min score evolution.
//! * Figures 17–20 — the Flare robustness experiment with the best 5%/10%
//!   initial protections removed.
//! * The in-text timing table — mutation vs crossover generation cost and
//!   the share spent in the fitness function.
//! * The §3.1/§3.2/§3.3 improvement summaries.
//!
//! Run `cargo run -p cdp_bench --release --bin reproduce -- all` to emit
//! CSVs, ASCII plots and markdown summaries under `results/`. Individual
//! targets: `fig1`…`fig20`, `timing`, `summary-eq1`, `summary-eq2`,
//! `summary-robust`.

mod experiments;
mod extensions;
mod harness;
mod plot;
mod report;
mod timing;

pub use experiments::{figure_spec, FigureKind, FigureSpec, RunSpec, ALL_FIGURES};
pub use extensions::{
    kanon_comparison, pareto_comparison, KanonComparison, KanonRow, ParetoComparison, ParetoRow,
};
pub use harness::{ExperimentConfig, FigureOutput, Harness, RobustnessReport, SummaryRow};
pub use plot::{line_plot, scatter_plot};
pub use report::{markdown_table, write_csv};
pub use timing::{measure_timing, GenerationCost, TimingReport, TimingRow};
