#![warn(missing_docs)]

//! # cdp-core
//!
//! The paper's contribution: a post-masking **evolutionary algorithm** that
//! optimizes populations of protected categorical files against a fitness
//! combining information loss and disclosure risk (Marés & Torra,
//! PAIS/EDBT 2012, Algorithm 1).
//!
//! * **Genotype** — a whole protected file; no encoding. We store the
//!   protected columns only ([`cdp_dataset::SubTable`]), since operators and
//!   measures never touch the rest (DESIGN.md §4.7).
//! * **Mutation** — pick one cell at random, replace it with a random
//!   *valid* category of its attribute ([`operators::mutate`]).
//! * **Crossover** — 2-point crossover on the flattened value sequence
//!   ([`operators::crossover`]).
//! * **Selection** — score-proportional for mutation; for crossover one
//!   parent comes uniformly from the `Nb`-best leader group and the other
//!   proportionally from the whole population ([`SelectionWeighting`]
//!   resolves the paper's Eq. 3 ambiguity, see DESIGN.md §4.1).
//! * **Replacement** — parent/offspring elitism for mutation and
//!   Deterministic Crowding for crossover ([`ReplacementPolicy`]).
//!
//! ```
//! use cdp_core::{EvoConfig, Evolution};
//! use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
//! use cdp_metrics::{Evaluator, MetricConfig, ScoreAggregator};
//! use cdp_sdc::{build_population, SuiteConfig};
//!
//! let ds = DatasetKind::Flare.generate(&GeneratorConfig::seeded(3).with_records(80));
//! let pop = build_population(&ds, &SuiteConfig::small(), 3).unwrap();
//! let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
//! let cfg = EvoConfig::builder()
//!     .iterations(30)
//!     .aggregator(ScoreAggregator::Max)
//!     .seed(3)
//!     .build();
//! let outcome = Evolution::new(ev, cfg).with_named_population(pop).unwrap().run();
//! assert!(outcome.summary().final_mean <= outcome.summary().initial_mean);
//! ```

mod adaptive;
mod algorithm;
mod archive;
mod config;
mod error;
mod individual;
mod population;
mod replacement;
mod selection;
mod stop;
mod telemetry;

pub mod clock;
pub mod islands;
pub mod nsga;
pub mod operators;
pub mod parallel;

pub use adaptive::{OperatorSchedule, OperatorStats};
pub use algorithm::{Evolution, EvolutionOutcome, ScoreSummary};
pub use archive::ParetoArchive;
pub use cdp_metrics::{ObjectiveSet, ObjectiveVector};
pub use config::{EvoConfig, EvoConfigBuilder, IslandConfig};
pub use error::{EvoError, Result};
pub use individual::Individual;
pub use islands::{IslandEvent, IslandModel, IslandTiming};
pub use nsga::{FrontStats, Nsga2, NsgaConfig, NsgaOutcome};
pub use operators::OperatorKind;
pub use parallel::{evaluate_all, evaluate_tasks, EvalTask};
pub use population::Population;
pub use replacement::ReplacementPolicy;
pub use selection::SelectionWeighting;
pub use stop::StopCondition;
pub use telemetry::{EvalCounts, GenerationStats, ScatterPoint, Trace};
