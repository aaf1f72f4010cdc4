#![warn(missing_docs)]

//! # cdp-metrics
//!
//! Information-loss and disclosure-risk measures for categorical microdata,
//! the two halves of the paper's fitness function.
//!
//! **Information loss** (how much analytic utility the masking destroyed):
//! * [`il::ctbil`] — contingency-table-based IL (Torra & Domingo-Ferrer 2001);
//! * [`il::dbil`] — distance-based IL;
//! * [`il::ebil`] — entropy-based IL (Kooiman et al. 1998).
//!
//! **Disclosure risk** (how much an intruder can re-identify):
//! * [`dr::interval_disclosure`] — rank/interval disclosure (Domingo-Ferrer &
//!   Torra 2001);
//! * [`linkage::dbrl`] — distance-based record linkage;
//! * [`linkage::prl`] — probabilistic record linkage (Fellegi–Sunter with EM);
//! * [`linkage::rsrl`] — rank-swapping-aware record linkage (Nin et al. 2008).
//!
//! All seven measures are normalized to `[0, 100]`. The paper aggregates
//! `IL = (CTBIL + DBIL + EBIL) / 3` and `DR = (ID + DBRL + PRL + RSRL) / 4`,
//! then scores an individual by [`ScoreAggregator::Mean`] (Eq. 1) or
//! [`ScoreAggregator::Max`] (Eq. 2).
//!
//! The [`Evaluator`] caches every original-side statistic (ranks, marginals,
//! contingency tables, Fellegi–Sunter weights) so that evaluating one masked
//! file — the dominant cost the paper reports (99.98% of generation time) —
//! touches the original data only through precomputed tables. On top of
//! that, a *delta-evaluation engine* ([`Evaluator::reassess`] /
//! [`Evaluator::reassess_into`]) updates a cached [`EvalState`] after an
//! arbitrary [`Patch`] of cell changes — a mutation's single cell or a
//! crossover's flattened segment — updating IL and interval disclosure
//! exactly and relinking only the touched records, addressing the paper's
//! future-work item on fitness cost (`evaluator_bench` in `cdp_bench`
//! times the patched path against full assessments).
//!
//! Preparing the original is a one-off cost per process: a long-lived
//! session keeps one prepared evaluator per original in memory and hands
//! each job a clone, and every clone shares the prepared state's pattern
//! tables (DBRL links and PRL histograms per masked pattern).
//!
//! ```
//! use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
//! use cdp_metrics::{Evaluator, MetricConfig, ScoreAggregator};
//!
//! let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(100));
//! let original = ds.protected_subtable();
//! let ev = Evaluator::new(&original, MetricConfig::default()).unwrap();
//! // identity masking: no information loss, maximal linkage risk
//! let a = ev.evaluate(&original);
//! assert!(a.il() < 1e-9);
//! assert!(a.dr() > 50.0);
//! assert_eq!(a.score(ScoreAggregator::Max), a.dr());
//! ```

mod contingency;
mod error;
mod evaluator;
mod objective;
mod patch;
mod prepared;
mod score;

pub mod dr;
pub mod il;
pub mod linkage;

pub use contingency::ContingencyTables;
pub use error::{MetricError, Result};
pub use evaluator::{Assessment, DrBreakdown, EvalState, Evaluator, IlBreakdown, MetricConfig};
pub use objective::{
    objective_by_key, Objective, ObjectiveContext, ObjectiveSet, ObjectiveVector, MAX_OBJECTIVES,
};
pub use patch::{Patch, PatchCell};
pub use prepared::{MaskedStats, MovedCategory, PreparedOriginal, LINK_TABLE_MAX_SLOTS};
pub use score::ScoreAggregator;
