//! The unified job API: one declarative builder for the paper's whole
//! workflow.
//!
//! The workspace crates expose the pipeline's *pieces* — datasets
//! ([`cdp_dataset`]), SDC masking suites ([`cdp_sdc`]), IL/DR measures
//! ([`cdp_metrics`]), the evolutionary optimizer ([`cdp_core`]) and privacy
//! audits ([`cdp_privacy`]) — but the paper's workflow is one fixed shape:
//! *mask the original with a suite of protections, score them, evolve the
//! population, audit and publish the winner*. This module packages that
//! shape behind three types:
//!
//! * [`ProtectionJob`] — a declarative description of one run: data source,
//!   population recipe, metric configuration, optimizer mode
//!   ([`OptimizerMode`]: the paper's scalar algorithm or NSGA-II over
//!   Pareto dominance), evolution knobs, stop conditions and an optional
//!   privacy audit. Built with [`ProtectionJob::builder`], executed with
//!   [`ProtectionJob::run`].
//! * [`SharedSession`] — an execution context that caches the prepared
//!   original-side statistics ([`cdp_metrics::PreparedOriginal`] inside an
//!   [`cdp_metrics::Evaluator`]), so repeated jobs against the same
//!   original skip re-preparation — scalar and NSGA-II jobs share the one
//!   cache. One session can serve many jobs from many threads (cloneable,
//!   `&self` methods, exactly-once preparation under concurrency) — the
//!   CLI, the bench harness and the `cdp serve` protection server all
//!   drive this cache; [`SessionStats`] are its observability counters.
//!   [`Session`] is another name for the same type.
//! * [`JobReport`] — everything a run produces: the mode-aware
//!   [`JobOutcome`] (scalar [`cdp_core::EvolutionOutcome`] telemetry, or a
//!   Pareto [`Front`] with hypervolume trajectory), the winning protection
//!   with its full IL/DR breakdown (the front's knee point in NSGA-II
//!   mode), and the optional [`cdp_privacy::PrivacyReport`].
//!
//! Progress streams through [`JobEvent`] observers ([`SharedSession::run_with`]),
//! giving interactive consumers one channel for preparation, population,
//! per-generation and front-progress telemetry.
//!
//! ```
//! use cdp::prelude::*;
//!
//! let report = ProtectionJob::builder()
//!     .dataset(DatasetKind::Adult)
//!     .records(100)
//!     .suite_small()
//!     .aggregator(ScoreAggregator::Max)
//!     .iterations(30)
//!     .seed(7)
//!     .audit()
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(report.best.assessment.il() >= 0.0);
//! assert!(report.privacy.is_some());
//! ```

mod job;
mod report;
mod shared;
mod stages;

use std::fmt;

pub use job::{
    AuditSpec, DataSource, OptimizerMode, PopulationSpec, ProtectionJob, ProtectionJobBuilder,
    SourceData, SuiteKind,
};
pub use report::{BestProtection, Front, JobOutcome, JobReport};
pub use shared::{CacheEntryStats, SessionStats, SharedSession};
pub use stages::JobEvent;

/// The job execution context under its short name: the same type as
/// [`SharedSession`].
///
/// ```
/// use cdp::prelude::*;
///
/// let job = ProtectionJob::builder()
///     .dataset(DatasetKind::German)
///     .records(80)
///     .iterations(10)
///     .seed(3)
///     .build()
///     .unwrap();
/// let session = Session::new();
/// session.run(&job).unwrap();
/// session.run(&job).unwrap(); // same original: no second preparation
/// let stats = session.stats();
/// assert_eq!(stats.preparations, 1);
/// assert_eq!(stats.hits, 1);
/// let shared: SharedSession = session.clone(); // one type, one cache
/// assert_eq!(shared.stats(), stats);
/// ```
pub type Session = SharedSession;

/// Everything that can go wrong while describing or executing a job.
#[derive(Debug)]
pub enum PipelineError {
    /// The job description itself is inconsistent (missing source, empty
    /// population, unresolvable attribute names, …).
    InvalidJob(String),
    /// Dataset layer failure (bad indices, I/O, schema mismatch).
    Dataset(cdp_dataset::DatasetError),
    /// A protection method failed while seeding the population.
    Sdc(cdp_sdc::SdcError),
    /// Metric configuration or evaluation failure.
    Metric(cdp_metrics::MetricError),
    /// The evolutionary run rejected its configuration or population.
    Evolution(cdp_core::EvoError),
    /// The privacy audit failed.
    Privacy(cdp_privacy::PrivacyError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidJob(msg) => write!(f, "invalid job: {msg}"),
            PipelineError::Dataset(e) => write!(f, "dataset: {e}"),
            PipelineError::Sdc(e) => write!(f, "protection: {e}"),
            PipelineError::Metric(e) => write!(f, "metrics: {e}"),
            PipelineError::Evolution(e) => write!(f, "evolution: {e}"),
            PipelineError::Privacy(e) => write!(f, "privacy: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::InvalidJob(_) => None,
            PipelineError::Dataset(e) => Some(e),
            PipelineError::Sdc(e) => Some(e),
            PipelineError::Metric(e) => Some(e),
            PipelineError::Evolution(e) => Some(e),
            PipelineError::Privacy(e) => Some(e),
        }
    }
}

impl From<cdp_dataset::DatasetError> for PipelineError {
    fn from(e: cdp_dataset::DatasetError) -> Self {
        PipelineError::Dataset(e)
    }
}

impl From<cdp_sdc::SdcError> for PipelineError {
    fn from(e: cdp_sdc::SdcError) -> Self {
        PipelineError::Sdc(e)
    }
}

impl From<cdp_metrics::MetricError> for PipelineError {
    fn from(e: cdp_metrics::MetricError) -> Self {
        PipelineError::Metric(e)
    }
}

impl From<cdp_core::EvoError> for PipelineError {
    fn from(e: cdp_core::EvoError) -> Self {
        PipelineError::Evolution(e)
    }
}

impl From<cdp_privacy::PrivacyError> for PipelineError {
    fn from(e: cdp_privacy::PrivacyError) -> Self {
        PipelineError::Privacy(e)
    }
}

/// Pipeline result alias.
pub type Result<T> = std::result::Result<T, PipelineError>;
