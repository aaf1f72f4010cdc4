//! CLI error type: wraps every workspace error plus usage mistakes.

use std::fmt;

/// Anything that can abort a CLI command.
#[derive(Debug)]
pub enum CliError {
    /// Wrong flags/arguments; the message is printed with the usage text.
    Usage(String),
    /// Dataset-layer failure (CSV parse, schema mismatch, …).
    Dataset(cdp_dataset::DatasetError),
    /// Protection-method failure.
    Sdc(cdp_sdc::SdcError),
    /// Measure/evaluator failure.
    Metric(cdp_metrics::MetricError),
    /// Privacy-model failure.
    Privacy(cdp_privacy::PrivacyError),
    /// Evolution failure.
    Evo(cdp_core::EvoError),
    /// Pipeline-job failure (invalid job description or staged execution).
    Pipeline(cdp::pipeline::PipelineError),
    /// Protection-server failure (`cdp serve`): a broken wire exchange or
    /// a failed smoke-mode contract.
    Server(String),
    /// Filesystem failure outside the dataset layer.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Dataset(e) => write!(f, "{e}"),
            CliError::Sdc(e) => write!(f, "{e}"),
            CliError::Metric(e) => write!(f, "{e}"),
            CliError::Privacy(e) => write!(f, "{e}"),
            CliError::Evo(e) => write!(f, "{e}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::Server(msg) => write!(f, "server error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(_) => None,
            CliError::Dataset(e) => Some(e),
            CliError::Sdc(e) => Some(e),
            CliError::Metric(e) => Some(e),
            CliError::Privacy(e) => Some(e),
            CliError::Evo(e) => Some(e),
            CliError::Pipeline(e) => Some(e),
            CliError::Server(_) => None,
            CliError::Io(e) => Some(e),
        }
    }
}

impl From<cdp_dataset::DatasetError> for CliError {
    fn from(e: cdp_dataset::DatasetError) -> Self {
        CliError::Dataset(e)
    }
}
impl From<cdp_sdc::SdcError> for CliError {
    fn from(e: cdp_sdc::SdcError) -> Self {
        CliError::Sdc(e)
    }
}
impl From<cdp_metrics::MetricError> for CliError {
    fn from(e: cdp_metrics::MetricError) -> Self {
        CliError::Metric(e)
    }
}
impl From<cdp_privacy::PrivacyError> for CliError {
    fn from(e: cdp_privacy::PrivacyError) -> Self {
        CliError::Privacy(e)
    }
}
impl From<cdp_core::EvoError> for CliError {
    fn from(e: cdp_core::EvoError) -> Self {
        CliError::Evo(e)
    }
}
impl From<cdp::pipeline::PipelineError> for CliError {
    fn from(e: cdp::pipeline::PipelineError) -> Self {
        // surface invalid-job descriptions as usage errors (they almost
        // always stem from flag values)
        match e {
            cdp::pipeline::PipelineError::InvalidJob(msg) => CliError::Usage(msg),
            other => CliError::Pipeline(other),
        }
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// CLI result alias.
pub type Result<T> = std::result::Result<T, CliError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_error_displays_message() {
        let e = CliError::Usage("missing --input".into());
        assert!(e.to_string().contains("missing --input"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn wrapped_errors_are_chained() {
        let e = CliError::from(cdp_dataset::DatasetError::Empty("x".into()));
        assert!(std::error::Error::source(&e).is_some());
    }
}
