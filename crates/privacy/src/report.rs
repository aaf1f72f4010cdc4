//! One-call privacy audit of a masked file: every model and risk figure in
//! this crate, formatted the way an agency reviewer would read them.

use std::fmt;

use cdp_dataset::{Attribute, Code, SubTable};

use crate::models::{k_anonymity, l_diversity, t_closeness, KAnonymity, LDiversity, TCloseness};
use crate::partition::{index_rows, Partition};
use crate::risk::{journalist_risk_of, prosecutor_risk, JournalistRisk, ProsecutorRisk};
use crate::Result;

/// A complete privacy audit of one masked file.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyReport {
    /// k-anonymity profile over the masked quasi-identifiers.
    pub k_anonymity: KAnonymity,
    /// Prosecutor-scenario risk.
    pub prosecutor: ProsecutorRisk,
    /// Journalist-scenario risk against the original file, when provided.
    pub journalist: Option<JournalistRisk>,
    /// l-diversity and t-closeness per audited sensitive attribute,
    /// by attribute name.
    pub sensitive: Vec<SensitiveAudit>,
    /// Differential-privacy budget the masking was calibrated to, when
    /// the protection is an ε-calibrated PRAM (`None` otherwise — the
    /// audit itself cannot derive a budget from the masked file alone).
    pub epsilon: Option<f64>,
}

/// Diversity/closeness figures for one sensitive attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitiveAudit {
    /// Sensitive attribute name.
    pub attribute: String,
    /// l-diversity figures.
    pub l_diversity: LDiversity,
    /// t-closeness figure.
    pub t_closeness: TCloseness,
}

/// Audit a masked file.
///
/// * `masked` — the published quasi-identifier columns.
/// * `original` — the source file's same columns, for journalist risk;
///   pass `None` when the intruder's population register is unavailable.
/// * `sensitive` — `(attribute, column)` pairs of *unpublished-QI* sensitive
///   attributes to audit for diversity within the masked classes.
///
/// # Errors
/// Propagates shape errors from the underlying models.
pub fn audit(
    masked: &SubTable,
    original: Option<&SubTable>,
    sensitive: &[(&Attribute, &[Code])],
) -> Result<PrivacyReport> {
    // the masked file is indexed once, for its classes and its journalist
    // risk alike
    let patterns = index_rows(masked)?;
    let partition = Partition::of_patterns(&patterns);
    let mut audits = Vec::with_capacity(sensitive.len());
    for (attr, column) in sensitive {
        audits.push(SensitiveAudit {
            attribute: attr.name().to_string(),
            l_diversity: l_diversity(&partition, column, attr.n_categories())?,
            t_closeness: t_closeness(&partition, column, attr)?,
        });
    }
    Ok(PrivacyReport {
        k_anonymity: k_anonymity(&partition),
        prosecutor: prosecutor_risk(&partition),
        journalist: original
            .map(|orig| journalist_risk_of(&patterns, orig))
            .transpose()?,
        sensitive: audits,
        epsilon: None,
    })
}

impl fmt::Display for PrivacyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ka = &self.k_anonymity;
        writeln!(f, "privacy audit")?;
        writeln!(
            f,
            "  k-anonymity        k={} classes={} singletons={} mean-class={:.2}",
            ka.k, ka.n_classes, ka.singletons, ka.mean_class_size
        )?;
        let pr = &self.prosecutor;
        writeln!(
            f,
            "  prosecutor risk    max={:.3} mean={:.3} high-risk={:.1}% E[reident]={:.0}",
            pr.max,
            pr.mean,
            pr.high_risk_fraction * 100.0,
            pr.expected_reidentifications
        )?;
        if let Some(jr) = &self.journalist {
            writeln!(
                f,
                "  journalist risk    max={:.3} mean={:.3} orphans={:.1}%",
                jr.max,
                jr.mean,
                jr.orphan_fraction * 100.0
            )?;
        }
        for s in &self.sensitive {
            writeln!(
                f,
                "  sensitive `{}`    distinct-l={} entropy-l={:.2} t={:.3}",
                s.attribute, s.l_diversity.distinct_l, s.l_diversity.entropy_l, s.t_closeness.t
            )?;
        }
        if let Some(eps) = self.epsilon {
            writeln!(f, "  dp budget          eps={eps:.3} (calibrated PRAM)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::{Attribute, Schema, SubTable};
    use std::sync::Arc;

    fn sub(columns: Vec<Vec<Code>>) -> SubTable {
        let attrs = (0..columns.len())
            .map(|i| Attribute::nominal(format!("Q{i}"), 8))
            .collect();
        let schema = Arc::new(Schema::new(attrs).unwrap());
        SubTable::new(schema, (0..columns.len()).collect(), columns).unwrap()
    }

    #[test]
    fn audit_assembles_all_sections() {
        let masked = sub(vec![vec![0, 0, 1, 1, 1, 2]]);
        let original = sub(vec![vec![0, 0, 1, 1, 2, 2]]);
        let sens_attr = Attribute::nominal("DIAG", 3);
        let sens_col: Vec<Code> = vec![0, 1, 0, 1, 2, 0];
        let report = audit(
            &masked,
            Some(&original),
            &[(&sens_attr, sens_col.as_slice())],
        )
        .unwrap();
        assert_eq!(report.k_anonymity.k, 1);
        assert!(report.journalist.is_some());
        assert_eq!(report.sensitive.len(), 1);
        assert_eq!(report.sensitive[0].attribute, "DIAG");
        // the singleton class forces distinct-l = 1
        assert_eq!(report.sensitive[0].l_diversity.distinct_l, 1);
    }

    #[test]
    fn audit_without_population_or_sensitive() {
        let masked = sub(vec![vec![0, 0, 1, 1]]);
        let report = audit(&masked, None, &[]).unwrap();
        assert!(report.journalist.is_none());
        assert!(report.sensitive.is_empty());
        assert_eq!(report.k_anonymity.k, 2);
    }

    #[test]
    fn display_contains_every_section() {
        let masked = sub(vec![vec![0, 0, 1, 1]]);
        let original = masked.clone();
        let sens_attr = Attribute::ordinal("INCOME", 4);
        let sens_col: Vec<Code> = vec![0, 1, 2, 3];
        let report = audit(
            &masked,
            Some(&original),
            &[(&sens_attr, sens_col.as_slice())],
        )
        .unwrap();
        let text = report.to_string();
        assert!(text.contains("k-anonymity"));
        assert!(text.contains("prosecutor risk"));
        assert!(text.contains("journalist risk"));
        assert!(text.contains("INCOME"));
    }

    #[test]
    fn epsilon_is_reported_when_set() {
        let masked = sub(vec![vec![0, 0, 1, 1]]);
        let mut report = audit(&masked, None, &[]).unwrap();
        assert_eq!(report.epsilon, None);
        assert!(!report.to_string().contains("dp budget"));
        report.epsilon = Some(1.25);
        assert!(report.to_string().contains("eps=1.250"));
    }

    #[test]
    fn audit_shape_error_propagates() {
        let masked = sub(vec![vec![0, 0, 1, 1]]);
        let sens_attr = Attribute::nominal("S", 2);
        let short: Vec<Code> = vec![0, 1]; // wrong length
        assert!(audit(&masked, None, &[(&sens_attr, short.as_slice())]).is_err());
    }
}
