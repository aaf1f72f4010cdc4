//! Post Randomization Method — PRAM (Gouweleeuw et al. 1998).
//!
//! Every cell is re-sampled through a per-attribute Markov transition
//! matrix `P`, where `P[k][l]` is the probability that category `k` is
//! published as category `l`. The retention probability `θ = P[k][k]`
//! controls the protection strength. Three matrix constructions are
//! provided:
//!
//! * [`PramMode::Uniform`] — off-diagonal mass spread evenly;
//! * [`PramMode::Proportional`] — off-diagonal mass proportional to the
//!   target categories' empirical frequencies (rare categories are rarely
//!   introduced, preserving plausibility);
//! * [`PramMode::Invariant`] — the invariant construction `T = R·Q` with
//!   `Q` the Bayes reversal of the uniform matrix `R`, so the expected
//!   marginal distribution of the published file equals the original one
//!   (`p·T = p`).
//!
//! Instead of a fixed retention probability, the matrix can be calibrated
//! to a differential-privacy budget ([`Pram::epsilon_calibrated`]): the
//! per-attribute retention becomes `θ_k = e^ε / (e^ε + K_k − 1)` — the
//! ε-LDP randomized-response rate for an attribute with `K_k` categories
//! (information-theoretic PRAM under DP, after arXiv 2009.11257) — so one
//! ε yields a stronger retention on wide attributes and a weaker one on
//! narrow attributes, exactly matching the budget each channel affords.

use cdp_dataset::sample::weighted_index;
use cdp_dataset::{Code, SubTable};
use rand::RngCore;

use crate::method::{MethodContext, MethodFamily, ProtectionMethod};
use crate::order::category_frequencies;
use crate::{Result, SdcError};

/// Transition-matrix construction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PramMode {
    /// `P[k][l] = (1-θ)/(K-1)` off the diagonal.
    Uniform,
    /// Off-diagonal mass proportional to target frequency.
    Proportional,
    /// Marginal-preserving invariant matrix.
    Invariant,
}

impl PramMode {
    fn tag(self) -> &'static str {
        match self {
            PramMode::Uniform => "unif",
            PramMode::Proportional => "prop",
            PramMode::Invariant => "inv",
        }
    }
}

/// PRAM with retention probability `theta` applied independently per cell.
#[derive(Debug, Clone, Copy)]
pub struct Pram {
    /// Diagonal retention probability, in `(0, 1]`. Ignored when
    /// `epsilon` is set — the retention is then derived per attribute.
    pub theta: f64,
    /// Matrix construction.
    pub mode: PramMode,
    /// Differential-privacy budget; when set, the per-attribute retention
    /// is `θ_k = e^ε / (e^ε + K_k − 1)` instead of the fixed `theta`.
    pub epsilon: Option<f64>,
}

impl Pram {
    /// Convenience constructor.
    pub fn new(theta: f64, mode: PramMode) -> Self {
        Pram {
            theta,
            mode,
            epsilon: None,
        }
    }

    /// ε-calibrated invariant PRAM: retention derived per attribute from
    /// the DP budget (`θ_k = e^ε / (e^ε + K_k − 1)`), with the
    /// marginal-preserving [`PramMode::Invariant`] matrix on top.
    pub fn epsilon_calibrated(epsilon: f64) -> Self {
        Pram {
            theta: 0.0,
            mode: PramMode::Invariant,
            epsilon: Some(epsilon),
        }
    }

    /// The retention probability used for an attribute with `k`
    /// categories: the fixed `theta`, or the ε-derived rate when a budget
    /// is set. Past ε ≈ 709.78, `e^ε` overflows to infinity and the
    /// quotient would be `inf/inf = NaN`; the rate is then its limit 1
    /// (every finite `e^ε` keeps the plain expression, bit for bit).
    pub fn retention_for(&self, k: usize) -> f64 {
        match self.epsilon {
            Some(eps) => {
                let e = eps.exp();
                if e.is_infinite() {
                    1.0
                } else {
                    e / (e + k.saturating_sub(1) as f64)
                }
            }
            None => self.theta,
        }
    }

    /// Build the transition matrix for one attribute given its empirical
    /// category probabilities. Rows sum to 1.
    pub fn transition_matrix(&self, probs: &[f64]) -> Vec<Vec<f64>> {
        let k = probs.len();
        if k == 1 {
            return vec![vec![1.0]];
        }
        let theta = self.retention_for(k);
        match self.mode {
            PramMode::Uniform => {
                let off = (1.0 - theta) / (k - 1) as f64;
                (0..k)
                    .map(|a| (0..k).map(|b| if a == b { theta } else { off }).collect())
                    .collect()
            }
            PramMode::Proportional => (0..k)
                .map(|a| {
                    let rest: f64 = probs
                        .iter()
                        .enumerate()
                        .filter(|&(b, _)| b != a)
                        .map(|(_, &p)| p)
                        .sum();
                    (0..k)
                        .map(|b| {
                            if a == b {
                                theta
                            } else if rest > 0.0 {
                                (1.0 - theta) * probs[b] / rest
                            } else {
                                (1.0 - theta) / (k - 1) as f64
                            }
                        })
                        .collect()
                })
                .collect(),
            PramMode::Invariant => {
                // R: uniform matrix; lambda = p R; Q[m][l] = R[l][m] p[l] / lambda[m];
                // T = R Q satisfies p T = p.
                let r = Pram::new(theta, PramMode::Uniform).transition_matrix(probs);
                let lambda: Vec<f64> = (0..k)
                    .map(|m| (0..k).map(|l| probs[l] * r[l][m]).sum())
                    .collect();
                let q: Vec<Vec<f64>> = (0..k)
                    .map(|m| {
                        (0..k)
                            .map(|l| {
                                if lambda[m] > 0.0 {
                                    r[l][m] * probs[l] / lambda[m]
                                } else if l == m {
                                    1.0
                                } else {
                                    0.0
                                }
                            })
                            .collect()
                    })
                    .collect();
                (0..k)
                    .map(|a| {
                        (0..k)
                            .map(|b| (0..k).map(|m| r[a][m] * q[m][b]).sum())
                            .collect()
                    })
                    .collect()
            }
        }
    }
}

impl ProtectionMethod for Pram {
    fn name(&self) -> String {
        match self.epsilon {
            Some(eps) => format!("pram(eps={:.2},{})", eps, self.mode.tag()),
            None => format!("pram(theta={:.2},{})", self.theta, self.mode.tag()),
        }
    }

    fn family(&self) -> MethodFamily {
        MethodFamily::Pram
    }

    fn protect(
        &self,
        original: &SubTable,
        _ctx: &MethodContext<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<SubTable> {
        match self.epsilon {
            Some(eps) => {
                if !(eps.is_finite() && eps > 0.0) {
                    return Err(SdcError::InvalidParam(format!(
                        "PRAM privacy budget must be a positive finite ε, got {eps}"
                    )));
                }
            }
            None => {
                if !(self.theta > 0.0 && self.theta <= 1.0) {
                    return Err(SdcError::InvalidParam(format!(
                        "PRAM retention probability must lie in (0, 1], got {}",
                        self.theta
                    )));
                }
            }
        }
        let n = original.n_rows();
        let mut columns: Vec<Vec<Code>> = Vec::with_capacity(original.n_attrs());
        for k in 0..original.n_attrs() {
            let attr = original.attr(k);
            let c = attr.n_categories();
            let counts = category_frequencies(original.column(k), c);
            let probs: Vec<f64> = counts.iter().map(|&x| x as f64 / n.max(1) as f64).collect();
            let matrix = self.transition_matrix(&probs);
            let col = original
                .column(k)
                .iter()
                .map(|&v| weighted_index(&matrix[v as usize], rng) as Code)
                .collect();
            columns.push(col);
        }
        Ok(SubTable::new(
            std::sync::Arc::clone(original.schema()),
            original.attr_indices().to_vec(),
            columns,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> SubTable {
        DatasetKind::Flare
            .generate(&GeneratorConfig::seeded(6).with_records(400))
            .protected_subtable()
    }

    fn ctx<'a>(hs: &'a [&'a cdp_dataset::Hierarchy]) -> MethodContext<'a> {
        MethodContext { hierarchies: hs }
    }

    #[test]
    fn rows_of_every_matrix_sum_to_one() {
        let probs = [0.5, 0.3, 0.15, 0.05];
        for mode in [
            PramMode::Uniform,
            PramMode::Proportional,
            PramMode::Invariant,
        ] {
            let m = Pram::new(0.7, mode).transition_matrix(&probs);
            for row in &m {
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "{mode:?}: row sums to {s}");
                assert!(row.iter().all(|&p| p >= -1e-12));
            }
        }
    }

    #[test]
    fn invariant_matrix_preserves_marginals() {
        let probs = [0.5, 0.3, 0.15, 0.05];
        let t = Pram::new(0.6, PramMode::Invariant).transition_matrix(&probs);
        for b in 0..probs.len() {
            let out: f64 = (0..probs.len()).map(|a| probs[a] * t[a][b]).sum();
            assert!(
                (out - probs[b]).abs() < 1e-9,
                "marginal {b}: {out} vs {}",
                probs[b]
            );
        }
    }

    #[test]
    fn theta_one_is_identity() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        let masked = Pram::new(1.0, PramMode::Uniform)
            .protect(&sub, &ctx(&hs), &mut rng)
            .unwrap();
        assert_eq!(sub.hamming(&masked), 0);
    }

    #[test]
    fn lower_theta_distorts_more() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let strong = Pram::new(0.5, PramMode::Proportional)
            .protect(&sub, &ctx(&hs), &mut StdRng::seed_from_u64(2))
            .unwrap();
        let weak = Pram::new(0.95, PramMode::Proportional)
            .protect(&sub, &ctx(&hs), &mut StdRng::seed_from_u64(2))
            .unwrap();
        assert!(sub.hamming(&strong) > sub.hamming(&weak));
    }

    #[test]
    fn retention_rate_matches_theta() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let theta = 0.8;
        let masked = Pram::new(theta, PramMode::Uniform)
            .protect(&sub, &ctx(&hs), &mut StdRng::seed_from_u64(3))
            .unwrap();
        let total = sub.flat_len() as f64;
        let kept = (total as usize - sub.hamming(&masked)) as f64;
        let rate = kept / total;
        assert!(
            (rate - theta).abs() < 0.05,
            "retention {rate} too far from theta {theta}"
        );
    }

    #[test]
    fn invalid_theta_rejected() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Pram::new(0.0, PramMode::Uniform)
            .protect(&sub, &ctx(&hs), &mut rng)
            .is_err());
        assert!(Pram::new(1.5, PramMode::Uniform)
            .protect(&sub, &ctx(&hs), &mut rng)
            .is_err());
    }

    #[test]
    fn single_category_attribute_is_stable() {
        let m = Pram::new(0.5, PramMode::Invariant).transition_matrix(&[1.0]);
        assert_eq!(m, vec![vec![1.0]]);
    }

    #[test]
    fn name_encodes_parameters() {
        assert_eq!(
            Pram::new(0.75, PramMode::Invariant).name(),
            "pram(theta=0.75,inv)"
        );
        assert_eq!(Pram::epsilon_calibrated(1.5).name(), "pram(eps=1.50,inv)");
    }

    #[test]
    fn epsilon_calibration_derives_per_attribute_retention() {
        let pram = Pram::epsilon_calibrated(1.0);
        let e = 1.0f64.exp();
        // K = 2: the classic binary randomized-response rate e/(e+1)
        assert!((pram.retention_for(2) - e / (e + 1.0)).abs() < 1e-12);
        // wider attributes retain less under the same budget
        assert!(pram.retention_for(8) < pram.retention_for(3));
        // a bigger budget retains more at fixed width
        assert!(Pram::epsilon_calibrated(3.0).retention_for(4) > pram.retention_for(4));
        // the matrix row built from the derived rate still sums to 1 and
        // stays marginal-preserving (invariant construction)
        let probs = [0.4, 0.3, 0.2, 0.1];
        let t = pram.transition_matrix(&probs);
        for row in &t {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        for b in 0..probs.len() {
            let out: f64 = (0..probs.len()).map(|a| probs[a] * t[a][b]).sum();
            assert!((out - probs[b]).abs() < 1e-9);
        }
    }

    #[test]
    fn huge_epsilon_budgets_give_finite_stochastic_rows() {
        // e^ε overflows past ε ≈ 709.78; the rate must saturate at 1, not
        // turn into NaN and poison every matrix row
        let probs = [0.4, 0.3, 0.2, 0.1, 0.0];
        for eps in [709.0, 710.0, 1e308, f64::MAX] {
            let pram = Pram::epsilon_calibrated(eps);
            assert!(pram.retention_for(probs.len()) <= 1.0, "ε = {eps}");
            for row in pram.transition_matrix(&probs) {
                assert!(row.iter().all(|p| p.is_finite()), "ε = {eps}: {row:?}");
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "ε = {eps}: row sums to {s}");
            }
        }
    }

    #[test]
    fn epsilon_budget_orders_distortion() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let tight = Pram::epsilon_calibrated(0.5)
            .protect(&sub, &ctx(&hs), &mut StdRng::seed_from_u64(4))
            .unwrap();
        let loose = Pram::epsilon_calibrated(4.0)
            .protect(&sub, &ctx(&hs), &mut StdRng::seed_from_u64(4))
            .unwrap();
        assert!(
            sub.hamming(&tight) > sub.hamming(&loose),
            "a tighter budget must distort more"
        );
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                Pram::epsilon_calibrated(eps)
                    .protect(&sub, &ctx(&hs), &mut rng)
                    .is_err(),
                "ε = {eps} must be rejected"
            );
        }
    }
}
