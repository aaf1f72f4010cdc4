//! Selection (§2.4).
//!
//! The paper's Eq. 3 prints `p(X_i) = Score(X_i) / Σ_j Score(X_j)` while the
//! text states that *better* (lower-score) individuals must be more likely —
//! the literal formula does the opposite under minimization. We weight each
//! individual by `1 / (score + ε)` instead, which matches the described
//! behaviour ("our selection policy gives few opportunities to the
//! individuals with bad score").
//!
//! Crossover draws its first parent uniformly from the leader group `Nb`,
//! the best tenth of the population (at least two members when there are
//! two); the paper leaves `Nb` unspecified.

use rand::Rng;

/// Leader-group size as a fraction of the population.
const LEADER_FRACTION: f64 = 0.1;

/// Draw one index of a population's scores (any non-negative scale),
/// score-proportionally: weight `1 / (score + ε)`, so lower scores are
/// likelier.
pub fn select_proportional<R: Rng + ?Sized>(scores: &[f64], rng: &mut R) -> usize {
    const EPS: f64 = 1e-9;
    let weights: Vec<f64> = scores.iter().map(|&s| 1.0 / (s.max(0.0) + EPS)).collect();
    select_weighted(&weights, rng)
}

/// Draw an index proportionally to `weights`.
fn select_weighted<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    debug_assert!(!weights.is_empty());
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut t = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        t -= w;
        if t <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Leader-group size `Nb = max(2, ⌈n/10⌉)` for a population of `n`,
/// capped at `n`.
pub(crate) fn leader_group(n: usize) -> usize {
    ((n as f64 * LEADER_FRACTION).ceil() as usize).clamp(2.min(n), n.max(1))
}

/// Draw uniformly from the leader group: indices `0..Nb` of a population of
/// `n` sorted ascending by score.
pub(crate) fn select_leader<R: Rng + ?Sized>(n: usize, rng: &mut R) -> usize {
    rng.gen_range(0..leader_group(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn inverse_prefers_low_scores() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = [0usize; 4];
        for _ in 0..4000 {
            c[select_proportional(&[10.0, 20.0, 30.0, 40.0], &mut rng)] += 1;
        }
        assert!(c[0] > c[1] && c[1] > c[2] && c[2] > c[3], "{c:?}");
    }

    #[test]
    fn select_weighted_degenerate_total() {
        let mut rng = StdRng::seed_from_u64(2);
        let idx = select_weighted(&[0.0, 0.0], &mut rng);
        assert!(idx < 2);
    }

    #[test]
    fn leader_group_bounds() {
        assert_eq!(leader_group(110), 11);
        assert_eq!(leader_group(10), 2); // at least 2 when possible
        assert_eq!(leader_group(1), 1);
    }

    #[test]
    fn leader_selection_stays_in_group() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            assert!(select_leader(100, &mut rng) < 10);
        }
        assert!(select_leader(1, &mut rng) < 1);
    }
}
