//! Replacement (§2.4): elitism for mutation, Deterministic Crowding for
//! crossover.
//!
//! For mutation the offspring competes with its parent and the better
//! (lower-score) one survives. For crossover the paper pairs "each newcomer
//! Xjk … with its parent Xik": offspring `Z1` carries parent `X1`'s frame,
//! so each child duels the parent whose frame it carries.

/// The elitist duel: does the offspring (with `child_score`) replace the
/// parent (with `parent_score`)? Ties keep the parent, preventing neutral
/// drift from discarding evaluated history.
pub fn offspring_wins(parent_score: f64, child_score: f64) -> bool {
    child_score < parent_score
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duel_is_strict() {
        assert!(offspring_wins(10.0, 9.9));
        assert!(!offspring_wins(10.0, 10.0));
        assert!(!offspring_wins(10.0, 10.1));
    }
}
