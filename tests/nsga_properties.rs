//! Property-based tests for the NSGA-II primitives: non-dominated sorting,
//! crowding distance, and the 2-D hypervolume indicator.

use cdp::core::nsga::{crowding_distance_vec, hypervolume, non_dominated_sort_vec};
use cdp::core::ObjectiveVector;
use proptest::prelude::*;

fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

fn arb_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40)
}

fn pairs(points: &[(f64, f64)]) -> Vec<ObjectiveVector> {
    points
        .iter()
        .map(|&(il, dr)| ObjectiveVector::pair(il, dr))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fronts_partition_the_points(points in arb_points()) {
        let fronts = non_dominated_sort_vec(&pairs(&points));
        let mut seen: Vec<usize> = fronts.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..points.len()).collect();
        prop_assert_eq!(seen, expected, "every index in exactly one front");
    }

    #[test]
    fn each_front_is_mutually_nondominated(points in arb_points()) {
        let fronts = non_dominated_sort_vec(&pairs(&points));
        for front in &fronts {
            for &i in front {
                for &j in front {
                    prop_assert!(
                        !dominates(points[i], points[j]),
                        "front member {i} dominates member {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn later_front_members_are_dominated_by_the_previous_front(points in arb_points()) {
        let fronts = non_dominated_sort_vec(&pairs(&points));
        for r in 1..fronts.len() {
            for &j in &fronts[r] {
                prop_assert!(
                    fronts[r - 1].iter().any(|&i| dominates(points[i], points[j])),
                    "front {r} member {j} not dominated by front {}",
                    r - 1
                );
            }
        }
    }

    #[test]
    fn front_zero_is_globally_nondominated(points in arb_points()) {
        let fronts = non_dominated_sort_vec(&pairs(&points));
        for &i in &fronts[0] {
            prop_assert!(
                !points.iter().any(|&p| dominates(p, points[i])),
                "front-0 member {i} is dominated"
            );
        }
        // and everything outside front 0 is dominated by something
        for front in fronts.iter().skip(1) {
            for &j in front {
                prop_assert!(points.iter().any(|&p| dominates(p, points[j])));
            }
        }
    }

    #[test]
    fn hypervolume_is_monotone_under_point_addition(
        points in arb_points(),
        extra in (0.0f64..100.0, 0.0f64..100.0),
    ) {
        let reference = (100.0, 100.0);
        let base = hypervolume(&points, reference);
        let mut more = points.clone();
        more.push(extra);
        let grown = hypervolume(&more, reference);
        prop_assert!(grown >= base - 1e-9, "adding a point shrank HV: {base} -> {grown}");
    }

    #[test]
    fn hypervolume_is_order_invariant(points in arb_points(), seed in 0u64..1000) {
        let reference = (100.0, 100.0);
        let base = hypervolume(&points, reference);
        // deterministic pseudo-shuffle
        let mut shuffled = points.clone();
        let n = shuffled.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            shuffled.swap(i, j);
        }
        let after = hypervolume(&shuffled, reference);
        prop_assert!((base - after).abs() < 1e-9);
    }

    #[test]
    fn hypervolume_bounded_by_reference_box(points in arb_points()) {
        let hv = hypervolume(&points, (100.0, 100.0));
        prop_assert!((0.0..=10_000.0 + 1e-9).contains(&hv));
    }

    #[test]
    fn crowding_has_at_least_two_infinite_entries(points in arb_points()) {
        let front: Vec<usize> = (0..points.len()).collect();
        let d = crowding_distance_vec(&pairs(&points), &front);
        prop_assert_eq!(d.len(), points.len());
        let infinite = d.iter().filter(|x| x.is_infinite()).count();
        prop_assert!(infinite >= usize::min(2, points.len()));
        for x in &d {
            prop_assert!(*x >= 0.0);
        }
    }
}
