//! Rank swapping (Moore 1996).
//!
//! Each attribute is sorted by its total order (dictionary order for
//! ordinal attributes, frequency order for nominal ones — see
//! [`crate::order`]) and every record's value is swapped with that of an
//! unswapped partner at most `p%·n` rank positions away. Values stay within
//! the empirical distribution of the attribute, so univariate marginals are
//! exactly preserved — the damage is to multivariate structure, growing
//! with `p`.

use cdp_dataset::{Code, SubTable};
use rand::Rng;
use rand::RngCore;

use crate::method::{MethodContext, MethodFamily, ProtectionMethod};
use crate::order::sort_indices;
use crate::{Result, SdcError};

/// Rank swapping with window `p` percent of the record count.
#[derive(Debug, Clone, Copy)]
pub struct RankSwapping {
    /// Window size as a percentage of the number of records (`1..=100`).
    pub p: usize,
}

impl RankSwapping {
    /// Convenience constructor.
    pub fn new(p: usize) -> Self {
        RankSwapping { p }
    }
}

impl ProtectionMethod for RankSwapping {
    fn name(&self) -> String {
        format!("rankswap(p={})", self.p)
    }

    fn family(&self) -> MethodFamily {
        MethodFamily::RankSwapping
    }

    fn protect(
        &self,
        original: &SubTable,
        _ctx: &MethodContext<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<SubTable> {
        if self.p == 0 || self.p > 100 {
            return Err(SdcError::InvalidParam(format!(
                "rank swapping window must be in 1..=100 percent, got {}",
                self.p
            )));
        }
        let n = original.n_rows();
        let window = ((self.p * n) / 100).max(1);

        let mut columns: Vec<Vec<Code>> = (0..original.n_attrs())
            .map(|k| original.column(k).to_vec())
            .collect();

        for (k, column) in columns.iter_mut().enumerate() {
            let attr = original.attr(k);
            let order = sort_indices(original.column(k), attr.kind(), attr.n_categories());
            swap_along(&order, window, column, rng);
        }

        Ok(SubTable::new(
            std::sync::Arc::clone(original.schema()),
            original.attr_indices().to_vec(),
            columns,
        )?)
    }
}

/// Swap each value of `column` with that of an unswapped partner at most
/// `window` positions further along `order` (record indices by rank).
fn swap_along(order: &[usize], window: usize, column: &mut [Code], rng: &mut dyn RngCore) {
    let n = order.len();
    let mut swapped = vec![false; n];
    for pos in 0..n {
        if swapped[pos] {
            continue;
        }
        let hi = (pos + window).min(n - 1);
        if hi <= pos {
            continue;
        }
        // pick a random unswapped partner within the window
        let offset = rng.gen_range(1..=hi - pos);
        let mut partner = pos + offset;
        // walk forward (then backward) to the nearest free slot
        while partner <= hi && swapped[partner] {
            partner += 1;
        }
        if partner > hi {
            partner = pos + offset;
            while partner > pos && swapped[partner] {
                partner -= 1;
            }
            if partner == pos {
                continue;
            }
        }
        let (ri, rj) = (order[pos], order[partner]);
        column.swap(ri, rj);
        swapped[pos] = true;
        swapped[partner] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{arb_table, sort_indices_oracle};
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Rank swapping along the comparison-sort order the counting sort
    /// replaced: the parity oracle.
    fn protect_oracle(p: usize, original: &SubTable, rng: &mut dyn RngCore) -> Vec<Vec<Code>> {
        let window = ((p * original.n_rows()) / 100).max(1);
        (0..original.n_attrs())
            .map(|k| {
                let attr = original.attr(k);
                let order =
                    sort_indices_oracle(original.column(k), attr.kind(), attr.n_categories());
                let mut column = original.column(k).to_vec();
                swap_along(&order, window, &mut column, rng);
                column
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn counting_sort_swaps_match_the_comparison_sort(
            sub in arb_table(60),
            p in 1usize..=100,
            seed in any::<u64>(),
        ) {
            let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
            let ctx = MethodContext { hierarchies: &hs };
            let fast = RankSwapping::new(p)
                .protect(&sub, &ctx, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let slow = protect_oracle(p, &sub, &mut StdRng::seed_from_u64(seed));
            for (k, column) in slow.iter().enumerate() {
                prop_assert_eq!(fast.column(k), column.as_slice(), "attribute {}", k);
            }
        }
    }

    fn setup() -> SubTable {
        DatasetKind::German
            .generate(&GeneratorConfig::seeded(4).with_records(300))
            .protected_subtable()
    }

    fn empty_ctx<'a>(hs: &'a [&'a cdp_dataset::Hierarchy]) -> MethodContext<'a> {
        MethodContext { hierarchies: hs }
    }

    #[test]
    fn marginals_exactly_preserved() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        let masked = RankSwapping::new(5)
            .protect(&sub, &empty_ctx(&hs), &mut rng)
            .unwrap();
        for k in 0..sub.n_attrs() {
            let count = |col: &[Code]| {
                let mut c = vec![0usize; sub.attr(k).n_categories()];
                for &v in col {
                    c[v as usize] += 1;
                }
                c
            };
            assert_eq!(count(sub.column(k)), count(masked.column(k)));
        }
    }

    #[test]
    fn swapping_changes_records() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        let masked = RankSwapping::new(10)
            .protect(&sub, &empty_ctx(&hs), &mut rng)
            .unwrap();
        assert!(sub.hamming(&masked) > 0);
    }

    #[test]
    fn window_bounds_rank_displacement() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(7);
        let p = 3;
        let masked = RankSwapping::new(p)
            .protect(&sub, &empty_ctx(&hs), &mut rng)
            .unwrap();
        let n = sub.n_rows();
        let window = (p * n) / 100;
        for k in 0..sub.n_attrs() {
            let attr = sub.attr(k);
            // ranks in the sorted order of the original column
            let order = sort_indices(sub.column(k), attr.kind(), attr.n_categories());
            let mut rank_of = vec![0usize; n];
            for (pos, &i) in order.iter().enumerate() {
                rank_of[i] = pos;
            }
            // a swapped-in value must originate within the window, hence its
            // order key may shift by at most `window` positions worth of
            // category boundaries; verify via value-level rank bound
            let keys =
                crate::order::category_order_keys(attr.kind(), sub.column(k), attr.n_categories());
            for i in 0..n {
                if masked.get(i, k) != sub.get(i, k) {
                    // partner's original rank within window of i's rank
                    let old_key = keys[sub.get(i, k) as usize] as i64;
                    let new_key = keys[masked.get(i, k) as usize] as i64;
                    // the category key can move only while ranks move <= window,
                    // and each rank step crosses at most one category boundary
                    assert!(
                        (old_key - new_key).unsigned_abs() as usize <= window.max(1) + 1,
                        "rank displacement too large at record {i}, attr {k}"
                    );
                    let _ = rank_of[i];
                }
            }
        }
    }

    #[test]
    fn larger_window_distorts_more() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let small = RankSwapping::new(1)
            .protect(&sub, &empty_ctx(&hs), &mut StdRng::seed_from_u64(2))
            .unwrap();
        let large = RankSwapping::new(40)
            .protect(&sub, &empty_ctx(&hs), &mut StdRng::seed_from_u64(2))
            .unwrap();
        // a wider window lets values travel across category boundaries more
        // often, hence more cells change
        assert!(sub.hamming(&large) >= sub.hamming(&small));
    }

    #[test]
    fn invalid_window_rejected() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        assert!(RankSwapping::new(0)
            .protect(&sub, &empty_ctx(&hs), &mut rng)
            .is_err());
        assert!(RankSwapping::new(101)
            .protect(&sub, &empty_ctx(&hs), &mut rng)
            .is_err());
    }

    #[test]
    fn seeded_reproducibility() {
        let sub = setup();
        let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
        let a = RankSwapping::new(5)
            .protect(&sub, &empty_ctx(&hs), &mut StdRng::seed_from_u64(9))
            .unwrap();
        let b = RankSwapping::new(5)
            .protect(&sub, &empty_ctx(&hs), &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(a, b);
    }
}
