//! Ordering utilities shared by the rank-based methods.
//!
//! Ordinal attributes have an intrinsic category order (the dictionary
//! order). Nominal attributes do not; rank-based methods (rank swapping,
//! microaggregation grouping, quantile coding) fall back to **frequency
//! order** — categories sorted by how often they occur — which is the usual
//! adaptation in the SDC literature when a total order is required.
//!
//! # Bucket order
//!
//! Every record ordering here is a **stable counting sort**: each record
//! gets a dense rank (its category's order key, or the rank of its
//! pattern's score in microaggregation), rows are bucketed by rank, and
//! within a bucket they keep ascending row order. That is exactly the order
//! a comparison sort on `(rank, row index)` yields, in `O(n + ranks)`
//! instead of `O(n log n)` comparisons.

use cdp_dataset::{AttrKind, Code};

/// Occurrences of each category in a column.
pub fn category_frequencies(column: &[Code], n_categories: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_categories];
    for &c in column {
        counts[c as usize] += 1;
    }
    counts
}

/// A total order on the categories of an attribute: `order_key[code]` is the
/// sort position of `code`. Ordinal attributes use dictionary order; nominal
/// attributes use ascending frequency order (ties broken by code) so that
/// "low" means "rare".
pub fn category_order_keys(kind: AttrKind, column: &[Code], n_categories: usize) -> Vec<usize> {
    match kind {
        AttrKind::Ordinal => (0..n_categories).collect(),
        AttrKind::Nominal => {
            let freq = category_frequencies(column, n_categories);
            let mut codes: Vec<usize> = (0..n_categories).collect();
            codes.sort_by_key(|&c| (freq[c], c));
            let mut key = vec![0usize; n_categories];
            for (pos, &c) in codes.iter().enumerate() {
                key[c] = pos;
            }
            key
        }
    }
}

/// Record indices sorted by the attribute's total order (stable: ties keep
/// record order, making every method deterministic given its inputs) — a
/// counting sort over the category order keys.
pub fn sort_indices(column: &[Code], kind: AttrKind, n_categories: usize) -> Vec<usize> {
    let keys = category_order_keys(kind, column, n_categories);
    bucket_order(column.len(), n_categories, |i| keys[column[i] as usize])
}

/// The indices `0..n` ordered by ascending `rank_of(i)` (each below
/// `n_ranks`), equal ranks keeping index order: a stable counting sort.
pub(crate) fn bucket_order(
    n: usize,
    n_ranks: usize,
    rank_of: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let mut next = vec![0usize; n_ranks + 1];
    for i in 0..n {
        next[rank_of(i) + 1] += 1;
    }
    for r in 0..n_ranks {
        next[r + 1] += next[r];
    }
    let mut order = vec![0usize; n];
    for i in 0..n {
        let slot = &mut next[rank_of(i)];
        order[*slot] = i;
        *slot += 1;
    }
    order
}

/// The modal (most frequent) category of `codes`; ties resolve to the
/// smallest code. `counts` is a zeroed scratch buffer covering the
/// dictionary; it is zeroed again on return, so one buffer serves every
/// group.
pub fn mode(codes: &[Code], counts: &mut [usize]) -> Code {
    for &c in codes {
        counts[c as usize] += 1;
    }
    let mut best = (0usize, 0 as Code);
    for &c in codes {
        let cnt = counts[c as usize];
        if cnt > best.0 || (cnt == best.0 && c < best.1) {
            best = (cnt, c);
        }
    }
    for &c in codes {
        counts[c as usize] = 0;
    }
    best.1
}

/// The median category of `codes` under the given order keys (the lower
/// middle for an even count), reordering `codes` in place. `keys` must be
/// a total order — distinct keys for distinct codes — as
/// [`category_order_keys`] builds it, so the median is unique.
pub fn median_by_keys(codes: &mut [Code], keys: &[usize]) -> Code {
    debug_assert!(!codes.is_empty());
    let mid = (codes.len() - 1) / 2;
    *codes
        .select_nth_unstable_by_key(mid, |&c| keys[c as usize])
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::sort_indices_oracle;
    use proptest::prelude::*;

    /// The allocating mode [`mode`] replaced: the parity oracle.
    fn mode_oracle(codes: &[Code], n_categories: usize) -> Code {
        let mut counts = vec![0usize; n_categories];
        for &c in codes {
            counts[c as usize] += 1;
        }
        counts
            .iter()
            .enumerate()
            .max_by_key(|&(code, &cnt)| (cnt, std::cmp::Reverse(code)))
            .map(|(code, _)| code as Code)
            .unwrap_or(0)
    }

    /// The stable-sort median [`median_by_keys`] replaced: the parity oracle.
    fn median_oracle(mut codes: Vec<Code>, keys: &[usize]) -> Code {
        codes.sort_by_key(|&c| keys[c as usize]);
        codes[(codes.len() - 1) / 2]
    }

    /// A random column (1..=60 rows) over a 1..=9-category dictionary,
    /// with skewed draws so nominal frequency ties and absent categories
    /// both occur.
    fn arb_column() -> impl Strategy<Value = (Vec<Code>, usize, AttrKind)> {
        (1usize..=9, 1usize..=60, any::<bool>()).prop_flat_map(|(c, n, ordinal)| {
            proptest::collection::vec((0..c as Code, 0..c as Code), n).prop_map(move |pairs| {
                let col = pairs.into_iter().map(|(x, y)| x.min(y)).collect();
                let kind = if ordinal {
                    AttrKind::Ordinal
                } else {
                    AttrKind::Nominal
                };
                (col, c, kind)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sort_indices_matches_the_comparison_sort((col, c, kind) in arb_column()) {
            prop_assert_eq!(sort_indices(&col, kind, c), sort_indices_oracle(&col, kind, c));
        }

        #[test]
        fn aggregates_match_the_allocating_versions((col, c, kind) in arb_column()) {
            let keys = category_order_keys(kind, &col, c);
            let mut counts = vec![0usize; c];
            for len in 1..=col.len().min(12) {
                let group = &col[..len];
                prop_assert_eq!(mode(group, &mut counts), mode_oracle(group, c));
                prop_assert_eq!(
                    median_by_keys(&mut group.to_vec(), &keys),
                    median_oracle(group.to_vec(), &keys)
                );
            }
            prop_assert!(counts.iter().all(|&n| n == 0));
        }
    }

    #[test]
    fn frequencies_count() {
        let col = [0u16, 1, 1, 2, 2, 2];
        assert_eq!(category_frequencies(&col, 4), vec![1, 2, 3, 0]);
    }

    #[test]
    fn ordinal_order_is_dictionary_order() {
        let col = [2u16, 0, 1];
        assert_eq!(
            category_order_keys(AttrKind::Ordinal, &col, 3),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn nominal_order_is_frequency_order() {
        let col = [0u16, 1, 1, 2, 2, 2];
        // freq: code0=1, code1=2, code2=3, code3=0 -> ascending: 3,0,1,2
        assert_eq!(
            category_order_keys(AttrKind::Nominal, &col, 4),
            vec![1, 2, 3, 0]
        );
    }

    #[test]
    fn sort_indices_is_stable() {
        let col = [1u16, 0, 1, 0];
        let idx = sort_indices(&col, AttrKind::Ordinal, 2);
        assert_eq!(idx, vec![1, 3, 0, 2]);
    }

    #[test]
    fn mode_breaks_ties_low() {
        let col = [3u16, 1, 1, 3];
        let mut counts = vec![0usize; 4];
        assert_eq!(mode(&col, &mut counts), 1);
        assert!(counts.iter().all(|&c| c == 0), "scratch left zeroed");
        assert_eq!(mode(&[2, 3, 3], &mut counts), 3);
    }

    #[test]
    fn median_respects_order_keys() {
        // dictionary order
        let keys: Vec<usize> = (0..5).collect();
        assert_eq!(median_by_keys(&mut [4, 0, 2], &keys), 2);
        // even count -> lower middle
        assert_eq!(median_by_keys(&mut [0, 1, 2, 3], &keys), 1);
        // custom order reversing the dictionary
        let rev: Vec<usize> = (0..5).rev().collect();
        assert_eq!(median_by_keys(&mut [4, 0, 2], &rev), 2);
        assert_eq!(median_by_keys(&mut [4, 0], &rev), 4);
    }
}
