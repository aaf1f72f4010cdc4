//! Shared inputs and reference orders for the crate's parity property
//! tests.

use std::sync::Arc;

use cdp_dataset::{AttrKind, Attribute, Code, Schema, SubTable};
use proptest::prelude::*;

use crate::order::category_order_keys;

/// A random table of 1..=4 attributes with 1..=5 categories each (so a
/// 1-category attribute occurs), mixed ordinal and nominal kinds, and
/// 1..=`max_rows` rows. Dictionaries are small, so nominal frequency ties
/// and distinct patterns with equal multivariate scores are common.
pub(crate) fn arb_table(max_rows: usize) -> impl Strategy<Value = SubTable> {
    (1usize..=4, 1usize..=max_rows)
        .prop_flat_map(|(a, n)| {
            (
                proptest::collection::vec((1usize..=5, any::<bool>()), a),
                proptest::collection::vec(proptest::collection::vec(0..5 as Code, n), a),
            )
        })
        .prop_map(|(attrs, raw)| {
            let columns: Vec<Vec<Code>> = raw
                .into_iter()
                .zip(&attrs)
                .map(|(col, &(c, _))| col.into_iter().map(|v| v % c as Code).collect())
                .collect();
            let schema = Schema::new(
                attrs
                    .iter()
                    .enumerate()
                    .map(|(i, &(c, ordinal))| {
                        if ordinal {
                            Attribute::ordinal(format!("A{i}"), c)
                        } else {
                            Attribute::nominal(format!("A{i}"), c)
                        }
                    })
                    .collect(),
            )
            .unwrap();
            SubTable::new(Arc::new(schema), (0..attrs.len()).collect(), columns).unwrap()
        })
}

/// The comparison sort [`crate::sort_indices`] replaced: the parity oracle.
pub(crate) fn sort_indices_oracle(
    column: &[Code],
    kind: AttrKind,
    n_categories: usize,
) -> Vec<usize> {
    let keys = category_order_keys(kind, column, n_categories);
    let mut idx: Vec<usize> = (0..column.len()).collect();
    idx.sort_by_key(|&i| (keys[column[i] as usize], i));
    idx
}
