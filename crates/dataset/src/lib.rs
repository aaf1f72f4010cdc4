#![warn(missing_docs)]

//! # cdp-dataset
//!
//! Categorical microdata model for the reproduction of Marés & Torra,
//! *"An Evolutionary Optimization Approach for Categorical Data Protection"*
//! (PAIS/EDBT 2012).
//!
//! This crate provides the substrate every other crate in the workspace
//! builds on:
//!
//! * [`Attribute`] / [`Schema`] — categorical variables (nominal or ordinal)
//!   with interned category dictionaries. Cell values are stored as compact
//!   [`Code`] integers, never as strings, so the hot paths of the
//!   evolutionary algorithm and the information-loss / disclosure-risk
//!   measures are allocation-free.
//! * [`Table`] — a column-major categorical data file (the paper's
//!   "original file X"), backed by one contiguous code arena.
//! * [`SubTable`] — the columns of the attributes selected for protection
//!   (the paper protects 3 attributes per dataset); this is the genotype the
//!   evolutionary algorithm manipulates. Same contiguous columnar arena.
//! * [`PatternIndex`] — dictionary-encoded deduplication of rows into
//!   distinct patterns with multiplicities, four flat vectors; the
//!   substrate for the blocked (sub-quadratic) record-linkage scans in
//!   `cdp-metrics`.
//! * [`Hierarchy`] — generalization hierarchies used by global recoding and
//!   top/bottom coding.
//! * [`generators`] — seeded synthetic generators for the four UCI-shaped
//!   datasets of the paper's evaluation (US Housing '93, German Credit,
//!   Solar Flare, Adult). The real UCI files are not redistributed; the
//!   generators match record counts, attribute counts and the paper's
//!   category cardinalities exactly, which is all the measures read of
//!   the data's shape.
//! * [`io`] — CSV reading/writing with dictionary building.
//!
//! ## Quick example
//!
//! ```
//! use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
//!
//! let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(42));
//! assert_eq!(ds.table.n_rows(), 1000);
//! assert_eq!(ds.table.n_attrs(), 8);
//! // The paper protects EDUCATION (16), MARITAL-STATUS (7), OCCUPATION (14).
//! let cats: Vec<usize> = ds
//!     .protected
//!     .iter()
//!     .map(|&a| ds.table.schema().attr(a).n_categories())
//!     .collect();
//! assert_eq!(cats, vec![16, 7, 14]);
//! ```

mod attribute;
mod error;
mod hierarchy;
mod pattern;
mod schema;
mod subtable;
mod table;

pub mod generators;
pub mod io;
pub mod sample;
pub mod stats;

pub use attribute::{AttrKind, Attribute};
pub use error::{DatasetError, Result};
pub use hierarchy::{Hierarchy, HierarchyLevel};
pub use pattern::{PatternId, PatternIndex};
pub use schema::Schema;
pub use subtable::SubTable;
pub use table::Table;

/// Interned category code. Category dictionaries in this domain are tiny
/// (the paper's largest attribute has 25 categories), so `u16` is more than
/// enough and halves the memory traffic of the evolutionary hot loop
/// compared to `u32`.
pub type Code = u16;
