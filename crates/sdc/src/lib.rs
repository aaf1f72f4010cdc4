#![warn(missing_docs)]

//! # cdp-sdc
//!
//! Statistical disclosure control (SDC) methods for categorical microdata.
//!
//! The paper seeds its evolutionary algorithm with populations of files
//! protected by "state-of-the-art protection techniques": categorical
//! **microaggregation** (Torra 2004), **bottom coding**, **top coding**,
//! **global recoding** (Hundepool & Willenborg 1998), **rank swapping**
//! (Moore 1996) and **PRAM** (Gouweleeuw et al. 1998). This crate implements
//! all six from scratch, plus the parameter sweeps that reproduce the
//! paper's exact population compositions (110 protections for Housing,
//! 104 for German and Flare, 86 for Adult — see [`SuiteConfig::paper`]).
//!
//! Every method consumes the [`cdp_dataset::SubTable`] of protected columns
//! and produces a masked sub-table over the *same category dictionaries* —
//! a closed domain is required by the paper's mutation operator, which
//! replaces cells with "a randomly selected value among all valid values for
//! the specific variable". Generalization-style methods therefore map merged
//! groups to a representative member category (see `cdp_dataset::Hierarchy`).
//!
//! ```
//! use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
//! use cdp_sdc::{build_population, SuiteConfig};
//!
//! let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(100));
//! let pop = build_population(&ds, &SuiteConfig::paper(ds.kind), 1).unwrap();
//! assert_eq!(pop.len(), 86); // the paper's Adult population size
//! ```

mod coding;
mod error;
mod extra;
mod global_recoding;
mod mdav;
mod method;
mod microaggregation;
mod order;
mod pram;
mod rank_swap;
mod suite;
#[cfg(test)]
mod testing;

pub use coding::{BottomCoding, TopCoding};
pub use error::{Result, SdcError};
pub use extra::{LocalSuppression, RandomSwap};
pub use global_recoding::GlobalRecoding;
pub use mdav::Mdav;
pub use method::{MethodContext, MethodFamily, ProtectionMethod};
pub use microaggregation::{Aggregate, Grouping, MicroVariant, Microaggregation};
pub use order::{category_frequencies, sort_indices};
pub use pram::{Pram, PramMode};
pub use rank_swap::RankSwapping;
pub use suite::{build_population, build_population_from, NamedProtection, SuiteConfig};
