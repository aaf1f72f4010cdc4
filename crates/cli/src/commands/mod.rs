//! The CLI subcommands.

pub mod analyze;
pub mod evaluate;
pub mod generate;
pub mod hierarchy;
pub mod optimize;
pub mod protect;
pub mod serve;
