//! Result aggregation for the straightpath reproduction harness.
//!
//! The paper reports three figure families (maximum hops, average hops,
//! average path length) as curves over node count. This crate provides
//! the [`Summary`] statistics, the [`Series`]/[`Figure`] containers those
//! curves live in, and text/markdown/CSV renderers for regenerating the
//! tables in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod json;
pub mod series;
pub mod stats;
pub mod table;

pub use csv::render_csv;
pub use json::render_json;
pub use series::{Figure, Series};
pub use stats::{percentile, Summary};
pub use table::{render_markdown, render_text};
