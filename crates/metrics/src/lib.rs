#![warn(missing_docs)]
//! # pnats-metrics — evaluation metrics and report formatting
//!
//! Everything §III of the paper measures, as reusable types:
//!
//! * [`cdf`] — empirical CDFs (Figures 3, 4, 5, 6 are all CDF plots).
//! * [`stats`] — means, percentiles and reduction percentages (the
//!   "decreases the job processing time by 17 % / 46 %" summary numbers).
//! * [`locality`] — local-node / local-rack / remote task accounting
//!   (Table III and Figure 7).
//! * [`utilization`] — busy-slot timelines and average utilization (the
//!   paper's cluster-resource-utilization claims).
//! * [`table`] — plain-text table / series rendering used by the `repro`
//!   experiments so every figure's data prints in a uniform shape.

pub mod cdf;
pub mod locality;
pub mod stats;
pub mod table;
pub mod utilization;

pub use cdf::Cdf;
pub use locality::{LocalityClass, LocalityCounter};
pub use stats::{jain_index, percentile, reduction_pct, Summary};
pub use table::{render_series, render_table};
pub use utilization::UtilizationTimeline;
