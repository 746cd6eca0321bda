//! End-to-end and per-layer benchmark of the ADA workspace.
//!
//! Three closed-loop workloads build `Ada` from the repository's crates
//! and drive it through their public functions:
//!
//! - [`remote_vmd`]: two TCP clients of an in-process `ada-server`;
//! - [`sampling_local`]: shuffled-epoch `query_range` against the cache;
//! - [`ingest_local`]: `Ada::ingest` of short trajectory segments.
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! spans around every layer call, replays each op one layer at a time and
//! reports the per-layer metrics (see [`catalog`]).

pub mod catalog;
pub mod common;
pub mod harness;
pub mod ingest_local;
pub mod procfs;
pub mod remote_vmd;
pub mod sampling_local;
pub mod spans;
pub mod stats;
