//! End-to-end and per-layer performance benchmark for treesim.
//!
//! The benchmark drives the library only through its public API: it
//! generates a workload's dataset with `treesim-datagen`, builds a
//! `PostingsFilter` + `SearchEngine` and an ingest-probe `DynamicIndex`,
//! times queries and pushes from one closed-loop client, and checks every
//! timed answer against an edit-distance oracle. See `README.md` in this
//! directory for the workloads, metrics and how to run it.

pub mod modes;
pub mod oracle;
pub mod reference;
pub mod replay;
pub mod rng;
pub mod run;
pub mod stats;
pub mod workload;
