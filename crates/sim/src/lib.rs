//! # gdp-sim
//!
//! Simulated GDP deployments on one simulator: the *production* node
//! runtimes (the code `gdpd` runs) stepped by one discrete-event
//! [`sched::Scheduler`] over the seeded `gdp_net::simnet` fabric.
//!
//! * [`world::GdpWorld`] — deployments with modeled links and server CPU
//!   that CAAPIs run over unmodified; every paper-figure reproduction
//!   and the facade's Table I / threat-model / failure tests use it.
//! * [`cluster`] + [`check`] — deterministic chaos testing: file-backed
//!   replicas under seed-derived faults, with post-recovery invariant
//!   checks (see `tests/chaos.rs` and DESIGN.md, "Simulation
//!   architecture").
//! * [`baselines`] — the S3-like / SSHFS-like models for the paper's
//!   case study, on the same fabric links; [`workload`] — deterministic
//!   workload generators.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod check;
pub mod cluster;
pub mod sched;
pub mod workload;
pub mod world;

pub use baselines::BaselineWorld;
pub use check::check_invariants;
pub use cluster::SimCluster;
pub use gdp_net::simnet::{FaultSpec, SimAddr, SimEndpoint, SimNetError, SimStats};
pub use gdp_node::StoreEngine;
pub use sched::Scheduler;
pub use world::{GdpWorld, Placement, FOREVER};
