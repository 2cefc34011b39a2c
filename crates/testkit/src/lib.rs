#![warn(missing_docs)]

//! # rp-testkit
//!
//! The correctness harness of the reproduction: deterministic fault
//! injection, a metamorphic invariant suite, and structure-aware parser
//! fuzzing — wired together by `repro check`.
//!
//! A reproduction of a measurement paper lives or dies on its pipeline
//! behaving *sanely under degradation*: the paper's six filters exist
//! precisely because real probing campaigns see loss, duplication, jitter,
//! stale registries, and flapping links. This crate injects exactly those
//! degradations, replayably, and checks the properties that must survive
//! them:
//!
//! - [`faults`] — the fault *policy*: a [`faults::FaultPlan`] combining the
//!   link-level template ([`rp_netsim::fault`] is the mechanism) with
//!   scene-level degradations (stale registry rows, missing looking-glass
//!   vantages). Every decision derives from one seed via
//!   [`rp_types::seed`], so a fault sequence replays frame for frame.
//! - [`invariants`] — metamorphic relations with provable oracles:
//!   classification monotone in RTT, filters order-blind and
//!   inflation-stable, sample-size discards absorbing under loss, offload
//!   potential monotone under membership growth, eq. 14's viability
//!   margin scale-free, paired deltas antisymmetric, seeded runs replay
//!   exact, spec round-trips stable. Each checker takes the function
//!   under test as a closure; the unit tests pass mutated oracles and
//!   assert the harness flags them.
//! - [`fuzz`] — seeded corpus mutation against the vendored
//!   [`serde_json::from_str`] and [`rp_scenario::ScenarioSpec::from_json`]
//!   under `catch_unwind`; clean errors are fine, panics are findings.
//! - [`check`] — the orchestrator behind
//!   `repro check [--faults N] [--fuzz N]`: one clean campaign, one
//!   faulted campaign, the invariant suite over both, the fuzzer, and a
//!   deterministic JSON report of injected faults vs. caught violations.
//! - [`differential`] — the fork-equivalence harness and the home of
//!   every reference path: randomized delta sequences run
//!   fork+incremental and from-scratch-rebuild arms, held to byte
//!   identity over probe sets and run metrics; a deliberately stale
//!   broken-oracle arm proves the comparison can fail; and
//!   `probe_all_serial` is the serial reference of the parallel campaign.

pub mod check;
pub mod differential;
pub mod faults;
pub mod fuzz;
pub mod invariants;

pub use check::{run_check, CheckConfig, CheckOutcome};
pub use differential::{run_differential, DiffOutcome};
pub use faults::{FaultPlan, SceneFaults};
pub use fuzz::{FuzzReport, FuzzTarget};
pub use invariants::{Harness, Violation};
