//! # diads-gen
//!
//! The generative scenario engine of the DIADS reproduction: the handcrafted
//! Table-1 matrix (14 scenarios in `diads-inject`) is replaced as the *only*
//! coverage by an unbounded, seeded space of compound DB+SAN fault plans.
//!
//! * [`plan`] — [`plan::GenPlan`]: a declarative, replayable description of one
//!   generated scenario (overlays × onset delays × window lengths × intensity ×
//!   noise) with dependency-free JSON (de)serialization and a deterministic
//!   lowering onto [`diads_inject::ScenarioComposer`].
//! * [`generator`] — the seeded sampler ([`generator::Generator`], built on the
//!   in-tree `SplitMix64`): a fixed seed reproduces byte-identical plans.
//! * [`oracle`] — the diagnosis property oracles: **completeness** (every
//!   injected fault's cause is ranked at or above its expected confidence) and
//!   **soundness** (no high-confidence, high-impact cause without a
//!   corresponding injected fault, modulo the vocabulary's `also_explains`).
//! * [`shrink`](mod@shrink) — greedy 1-minimal shrinking of failing plans (drop overlays,
//!   shorten windows, step intensity down), re-running the oracle each step.
//! * [`bugbase`] — replayable JSON failure records under `crates/gen/bugbase/`,
//!   replayed in CI by the `gen_scenarios` binary.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bugbase;
pub mod generator;
pub mod oracle;
pub mod plan;
pub mod shrink;

pub use bugbase::BugbaseEntry;
pub use generator::Generator;
pub use oracle::{check_plan, evaluate, OracleOutcome, Violation};
pub use plan::{ExpectedCause, GenPlan, NoiseSpec, OverlaySpec, TimelineKind};
pub use shrink::{shrink, shrink_candidates};
