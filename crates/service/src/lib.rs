//! # diads-service
//!
//! Diagnosis-as-a-service over the DIADS reproduction: a long-running
//! [`DiagnosisService`] that owns a fleet of tenant testbeds and one shared
//! [`diads_core::DiagnosisEngine`] (one lock, held only around slot checkout and
//! check-in), and continuously re-diagnoses
//! each tenant as monitoring data streams in — the "production-scale service"
//! shape of the paper's deployment (Figure 5), grown on top of the batch
//! pipeline rather than beside it.
//!
//! The loop per tenant cycle: **probe ingest** →
//! **[`diads_monitor::SealPolicy`] watermark check** → **incremental
//! re-diagnosis** (streamed, cancellable) → **remediation planning** →
//! **re-seal**. Every diagnosis streams its typed
//! [`diads_core::PipelineEvent`] sequence onto the bounded in-tree
//! [`EventHub`] (std [`std::sync::mpsc`], zero external deps): subscribers get
//! per-tenant progress in real time, and a slow subscriber's full queue drops
//! that subscriber's copies (counted) instead of ever stalling a diagnosis.
//!
//! Observability is one [`ServiceStats`] snapshot — cycle latency and
//! staleness spectra ([`diads_stats::LatencySpectrum`] percentiles), warm-hit
//! rate, drop counts — rendered to JSON through `diads_core::jsonio`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bus;
pub mod service;
pub mod stats;

pub use bus::{ChannelSink, EventHub, ServiceEvent};
pub use service::{DiagnosisService, ServiceConfig};
pub use stats::{ServiceStats, SpectrumSummary};
