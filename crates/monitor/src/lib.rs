//! # diads-monitor
//!
//! The monitoring substrate of the DIADS reproduction (*"Why Did My Query Slow Down?"*,
//! CIDR 2009). In the paper this role is played by IBM TotalStorage Productivity Center
//! plus a DB2 time-series database: every database, server, network and storage
//! component periodically reports configuration, performance metrics and events, and
//! DIADS consumes *only* this historic monitoring data (it never instruments the
//! production systems directly).
//!
//! This crate provides:
//!
//! * [`time`] — the simulation clock: [`time::Timestamp`], [`time::Duration`] and
//!   [`time::TimeRange`] (all in seconds of simulated time).
//! * [`ids`] — typed identities for every monitored component across both layers
//!   (servers, HBAs, switches, subsystems, pools, volumes, disks, database instances,
//!   tablespaces, external workloads, plan operators).
//! * [`metric`] and [`catalog`] — the metric vocabulary of Figure 4, grouped by layer.
//! * [`series`] and [`store`] — an in-memory time-series store with range queries,
//!   interval averaging and down-sampling.
//! * [`sampler`] — the production-style collector: raw observations are averaged over a
//!   coarse sampling interval (5 minutes by default) and perturbed with Gaussian noise,
//!   reproducing the paper's "inaccuracies in monitoring data" challenge.
//! * [`event`] — configuration-change, failure and user-trigger events.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod catalog;
pub mod event;
pub mod ids;
pub mod intern;
pub mod metric;
pub mod noise;
pub mod rng;
pub mod sampler;
pub mod series;
pub mod store;
pub mod time;

pub use event::{Event, EventKind, EventStore};
pub use ids::{ComponentId, ComponentKind, Layer};
pub use intern::{ComponentSym, Interner, MetricSym};
pub use metric::{MetricKey, MetricName};
pub use sampler::IntervalSampler;
pub use series::{DataPoint, TimeSeries};
pub use store::{EpochId, MetricDelta, MetricStore, SealPolicy};
pub use time::{Duration, TimeRange, Timestamp};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_reexported() {
        let c = ComponentId::new(ComponentKind::StorageVolume, "V1");
        let store = MetricStore::new();
        let key = store.intern(&c, &MetricName::WriteIo);
        assert_eq!(store.resolve(key).1, &MetricName::WriteIo);
        let range = TimeRange::new(Timestamp::new(0), Timestamp::new(10));
        assert_eq!(range.duration(), Duration::from_secs(10));
    }
}
