//! Configuration-change, failure and user-trigger events.
//!
//! Section 3 lists the event classes an APG carries from the SAN level: configuration
//! and connectivity changes over time, system-generated events (disk failure, RAID
//! rebuild), and events from user-defined triggers (volume performance degradation,
//! high subsystem workload). Database-side schema/configuration changes (index dropped,
//! parameter changed) flow through the same store so that module PD's plan-change
//! analysis and module SD's temporal symptoms can reason over a single timeline.

use crate::ids::ComponentId;
use crate::time::{TimeRange, Timestamp};

/// The kind of an event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventKind {
    // ---- SAN configuration events ----
    /// A new volume was created (e.g. the misconfigured V' of scenario 1).
    VolumeCreated,
    /// A volume was deleted.
    VolumeDeleted,
    /// A new zone was defined or changed in the FC fabric.
    ZoningChanged,
    /// LUN mapping/masking changed (a host gained or lost access to a volume).
    LunMappingChanged,
    /// A volume was migrated to a different pool.
    VolumeMigrated,

    // ---- SAN system events ----
    /// A physical disk failed.
    DiskFailure,
    /// A RAID rebuild started on a pool.
    RaidRebuildStarted,
    /// A RAID rebuild completed on a pool.
    RaidRebuildCompleted,

    // ---- User-defined trigger events ----
    /// A trigger fired for degraded volume performance.
    VolumePerformanceDegraded,
    /// A trigger fired for unusually high load on the storage subsystem.
    HighSubsystemWorkload,

    // ---- Database events ----
    /// An index was created.
    IndexCreated,
    /// An index was dropped.
    IndexDropped,
    /// Table statistics / data properties changed significantly (e.g. bulk DML).
    DataPropertiesChanged,
    /// A database configuration parameter changed.
    ConfigParameterChanged,
    /// Long lock waits were observed on a table.
    LockContention,

    /// Escape hatch for custom events.
    Custom(String),
}

impl EventKind {
    /// Short label used when rendering event timelines.
    pub fn label(&self) -> String {
        match self {
            EventKind::VolumeCreated => "volume-created".into(),
            EventKind::VolumeDeleted => "volume-deleted".into(),
            EventKind::ZoningChanged => "zoning-changed".into(),
            EventKind::LunMappingChanged => "lun-mapping-changed".into(),
            EventKind::VolumeMigrated => "volume-migrated".into(),
            EventKind::DiskFailure => "disk-failure".into(),
            EventKind::RaidRebuildStarted => "raid-rebuild-started".into(),
            EventKind::RaidRebuildCompleted => "raid-rebuild-completed".into(),
            EventKind::VolumePerformanceDegraded => "volume-performance-degraded".into(),
            EventKind::HighSubsystemWorkload => "high-subsystem-workload".into(),
            EventKind::IndexCreated => "index-created".into(),
            EventKind::IndexDropped => "index-dropped".into(),
            EventKind::DataPropertiesChanged => "data-properties-changed".into(),
            EventKind::ConfigParameterChanged => "config-parameter-changed".into(),
            EventKind::LockContention => "lock-contention".into(),
            EventKind::Custom(s) => s.clone(),
        }
    }

    /// Whether this is a configuration change (as opposed to a runtime/system event).
    pub(crate) fn is_configuration_change(&self) -> bool {
        matches!(
            self,
            EventKind::VolumeCreated
                | EventKind::VolumeDeleted
                | EventKind::ZoningChanged
                | EventKind::LunMappingChanged
                | EventKind::VolumeMigrated
                | EventKind::IndexCreated
                | EventKind::IndexDropped
                | EventKind::ConfigParameterChanged
        )
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// One event on the monitoring timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the event occurred.
    pub time: Timestamp,
    /// The component the event is about.
    pub component: ComponentId,
    /// What happened.
    pub kind: EventKind,
    /// Free-text detail (e.g. "volume V' mapped to host etl-server").
    pub detail: String,
}

impl Event {
    /// Creates an event.
    pub fn new(time: Timestamp, component: ComponentId, kind: EventKind, detail: impl Into<String>) -> Self {
        Event { time, component, kind, detail: detail.into() }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} on {}: {}", self.time, self.kind, self.component, self.detail)
    }
}

/// A time-ordered store of events.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    events: Vec<Event>,
}

impl EventStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event, keeping the store time-ordered.
    pub fn record(&mut self, event: Event) {
        let idx = self.events.partition_point(|e| e.time <= event.time);
        self.events.insert(idx, event);
    }

    /// All events in time order.
    pub fn all(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events within a half-open time range.
    pub fn in_range(&self, range: TimeRange) -> Vec<&Event> {
        self.events.iter().filter(|e| range.contains(e.time)).collect()
    }

    /// Events of a specific kind.
    pub fn of_kind(&self, kind: &EventKind) -> Vec<&Event> {
        self.events.iter().filter(|e| &e.kind == kind).collect()
    }

    /// Configuration-change events that occurred within a time range — the inputs to
    /// module PD's plan-change analysis and module SD's configuration symptoms.
    pub fn configuration_changes_in(&self, range: TimeRange) -> Vec<&Event> {
        self.events.iter().filter(|e| range.contains(e.time) && e.kind.is_configuration_change()).collect()
    }

    /// Merges another event store into this one.
    pub fn merge(&mut self, other: &EventStore) {
        for e in &other.events {
            self.record(e.clone());
        }
    }

    /// Order-sensitive FNV-1a fingerprint of the full event timeline.
    ///
    /// Incremental re-diagnosis uses this to decide whether the event-sensitive
    /// stages (PD, SD) saw the same timeline they were last scored against; any
    /// recorded, merged or mutated event changes the digest.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(hash: &mut u64, bytes: &[u8]) {
            for b in bytes {
                *hash ^= u64::from(*b);
                *hash = hash.wrapping_mul(PRIME);
            }
        }
        let mut hash = OFFSET;
        mix(&mut hash, &self.events.len().to_le_bytes());
        for e in &self.events {
            mix(&mut hash, &e.time.as_secs().to_le_bytes());
            mix(&mut hash, e.component.kind.label().as_bytes());
            mix(&mut hash, e.component.name.as_bytes());
            mix(&mut hash, e.kind.label().as_bytes());
            mix(&mut hash, e.detail.as_bytes());
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, name: &str, kind: EventKind) -> Event {
        Event::new(Timestamp::new(t), ComponentId::volume(name), kind, "test")
    }

    #[test]
    fn record_keeps_time_order() {
        let mut store = EventStore::new();
        store.record(ev(50, "V1", EventKind::VolumeCreated));
        store.record(ev(10, "V2", EventKind::DiskFailure));
        store.record(ev(30, "V1", EventKind::ZoningChanged));
        let times: Vec<u64> = store.all().iter().map(|e| e.time.as_secs()).collect();
        assert_eq!(times, vec![10, 30, 50]);
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
    }

    #[test]
    fn filters_by_range_component_and_kind() {
        let mut store = EventStore::new();
        store.record(ev(10, "V1", EventKind::VolumeCreated));
        store.record(ev(20, "V1", EventKind::LunMappingChanged));
        store.record(ev(30, "V2", EventKind::DiskFailure));
        store.record(ev(40, "V2", EventKind::RaidRebuildStarted));

        let range = TimeRange::new(Timestamp::new(15), Timestamp::new(35));
        assert_eq!(store.in_range(range).len(), 2);
        assert_eq!(store.of_kind(&EventKind::DiskFailure).len(), 1);
    }

    #[test]
    fn configuration_changes_are_separated_from_system_events() {
        let mut store = EventStore::new();
        store.record(ev(10, "V1", EventKind::VolumeCreated));
        store.record(ev(20, "V1", EventKind::DiskFailure));
        store.record(ev(30, "V1", EventKind::ConfigParameterChanged));
        store.record(ev(40, "V1", EventKind::VolumePerformanceDegraded));
        let all = TimeRange::new(Timestamp::new(0), Timestamp::new(100));
        let changes = store.configuration_changes_in(all);
        assert_eq!(changes.len(), 2);
        assert!(changes.iter().all(|e| e.kind.is_configuration_change()));
    }

    #[test]
    fn merge_and_display() {
        let mut a = EventStore::new();
        a.record(ev(10, "V1", EventKind::VolumeCreated));
        let mut b = EventStore::new();
        b.record(ev(5, "V2", EventKind::IndexDropped));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.all()[0].component, ComponentId::volume("V2"));
        let s = a.all()[0].to_string();
        assert!(s.contains("index-dropped") && s.contains("volume:V2"));
    }

    #[test]
    fn fingerprint_tracks_timeline_content() {
        let mut a = EventStore::new();
        a.record(ev(10, "V1", EventKind::VolumeCreated));
        a.record(ev(20, "V2", EventKind::DiskFailure));
        let mut b = EventStore::new();
        b.record(ev(10, "V1", EventKind::VolumeCreated));
        b.record(ev(20, "V2", EventKind::DiskFailure));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(EventStore::new().fingerprint(), a.fingerprint());
        b.record(ev(30, "V2", EventKind::RaidRebuildStarted));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn custom_event_kinds() {
        let k = EventKind::Custom("firmware-upgrade".into());
        assert_eq!(k.label(), "firmware-upgrade");
        assert!(!k.is_configuration_change());
    }
}
