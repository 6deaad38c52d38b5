//! The metric vocabulary.
//!
//! Figure 4 of the paper lists the performance metrics DIADS collects from the four
//! layers (database, server, network, storage). [`MetricName`] enumerates that
//! vocabulary plus an escape hatch for user-defined metrics; [`MetricKey`] pairs a
//! metric with the component it was measured on, which is the key of the time-series
//! store.

use crate::intern::{ComponentSym, MetricSym};

/// A performance metric name, following Figure 4 of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MetricName {
    // ---- Database metrics ----
    /// Elapsed running time of a plan operator for one execution (seconds).
    OperatorElapsedTime,
    /// Exclusive (self) running time of a plan operator for one execution (seconds).
    OperatorSelfTime,
    /// Actual number of records output by an operator in one execution.
    OperatorRecordCount,
    /// Optimizer-estimated number of records output by an operator.
    OperatorEstimatedRecords,
    /// Elapsed running time of a whole plan execution (seconds).
    PlanElapsedTime,
    /// Number of locks held by the database during the interval.
    LocksHeld,
    /// Time spent waiting on locks (seconds).
    LockWaitTime,
    /// Space usage of the database (KB).
    SpaceUsage,
    /// Blocks read from storage.
    BlocksRead,
    /// Buffer-cache hits.
    BufferHits,
    /// Buffer-cache hit ratio (0..1).
    BufferHitRatio,
    /// Number of index scans started.
    IndexScans,
    /// Index blocks read.
    IndexReads,
    /// Index entries fetched.
    IndexFetches,
    /// Number of sequential (full-table) scans started.
    SequentialScans,
    /// Random I/O operations issued by the database.
    RandomIos,

    // ---- Server metrics ----
    /// CPU usage percentage of the host.
    CpuUsagePercent,
    /// CPU usage in MHz.
    CpuUsageMhz,
    /// Open handle count.
    Handles,
    /// Thread count.
    Threads,
    /// Process count.
    Processes,
    /// Heap memory usage (KB).
    HeapMemoryKb,
    /// Physical memory usage percentage.
    PhysicalMemoryPercent,
    /// Kernel memory (KB).
    KernelMemoryKb,
    /// Memory being swapped (KB).
    SwappedMemoryKb,
    /// Reserved memory capacity (KB).
    ReservedMemoryKb,

    // ---- Network (fabric / HBA) metrics ----
    /// Bytes transmitted on a port.
    BytesTransmitted,
    /// Bytes received on a port.
    BytesReceived,
    /// Packets (frames) transmitted.
    PacketsTransmitted,
    /// Packets (frames) received.
    PacketsReceived,
    /// Loop-initialisation-primitive count.
    LipCount,
    /// NOS (not-operational) count.
    NosCount,
    /// Error frames observed.
    ErrorFrames,
    /// Dumped frames observed.
    DumpedFrames,
    /// Link failures observed.
    LinkFailures,
    /// CRC errors observed.
    CrcErrors,
    /// Address errors observed.
    AddressErrors,

    // ---- Storage metrics ----
    /// Bytes read from a storage component.
    BytesRead,
    /// Bytes written to a storage component.
    BytesWritten,
    /// Contaminating writes (writes interleaved into a sequential read stream).
    ContaminatingWrites,
    /// Read I/O operations completed.
    ReadIo,
    /// Write I/O operations completed.
    WriteIo,
    /// Cumulative physical read time (seconds) — `writeTime`'s read counterpart.
    ReadTime,
    /// Cumulative physical write time (seconds) — Table 2's `writeTime`.
    WriteTime,
    /// Average read response time (milliseconds per I/O).
    ReadResponseTimeMs,
    /// Average write response time (milliseconds per I/O).
    WriteResponseTimeMs,
    /// Sequential read cache hits.
    SequentialReadHits,
    /// Sequential read requests.
    SequentialReadRequests,
    /// Sequential write requests.
    SequentialWriteRequests,
    /// Total I/O operations (reads + writes).
    TotalIos,
    /// Component utilisation in `[0, 1]` (fraction of the interval the component was busy).
    Utilization,

    /// Escape hatch for user-defined or trigger-specific metrics.
    Custom(String),
}

impl MetricName {
    /// Canonical short name used in rendered tables (matches the paper's spelling where
    /// the paper names the metric, e.g. `writeIO` and `writeTime` in Table 2).
    ///
    /// Returns a borrowed string so rendering never allocates.
    pub fn short_name(&self) -> &str {
        use MetricName::*;
        match self {
            OperatorElapsedTime => "opElapsedTime",
            OperatorSelfTime => "opSelfTime",
            OperatorRecordCount => "opRecordCount",
            OperatorEstimatedRecords => "opEstimatedRecords",
            PlanElapsedTime => "planElapsedTime",
            LocksHeld => "locksHeld",
            LockWaitTime => "lockWaitTime",
            SpaceUsage => "spaceUsage",
            BlocksRead => "blocksRead",
            BufferHits => "bufferHits",
            BufferHitRatio => "bufferHitRatio",
            IndexScans => "indexScans",
            IndexReads => "indexReads",
            IndexFetches => "indexFetches",
            SequentialScans => "sequentialScans",
            RandomIos => "randomIOs",
            CpuUsagePercent => "cpuUsagePct",
            CpuUsageMhz => "cpuUsageMhz",
            Handles => "handles",
            Threads => "threads",
            Processes => "processes",
            HeapMemoryKb => "heapMemoryKB",
            PhysicalMemoryPercent => "physMemoryPct",
            KernelMemoryKb => "kernelMemoryKB",
            SwappedMemoryKb => "swappedMemoryKB",
            ReservedMemoryKb => "reservedMemoryKB",
            BytesTransmitted => "bytesTx",
            BytesReceived => "bytesRx",
            PacketsTransmitted => "packetsTx",
            PacketsReceived => "packetsRx",
            LipCount => "lipCount",
            NosCount => "nosCount",
            ErrorFrames => "errorFrames",
            DumpedFrames => "dumpedFrames",
            LinkFailures => "linkFailures",
            CrcErrors => "crcErrors",
            AddressErrors => "addressErrors",
            BytesRead => "bytesRead",
            BytesWritten => "bytesWritten",
            ContaminatingWrites => "contaminatingWrites",
            ReadIo => "readIO",
            WriteIo => "writeIO",
            ReadTime => "readTime",
            WriteTime => "writeTime",
            ReadResponseTimeMs => "readRespMs",
            WriteResponseTimeMs => "writeRespMs",
            SequentialReadHits => "seqReadHits",
            SequentialReadRequests => "seqReadReqs",
            SequentialWriteRequests => "seqWriteReqs",
            TotalIos => "totalIOs",
            Utilization => "utilization",
            Custom(name) => name,
        }
    }

    /// Resolves a builtin metric from its [`MetricName::short_name`] spelling.
    ///
    /// Returns `None` for anything that is not a builtin short name — callers that
    /// round-trip [`MetricName::Custom`] metrics (e.g. engine snapshots) must encode
    /// the custom/builtin distinction out of band, since a custom metric may shadow
    /// any spelling.
    pub fn from_short_name(name: &str) -> Option<MetricName> {
        use MetricName::*;
        let m = match name {
            "opElapsedTime" => OperatorElapsedTime,
            "opSelfTime" => OperatorSelfTime,
            "opRecordCount" => OperatorRecordCount,
            "opEstimatedRecords" => OperatorEstimatedRecords,
            "planElapsedTime" => PlanElapsedTime,
            "locksHeld" => LocksHeld,
            "lockWaitTime" => LockWaitTime,
            "spaceUsage" => SpaceUsage,
            "blocksRead" => BlocksRead,
            "bufferHits" => BufferHits,
            "bufferHitRatio" => BufferHitRatio,
            "indexScans" => IndexScans,
            "indexReads" => IndexReads,
            "indexFetches" => IndexFetches,
            "sequentialScans" => SequentialScans,
            "randomIOs" => RandomIos,
            "cpuUsagePct" => CpuUsagePercent,
            "cpuUsageMhz" => CpuUsageMhz,
            "handles" => Handles,
            "threads" => Threads,
            "processes" => Processes,
            "heapMemoryKB" => HeapMemoryKb,
            "physMemoryPct" => PhysicalMemoryPercent,
            "kernelMemoryKB" => KernelMemoryKb,
            "swappedMemoryKB" => SwappedMemoryKb,
            "reservedMemoryKB" => ReservedMemoryKb,
            "bytesTx" => BytesTransmitted,
            "bytesRx" => BytesReceived,
            "packetsTx" => PacketsTransmitted,
            "packetsRx" => PacketsReceived,
            "lipCount" => LipCount,
            "nosCount" => NosCount,
            "errorFrames" => ErrorFrames,
            "dumpedFrames" => DumpedFrames,
            "linkFailures" => LinkFailures,
            "crcErrors" => CrcErrors,
            "addressErrors" => AddressErrors,
            "bytesRead" => BytesRead,
            "bytesWritten" => BytesWritten,
            "contaminatingWrites" => ContaminatingWrites,
            "readIO" => ReadIo,
            "writeIO" => WriteIo,
            "readTime" => ReadTime,
            "writeTime" => WriteTime,
            "readRespMs" => ReadResponseTimeMs,
            "writeRespMs" => WriteResponseTimeMs,
            "seqReadHits" => SequentialReadHits,
            "seqReadReqs" => SequentialReadRequests,
            "seqWriteReqs" => SequentialWriteRequests,
            "totalIOs" => TotalIos,
            "utilization" => Utilization,
            _ => return None,
        };
        Some(m)
    }

    /// Whether higher values of this metric indicate *more load or worse performance*
    /// (true for most counters and times) as opposed to metrics where a drop is the
    /// suspicious direction (e.g. cache-hit ratios and free memory).
    pub fn higher_is_worse(&self) -> bool {
        !matches!(
            self,
            MetricName::BufferHitRatio
                | MetricName::BufferHits
                | MetricName::SequentialReadHits
                | MetricName::ReservedMemoryKb
        )
    }
}

impl std::fmt::Display for MetricName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// An interned (component, metric) pair — the key of the time-series store.
///
/// This is a pair of dense `u32` symbols issued by a shared
/// [`crate::intern::Interner`]: `Copy`, 8 bytes, integer-comparable. Use
/// [`crate::store::MetricStore::intern`] to create one and
/// [`crate::store::MetricStore::resolve`] to get the rich identities back. Stores
/// share the process-global interner by default, so a key is a **store-agnostic
/// identity**: every store (and every fleet-level cache) that shares the interner
/// agrees on which (component, metric) pair a key names.
///
/// The ordering (component first, then metric) groups a component's series
/// contiguously, which is what makes per-component range scans possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// The interned component the metric was measured on.
    pub component: ComponentSym,
    /// The interned metric name.
    pub metric: MetricSym,
}

impl MetricKey {
    /// Creates a metric key from interned symbols.
    pub fn new(component: ComponentSym, metric: MetricSym) -> Self {
        MetricKey { component, metric }
    }

    /// Rebuilds a key from dense symbol indices. Crate-internal: only meaningful for
    /// indices obtained from `ComponentSym::index` / `MetricSym::index` of the same
    /// store (used by dense tables that need the key back for recording).
    pub(crate) fn from_indices(component: usize, metric: usize) -> Self {
        MetricKey::new(ComponentSym(component as u32), MetricSym(metric as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ComponentId, ComponentKind};

    #[test]
    fn table2_metric_names_match_the_paper() {
        assert_eq!(MetricName::WriteIo.short_name(), "writeIO");
        assert_eq!(MetricName::WriteTime.short_name(), "writeTime");
    }

    #[test]
    fn higher_is_worse_flags() {
        assert!(MetricName::WriteTime.higher_is_worse());
        assert!(MetricName::LockWaitTime.higher_is_worse());
        assert!(!MetricName::BufferHitRatio.higher_is_worse());
        assert!(!MetricName::SequentialReadHits.higher_is_worse());
    }

    #[test]
    fn metric_keys_are_copy_and_ordered_component_first() {
        let store = crate::store::MetricStore::new();
        let a = store.intern(&ComponentId::new(ComponentKind::StorageVolume, "V1"), &MetricName::WriteIo);
        let b = a; // Copy — no clone needed
        assert_eq!(a, b);
        let c = store.intern(&ComponentId::new(ComponentKind::StorageVolume, "V2"), &MetricName::ReadIo);
        assert!(a < c, "keys group by component before metric");
        assert_eq!(store.display_key(a), "volume:V1/writeIO");
    }

    #[test]
    fn short_names_round_trip_for_builtins() {
        let builtins = [
            MetricName::OperatorElapsedTime,
            MetricName::BufferHitRatio,
            MetricName::CpuUsagePercent,
            MetricName::CrcErrors,
            MetricName::WriteIo,
            MetricName::Utilization,
        ];
        for m in builtins {
            assert_eq!(MetricName::from_short_name(m.short_name()), Some(m));
        }
        assert_eq!(MetricName::from_short_name("queue_depth"), None);
        assert_eq!(MetricName::from_short_name(""), None);
    }

    #[test]
    fn custom_metrics_are_distinct() {
        let a = MetricName::Custom("queue_depth".into());
        let b = MetricName::Custom("queue_depth".into());
        let c = MetricName::Custom("other".into());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.short_name(), "queue_depth");
    }
}
