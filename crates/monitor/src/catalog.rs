//! The metric catalog (Figure 4 of the paper).
//!
//! Figure 4 groups the performance metrics DIADS collects into four columns —
//! *Database Metrics*, *Server Metrics*, *Network Metrics* and *Storage Metrics*.
//! The catalog reproduces that grouping and additionally records which component kinds
//! report which metrics, so the collector knows what to sample on each component and
//! the `figure4_metrics` harness can verify that the default testbed actually reports
//! every listed metric.

use crate::ids::ComponentKind;
use crate::metric::MetricName;

/// Database-layer metrics (Figure 4, first column).
pub fn database_metrics() -> Vec<MetricName> {
    vec![
        MetricName::OperatorElapsedTime,
        MetricName::OperatorSelfTime,
        MetricName::OperatorRecordCount,
        MetricName::OperatorEstimatedRecords,
        MetricName::PlanElapsedTime,
        MetricName::LocksHeld,
        MetricName::LockWaitTime,
        MetricName::SpaceUsage,
        MetricName::BlocksRead,
        MetricName::BufferHits,
        MetricName::BufferHitRatio,
        MetricName::IndexScans,
        MetricName::IndexReads,
        MetricName::IndexFetches,
        MetricName::SequentialScans,
        MetricName::RandomIos,
    ]
}

/// Server-layer metrics (Figure 4, second column).
pub fn server_metrics() -> Vec<MetricName> {
    vec![
        MetricName::CpuUsagePercent,
        MetricName::CpuUsageMhz,
        MetricName::Handles,
        MetricName::Threads,
        MetricName::Processes,
        MetricName::HeapMemoryKb,
        MetricName::PhysicalMemoryPercent,
        MetricName::KernelMemoryKb,
        MetricName::SwappedMemoryKb,
        MetricName::ReservedMemoryKb,
    ]
}

/// Network-layer metrics (Figure 4, third column).
pub fn network_metrics() -> Vec<MetricName> {
    vec![
        MetricName::BytesTransmitted,
        MetricName::BytesReceived,
        MetricName::PacketsTransmitted,
        MetricName::PacketsReceived,
        MetricName::LipCount,
        MetricName::NosCount,
        MetricName::ErrorFrames,
        MetricName::DumpedFrames,
        MetricName::LinkFailures,
        MetricName::CrcErrors,
        MetricName::AddressErrors,
    ]
}

/// Storage-layer metrics (Figure 4, fourth column).
pub fn storage_metrics() -> Vec<MetricName> {
    vec![
        MetricName::BytesRead,
        MetricName::BytesWritten,
        MetricName::ContaminatingWrites,
        MetricName::ReadIo,
        MetricName::WriteIo,
        MetricName::ReadTime,
        MetricName::WriteTime,
        MetricName::ReadResponseTimeMs,
        MetricName::WriteResponseTimeMs,
        MetricName::SequentialReadHits,
        MetricName::SequentialReadRequests,
        MetricName::SequentialWriteRequests,
        MetricName::TotalIos,
        MetricName::Utilization,
    ]
}

/// The metrics a component of the given kind is expected to report.
///
/// This is what the collector samples and what the `figure4_metrics` harness checks.
pub fn metrics_for_component(kind: ComponentKind) -> Vec<MetricName> {
    match kind {
        ComponentKind::DatabaseInstance => vec![
            MetricName::PlanElapsedTime,
            MetricName::LocksHeld,
            MetricName::LockWaitTime,
            MetricName::SpaceUsage,
            MetricName::BlocksRead,
            MetricName::BufferHits,
            MetricName::BufferHitRatio,
            MetricName::IndexScans,
            MetricName::IndexReads,
            MetricName::IndexFetches,
            MetricName::SequentialScans,
            MetricName::RandomIos,
        ],
        ComponentKind::Tablespace => vec![
            MetricName::SpaceUsage,
            MetricName::BlocksRead,
            MetricName::SequentialScans,
            MetricName::RandomIos,
        ],
        ComponentKind::PlanOperator => vec![
            MetricName::OperatorElapsedTime,
            MetricName::OperatorSelfTime,
            MetricName::OperatorRecordCount,
            MetricName::OperatorEstimatedRecords,
        ],
        ComponentKind::Server => server_metrics(),
        ComponentKind::Hba
        | ComponentKind::HbaPort
        | ComponentKind::SwitchPort
        | ComponentKind::SubsystemPort => {
            vec![
                MetricName::BytesTransmitted,
                MetricName::BytesReceived,
                MetricName::PacketsTransmitted,
                MetricName::PacketsReceived,
                MetricName::ErrorFrames,
                MetricName::DumpedFrames,
                MetricName::LinkFailures,
                MetricName::CrcErrors,
            ]
        }
        ComponentKind::FcSwitch => vec![
            MetricName::BytesTransmitted,
            MetricName::BytesReceived,
            MetricName::PacketsTransmitted,
            MetricName::PacketsReceived,
            MetricName::LipCount,
            MetricName::NosCount,
            MetricName::ErrorFrames,
            MetricName::DumpedFrames,
            MetricName::LinkFailures,
            MetricName::CrcErrors,
            MetricName::AddressErrors,
        ],
        ComponentKind::StorageSubsystem | ComponentKind::StoragePool | ComponentKind::StorageVolume => {
            storage_metrics()
        }
        ComponentKind::Disk => vec![
            MetricName::BytesRead,
            MetricName::BytesWritten,
            MetricName::ReadIo,
            MetricName::WriteIo,
            MetricName::ReadTime,
            MetricName::WriteTime,
            MetricName::TotalIos,
            MetricName::Utilization,
        ],
        ComponentKind::ExternalWorkload => vec![
            MetricName::ReadIo,
            MetricName::WriteIo,
            MetricName::BytesRead,
            MetricName::BytesWritten,
            MetricName::TotalIos,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Layer;

    /// Every metric of the Figure-4 catalog, in layer order.
    fn all_metrics() -> Vec<MetricName> {
        let mut v = database_metrics();
        v.extend(server_metrics());
        v.extend(network_metrics());
        v.extend(storage_metrics());
        v
    }

    #[test]
    fn catalog_sizes_match_figure4_shape() {
        // Figure 4 lists roughly a dozen metrics per column; the exact counts here are
        // the reproduction's fixed vocabulary.
        assert_eq!(database_metrics().len(), 16);
        assert_eq!(server_metrics().len(), 10);
        assert_eq!(network_metrics().len(), 11);
        assert_eq!(storage_metrics().len(), 14);
        assert_eq!(all_metrics().len(), 16 + 10 + 11 + 14);
    }

    #[test]
    fn catalog_has_no_duplicates() {
        let mut all = all_metrics();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn every_metric_is_assigned_to_its_layer() {
        for m in database_metrics() {
            assert_eq!(m.layer(), Layer::Database, "{m}");
        }
        for m in server_metrics() {
            assert_eq!(m.layer(), Layer::Server, "{m}");
        }
        for m in network_metrics() {
            assert_eq!(m.layer(), Layer::Network, "{m}");
        }
        for m in storage_metrics() {
            assert_eq!(m.layer(), Layer::Storage, "{m}");
        }
    }

    #[test]
    fn every_component_kind_reports_something_sane() {
        for &kind in ComponentKind::all() {
            let metrics = metrics_for_component(kind);
            assert!(!metrics.is_empty(), "{kind} reports no metrics");
            let mut dedup = metrics.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), metrics.len(), "{kind} lists a metric twice");
        }
    }

    #[test]
    fn volumes_report_the_table2_metrics() {
        let metrics = metrics_for_component(ComponentKind::StorageVolume);
        assert!(metrics.contains(&MetricName::WriteIo));
        assert!(metrics.contains(&MetricName::WriteTime));
    }

    #[test]
    fn operators_report_timing_and_record_counts() {
        let metrics = metrics_for_component(ComponentKind::PlanOperator);
        assert!(metrics.contains(&MetricName::OperatorElapsedTime));
        assert!(metrics.contains(&MetricName::OperatorRecordCount));
    }
}
