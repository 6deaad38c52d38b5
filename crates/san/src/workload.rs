//! External application workloads sharing the SAN.
//!
//! Enterprise SANs are consolidated: the database's volumes share switches, controller
//! ports and — crucially for scenario 1 — physical disks with other applications.
//! An [`ExternalWorkload`] describes the I/O an external application pushes onto a
//! volume over a window of time, with an optional bursty shape (scenario "1b" adds a
//! *bursty* load on V2 that raises its metrics without really hurting the query).

use diads_monitor::{TimeRange, Timestamp};

/// The steady-state I/O intensity of a workload against one volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoProfile {
    /// Read operations per second.
    pub read_iops: f64,
    /// Write operations per second.
    pub write_iops: f64,
    /// Average read transfer size in KB.
    pub read_kb: f64,
    /// Average write transfer size in KB.
    pub write_kb: f64,
    /// Fraction of I/O that is sequential (0..1).
    pub sequential_fraction: f64,
}

impl IoProfile {
    /// A profile with no I/O at all.
    pub const IDLE: IoProfile =
        IoProfile { read_iops: 0.0, write_iops: 0.0, read_kb: 8.0, write_kb: 8.0, sequential_fraction: 0.0 };

    /// A random-I/O OLTP-style profile.
    pub fn oltp(read_iops: f64, write_iops: f64) -> Self {
        IoProfile { read_iops, write_iops, read_kb: 8.0, write_kb: 8.0, sequential_fraction: 0.1 }
    }

    /// A sequential batch/ETL-style profile (large transfers, mostly writes).
    pub fn batch_write(write_iops: f64) -> Self {
        IoProfile {
            read_iops: write_iops * 0.1,
            write_iops,
            read_kb: 64.0,
            write_kb: 64.0,
            sequential_fraction: 0.7,
        }
    }

    /// Total operations per second.
    pub fn total_iops(&self) -> f64 {
        self.read_iops + self.write_iops
    }

    /// Scales both rates by a factor.
    pub fn scaled(&self, factor: f64) -> IoProfile {
        IoProfile { read_iops: self.read_iops * factor, write_iops: self.write_iops * factor, ..*self }
    }
}

/// How a workload's intensity varies over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BurstPattern {
    /// Constant intensity for the whole active window.
    Steady,
    /// Periodic bursts: for each `period_secs` window the workload runs at
    /// `multiplier ×` its base profile for the first `burst_secs`, and at the base
    /// profile (possibly zero, see `idle_fraction`) for the rest.
    Bursty {
        /// Length of one burst cycle in seconds.
        period_secs: u64,
        /// Length of the high-intensity phase at the start of each cycle.
        burst_secs: u64,
        /// Intensity multiplier during the burst phase.
        multiplier: f64,
        /// Fraction of the base profile that remains between bursts (0 = fully idle).
        idle_fraction: f64,
    },
}

impl BurstPattern {
    /// Intensity multiplier at an instant, relative to the base profile.
    pub(crate) fn intensity_at(&self, t: Timestamp, window_start: Timestamp) -> f64 {
        match *self {
            BurstPattern::Steady => 1.0,
            BurstPattern::Bursty { period_secs, burst_secs, multiplier, idle_fraction } => {
                let period = period_secs.max(1);
                let offset = t.as_secs().saturating_sub(window_start.as_secs()) % period;
                if offset < burst_secs {
                    multiplier
                } else {
                    idle_fraction
                }
            }
        }
    }
}

/// An external application workload against one volume over one time window.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalWorkload {
    /// Workload name (e.g. `etl-on-vprime`).
    pub name: String,
    /// The server the workload runs on.
    pub server: String,
    /// The volume the workload targets.
    pub volume: String,
    /// Base I/O intensity.
    pub profile: IoProfile,
    /// Temporal shape of the intensity.
    pub pattern: BurstPattern,
    /// Window during which the workload is active.
    pub active: TimeRange,
}

impl ExternalWorkload {
    /// Creates a steady workload.
    pub fn steady(
        name: impl Into<String>,
        server: impl Into<String>,
        volume: impl Into<String>,
        profile: IoProfile,
        active: TimeRange,
    ) -> Self {
        ExternalWorkload {
            name: name.into(),
            server: server.into(),
            volume: volume.into(),
            profile,
            pattern: BurstPattern::Steady,
            active,
        }
    }

    /// Creates a bursty workload.
    pub fn bursty(
        name: impl Into<String>,
        server: impl Into<String>,
        volume: impl Into<String>,
        profile: IoProfile,
        pattern: BurstPattern,
        active: TimeRange,
    ) -> Self {
        ExternalWorkload {
            name: name.into(),
            server: server.into(),
            volume: volume.into(),
            profile,
            pattern,
            active,
        }
    }

    /// Whether the workload is active at the given instant.
    pub(crate) fn is_active_at(&self, t: Timestamp) -> bool {
        self.active.contains(t)
    }

    /// The effective I/O profile at an instant (zero when inactive).
    pub fn profile_at(&self, t: Timestamp) -> IoProfile {
        if !self.is_active_at(t) {
            return IoProfile::IDLE;
        }
        self.profile.scaled(self.pattern.intensity_at(t, self.active.start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diads_monitor::Duration;

    fn window(start: u64, secs: u64) -> TimeRange {
        TimeRange::with_duration(Timestamp::new(start), Duration::from_secs(secs))
    }

    #[test]
    fn profiles() {
        let p = IoProfile::oltp(100.0, 50.0);
        assert_eq!(p.total_iops(), 150.0);
        let scaled = p.scaled(2.0);
        assert_eq!(scaled.read_iops, 200.0);
        assert_eq!(scaled.write_iops, 100.0);
        assert_eq!(scaled.read_kb, p.read_kb);
        let b = IoProfile::batch_write(200.0);
        assert!(b.write_iops > b.read_iops);
        assert!(b.sequential_fraction > 0.5);
        assert_eq!(IoProfile::IDLE.total_iops(), 0.0);
    }

    #[test]
    fn steady_pattern_is_constant() {
        let p = BurstPattern::Steady;
        assert_eq!(p.intensity_at(Timestamp::new(0), Timestamp::new(0)), 1.0);
        assert_eq!(p.intensity_at(Timestamp::new(12345), Timestamp::new(0)), 1.0);
    }

    #[test]
    fn bursty_pattern_cycles() {
        let p =
            BurstPattern::Bursty { period_secs: 100, burst_secs: 20, multiplier: 5.0, idle_fraction: 0.0 };
        let start = Timestamp::new(1000);
        assert_eq!(p.intensity_at(Timestamp::new(1000), start), 5.0);
        assert_eq!(p.intensity_at(Timestamp::new(1019), start), 5.0);
        assert_eq!(p.intensity_at(Timestamp::new(1020), start), 0.0);
        assert_eq!(p.intensity_at(Timestamp::new(1099), start), 0.0);
        assert_eq!(p.intensity_at(Timestamp::new(1100), start), 5.0);
    }

    #[test]
    fn bursty_average_load_is_duty_cycle() {
        let p =
            BurstPattern::Bursty { period_secs: 100, burst_secs: 25, multiplier: 4.0, idle_fraction: 0.0 };
        let start = Timestamp::new(0);
        let avg: f64 = (0..1000).map(|t| p.intensity_at(Timestamp::new(t), start)).sum::<f64>() / 1000.0;
        assert!((avg - 1.0).abs() < 0.05, "25% duty at 4x ≈ 1x average, got {avg}");
    }

    #[test]
    fn workload_active_window_and_profile() {
        let w = ExternalWorkload::steady(
            "etl",
            "app-server",
            "V3",
            IoProfile::oltp(100.0, 100.0),
            window(1000, 500),
        );
        assert!(!w.is_active_at(Timestamp::new(999)));
        assert!(w.is_active_at(Timestamp::new(1000)));
        assert!(w.is_active_at(Timestamp::new(1499)));
        assert!(!w.is_active_at(Timestamp::new(1500)));
        assert_eq!(w.profile_at(Timestamp::new(100)).total_iops(), 0.0);
        assert_eq!(w.profile_at(Timestamp::new(1200)).total_iops(), 200.0);
    }

    #[test]
    fn bursty_workload_profile_scales() {
        let w = ExternalWorkload::bursty(
            "burst",
            "app-server",
            "V2",
            IoProfile::batch_write(100.0),
            BurstPattern::Bursty { period_secs: 60, burst_secs: 10, multiplier: 3.0, idle_fraction: 0.1 },
            window(0, 600),
        );
        let during_burst = w.profile_at(Timestamp::new(5));
        let between = w.profile_at(Timestamp::new(30));
        assert!(during_burst.write_iops > between.write_iops * 10.0);
    }
}
