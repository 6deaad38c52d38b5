//! Lock-contention model.
//!
//! Scenario 5 of Table 1 injects a *locking-based* database problem: some other session
//! holds conflicting locks on a table the report query scans, so its runs slow down
//! with no SAN symptom at all. The lock manager tracks contention windows per table and
//! charges scan operators a wait time when their run overlaps such a window; it also
//! feeds the `locksHeld` / `lockWaitTime` database metrics.

use diads_monitor::{TimeRange, Timestamp};

/// A window during which another session holds conflicting locks on a table.
#[derive(Debug, Clone, PartialEq)]
pub struct LockContentionWindow {
    /// The locked table.
    pub table: String,
    /// When the contention is in effect.
    pub window: TimeRange,
    /// Average seconds a scan of the table has to wait during the window.
    pub wait_secs_per_scan: f64,
}

/// Tracks lock-contention windows injected into the testbed.
#[derive(Debug, Clone, Default)]
pub struct LockManager {
    windows: Vec<LockContentionWindow>,
}

impl LockManager {
    /// Creates a lock manager with no contention.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a contention window.
    pub fn add_contention(&mut self, window: LockContentionWindow) {
        self.windows.push(window);
    }

    /// All registered windows.
    pub fn windows(&self) -> &[LockContentionWindow] {
        &self.windows
    }

    /// The wait a scan of `table` starting at `t` experiences (seconds).
    pub fn wait_secs(&self, table: &str, t: Timestamp) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.table == table && w.window.contains(t))
            .map(|w| w.wait_secs_per_scan)
            .sum()
    }

    /// Number of extra conflicting locks held at `t` (for the `locksHeld` metric).
    pub fn locks_held(&self, t: Timestamp) -> u64 {
        self.windows.iter().filter(|w| w.window.contains(t)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diads_monitor::Duration;

    fn manager() -> LockManager {
        let mut m = LockManager::new();
        m.add_contention(LockContentionWindow {
            table: "partsupp".into(),
            window: TimeRange::with_duration(Timestamp::new(1_000), Duration::from_hours(2)),
            wait_secs_per_scan: 45.0,
        });
        m
    }

    #[test]
    fn wait_applies_only_inside_the_window_and_table() {
        let m = manager();
        assert_eq!(m.wait_secs("partsupp", Timestamp::new(2_000)), 45.0);
        assert_eq!(m.wait_secs("partsupp", Timestamp::new(999)), 0.0);
        assert_eq!(m.wait_secs("partsupp", Timestamp::new(1_000 + 7_200)), 0.0);
        assert_eq!(m.wait_secs("part", Timestamp::new(2_000)), 0.0);
    }

    #[test]
    fn overlapping_windows_accumulate() {
        let mut m = manager();
        m.add_contention(LockContentionWindow {
            table: "partsupp".into(),
            window: TimeRange::with_duration(Timestamp::new(1_500), Duration::from_mins(30)),
            wait_secs_per_scan: 15.0,
        });
        assert_eq!(m.wait_secs("partsupp", Timestamp::new(1_600)), 60.0);
        assert_eq!(m.locks_held(Timestamp::new(1_600)), 2);
        assert_eq!(m.locks_held(Timestamp::new(100)), 0);
        assert_eq!(m.windows().len(), 2);
    }
}
