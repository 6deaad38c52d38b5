//! The simulation clock: timestamps, durations and half-open time ranges.
//!
//! All times in the reproduction are expressed in whole seconds of *simulated* time
//! since the start of the experiment. Query runs, monitoring samples and events are all
//! stamped with the same clock so that APG annotations can slice a component's metric
//! series to an operator's `[start, stop]` window, exactly as Section 3 describes.

/// A point in simulated time (seconds since the start of the simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The start of simulated time.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp at the given number of seconds.
    pub fn new(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Seconds since the start of the simulation.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// This timestamp advanced by a duration.
    pub fn plus(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0)
    }

    /// This timestamp moved back by a duration (saturating at zero).
    pub fn minus(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }

    /// The duration elapsed since an earlier timestamp (zero if `earlier` is later).
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{}s", self.0)
    }
}

/// A length of simulated time, in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// A zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration of the given number of seconds.
    pub fn from_secs(secs: u64) -> Self {
        Duration(secs)
    }

    /// Creates a duration of the given number of minutes.
    pub fn from_mins(mins: u64) -> Self {
        Duration(mins * 60)
    }

    /// Creates a duration of the given number of hours.
    pub fn from_hours(hours: u64) -> Self {
        Duration(hours * 3600)
    }

    /// Length in seconds.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Sum of two durations.
    pub fn plus(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }

    /// Scales the duration by a non-negative factor, rounding to whole seconds.
    pub fn scale(self, factor: f64) -> Duration {
        Duration((self.0 as f64 * factor.max(0.0)).round() as u64)
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}s", self.0)
    }
}

/// A half-open interval of simulated time `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// Inclusive start of the range.
    pub start: Timestamp,
    /// Exclusive end of the range.
    pub end: Timestamp,
}

impl TimeRange {
    /// Creates a range; if `end < start` the range is empty (`end == start`).
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        let end = end.max(start);
        TimeRange { start, end }
    }

    /// Creates a range starting at `start` with the given length.
    pub fn with_duration(start: Timestamp, d: Duration) -> Self {
        TimeRange { start, end: start.plus(d) }
    }

    /// Length of the range.
    pub fn duration(&self) -> Duration {
        self.end.since(self.start)
    }

    /// Whether the range contains the timestamp (`start <= t < end`).
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether this range and another overlap at all.
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl std::fmt::Display for TimeRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::new(100);
        assert_eq!(t.plus(Duration::from_secs(20)).as_secs(), 120);
        assert_eq!(t.minus(Duration::from_secs(150)), Timestamp::ZERO);
        assert_eq!(t.since(Timestamp::new(40)), Duration::from_secs(60));
        assert_eq!(Timestamp::new(40).since(t), Duration::ZERO);
    }

    #[test]
    fn duration_constructors_and_scaling() {
        assert_eq!(Duration::from_mins(5).as_secs(), 300);
        assert_eq!(Duration::from_hours(2).as_secs(), 7200);
        assert_eq!(Duration::from_secs(100).scale(1.5).as_secs(), 150);
        assert_eq!(Duration::from_secs(100).scale(-2.0), Duration::ZERO);
        assert_eq!(Duration::from_secs(10).plus(Duration::from_secs(5)).as_secs(), 15);
    }

    #[test]
    fn range_contains_and_overlaps() {
        let r = TimeRange::new(Timestamp::new(10), Timestamp::new(20));
        assert!(r.contains(Timestamp::new(10)));
        assert!(r.contains(Timestamp::new(19)));
        assert!(!r.contains(Timestamp::new(20)));
        assert!(!r.contains(Timestamp::new(5)));
        assert_eq!(r.duration(), Duration::from_secs(10));

        let other = TimeRange::new(Timestamp::new(19), Timestamp::new(30));
        assert!(r.overlaps(&other));
        let disjoint = TimeRange::new(Timestamp::new(20), Timestamp::new(30));
        assert!(!r.overlaps(&disjoint));
    }

    #[test]
    fn degenerate_range_is_empty() {
        let r = TimeRange::new(Timestamp::new(30), Timestamp::new(10));
        assert!(r.is_empty());
        assert_eq!(r.duration(), Duration::ZERO);
        assert!(!r.contains(Timestamp::new(30)));
    }

    #[test]
    fn with_duration_and_display() {
        let r = TimeRange::with_duration(Timestamp::new(60), Duration::from_mins(1));
        assert_eq!(r.end, Timestamp::new(120));
        assert_eq!(format!("{r}"), "[t+60s, t+120s)");
    }
}
