//! Time series of metric observations.

use crate::time::{TimeRange, Timestamp};

/// One observation of a metric at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPoint {
    /// When the observation was taken.
    pub time: Timestamp,
    /// The observed value.
    pub value: f64,
}

impl DataPoint {
    /// Creates a data point.
    pub fn new(time: Timestamp, value: f64) -> Self {
        DataPoint { time, value }
    }
}

/// A time-ordered series of observations for one (component, metric) pair.
///
/// Points are kept sorted by timestamp; appending out-of-order points is allowed (the
/// collector may flush intervals late) and handled by insertion into the right place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<DataPoint>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Creates a series from unsorted points.
    pub fn from_points(mut points: Vec<DataPoint>) -> Self {
        points.sort_by_key(|p| p.time);
        TimeSeries { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points in time order.
    pub fn points(&self) -> &[DataPoint] {
        &self.points
    }

    /// Appends an observation, keeping the series sorted.
    ///
    /// Returns `true` when the observation extended the tail (it was in timestamp
    /// order) and `false` when it had to be inserted before existing points — the
    /// signal epoch-aware stores use to detect that suffix-based deltas went stale.
    pub fn push(&mut self, time: Timestamp, value: f64) -> bool {
        let point = DataPoint::new(time, value);
        match self.points.last() {
            Some(last) if last.time <= time => {
                self.points.push(point);
                true
            }
            None => {
                self.points.push(point);
                true
            }
            _ => {
                let idx = self.points.partition_point(|p| p.time <= time);
                self.points.insert(idx, point);
                false
            }
        }
    }

    /// The last observation, if any.
    pub fn latest(&self) -> Option<DataPoint> {
        self.points.last().copied()
    }

    /// Points whose timestamps fall within the half-open range `[start, end)`.
    pub fn range(&self, range: TimeRange) -> &[DataPoint] {
        let lo = self.points.partition_point(|p| p.time < range.start);
        let hi = self.points.partition_point(|p| p.time < range.end);
        &self.points[lo..hi]
    }

    /// Iterates over the values within a range without allocating.
    pub fn iter_in(&self, range: TimeRange) -> impl Iterator<Item = f64> + '_ {
        self.range(range).iter().map(|p| p.value)
    }

    /// Mean of the values within a range, if the range contains any points.
    pub fn mean_in(&self, range: TimeRange) -> Option<f64> {
        mean_of(self.range(range))
    }

    /// The [`TimeSeries::mean_in`] of every window, in the order given, from one
    /// forward walk over the series.
    ///
    /// A cursor stays on the first point of the previous window and gallops forward
    /// to each window's start and end, so windows given in start order (a run
    /// history's padded run windows) cost O(log gap) each instead of two binary
    /// searches over the whole series. A window that starts before the previous one
    /// restarts the cursor from the front, so any order is correct, just slower.
    /// Each mean sums the same slice in the same order as `mean_in`: the values are
    /// bit-identical to calling it per window.
    pub fn means_in<'a, I>(&'a self, windows: I) -> impl Iterator<Item = Option<f64>> + use<'a, I>
    where
        I: IntoIterator<Item = TimeRange>,
    {
        let points = self.points.as_slice();
        let mut cursor = 0;
        let mut previous_start = Timestamp::ZERO;
        windows.into_iter().map(move |window| {
            if window.start < previous_start {
                cursor = 0;
            }
            previous_start = window.start;
            cursor = seek(points, cursor, window.start);
            let end = seek(points, cursor, window.end);
            mean_of(&points[cursor..end])
        })
    }

    /// Maximum value within a range, if any.
    pub fn max_in(&self, range: TimeRange) -> Option<f64> {
        self.range(range).iter().map(|p| p.value).fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.max(v)),
        })
    }

    /// Sum of values within a range (0.0 if empty) — sensible for counter-style metrics.
    pub fn sum_in(&self, range: TimeRange) -> f64 {
        self.range(range).iter().map(|p| p.value).sum()
    }

    /// Down-samples the series to one averaged point per `bucket_secs` seconds.
    ///
    /// This models what a coarse monitoring interval does to bursty signals: the
    /// returned series places each averaged point at the *start* of its bucket.
    pub fn downsample(&self, bucket_secs: u64) -> TimeSeries {
        if bucket_secs == 0 || self.points.is_empty() {
            return self.clone();
        }
        let mut out = TimeSeries::new();
        let mut bucket_start = self.points[0].time.as_secs() / bucket_secs * bucket_secs;
        let mut sum = 0.0;
        let mut n = 0usize;
        for p in &self.points {
            let b = p.time.as_secs() / bucket_secs * bucket_secs;
            if b != bucket_start && n > 0 {
                out.push(Timestamp::new(bucket_start), sum / n as f64);
                sum = 0.0;
                n = 0;
                bucket_start = b;
            }
            sum += p.value;
            n += 1;
        }
        if n > 0 {
            out.push(Timestamp::new(bucket_start), sum / n as f64);
        }
        out
    }
}

/// Mean of a slice's values, `None` when it is empty.
fn mean_of(points: &[DataPoint]) -> Option<f64> {
    if points.is_empty() {
        return None;
    }
    Some(points.iter().map(|p| p.value).sum::<f64>() / points.len() as f64)
}

/// The first index at or after `from` whose point is not before `time`, found by
/// galloping: probe `from`, `from + 1`, `from + 3`, … until a probe reaches `time`,
/// then binary-search the last doubling. Requires every point before `from` to be
/// before `time`.
fn seek(points: &[DataPoint], from: usize, time: Timestamp) -> usize {
    let rest = &points[from..];
    let mut end = 1;
    while end < rest.len() && rest[end - 1].time < time {
        end *= 2;
    }
    let end = end.min(rest.len());
    let start = end / 2;
    from + start + rest[start..end].partition_point(|p| p.time < time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn series() -> TimeSeries {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(Timestamp::new(i * 10), i as f64);
        }
        s
    }

    #[test]
    fn push_keeps_order_even_when_out_of_order() {
        let mut s = TimeSeries::new();
        assert!(s.push(Timestamp::new(20), 2.0), "first push is a tail append");
        assert!(!s.push(Timestamp::new(10), 1.0), "earlier timestamp is an insert");
        assert!(s.push(Timestamp::new(30), 3.0));
        assert!(!s.push(Timestamp::new(25), 2.5));
        let times: Vec<u64> = s.points().iter().map(|p| p.time.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 25, 30]);
        assert_eq!(s.latest().unwrap().value, 3.0);
    }

    #[test]
    fn from_points_sorts() {
        let s = TimeSeries::from_points(vec![
            DataPoint::new(Timestamp::new(5), 5.0),
            DataPoint::new(Timestamp::new(1), 1.0),
        ]);
        assert_eq!(s.points()[0].time, Timestamp::new(1));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn range_query_is_half_open() {
        let s = series();
        let r = TimeRange::new(Timestamp::new(20), Timestamp::new(50));
        let vals: Vec<f64> = s.iter_in(r).collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
        assert_eq!(s.range(TimeRange::new(Timestamp::new(200), Timestamp::new(300))).len(), 0);
    }

    #[test]
    fn aggregations_in_range() {
        let s = series();
        let r = TimeRange::new(Timestamp::new(0), Timestamp::new(100));
        assert_eq!(s.mean_in(r), Some(4.5));
        assert_eq!(s.max_in(r), Some(9.0));
        assert_eq!(s.sum_in(r), 45.0);
        let empty = TimeRange::new(Timestamp::new(500), Timestamp::new(600));
        assert_eq!(s.mean_in(empty), None);
        assert_eq!(s.max_in(empty), None);
        assert_eq!(s.sum_in(empty), 0.0);
    }

    #[test]
    fn downsample_averages_buckets() {
        let s = series(); // points every 10s for 100s
        let d = s.downsample(50);
        assert_eq!(d.len(), 2);
        // First bucket covers t=0..50 -> values 0..4, mean 2.0
        assert_eq!(d.points()[0].value, 2.0);
        assert_eq!(d.points()[0].time, Timestamp::new(0));
        // Second bucket covers t=50..100 -> values 5..9, mean 7.0
        assert_eq!(d.points()[1].value, 7.0);
    }

    #[test]
    fn downsample_smooths_bursts() {
        // A burst of 100 for one sample inside an otherwise-idle 5-minute interval
        // nearly disappears after averaging — the paper's "noisy data" effect.
        let mut s = TimeSeries::new();
        for i in 0..30 {
            s.push(Timestamp::new(i * 10), if i == 7 { 100.0 } else { 1.0 });
        }
        let d = s.downsample(Duration::from_mins(5).as_secs());
        assert_eq!(d.len(), 1);
        assert!(d.points()[0].value < 5.0);
    }

    #[test]
    fn downsample_zero_bucket_is_identity() {
        let s = series();
        assert_eq!(s.downsample(0), s);
        assert_eq!(TimeSeries::new().downsample(60).len(), 0);
    }
}
