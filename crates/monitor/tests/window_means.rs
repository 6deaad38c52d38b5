//! Property test: `TimeSeries::means_in` — one forward walk over a series, which
//! scans a few points and gallops past longer gaps — is bit-identical to calling
//! `TimeSeries::mean_in` once per window, whatever the window list looks like.
//!
//! Cases come from the workspace's splitmix64 PRNG with fixed seeds, so a failure
//! reproduces from the printed seed.

use diads_monitor::rng::SplitMix64;
use diads_monitor::series::TimeSeries;
use diads_monitor::time::{TimeRange, Timestamp};

const CASES: u64 = 300;

fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n.max(1)
}

/// A series with clustered and duplicate timestamps, pushed partly out of order.
fn series(rng: &mut SplitMix64) -> TimeSeries {
    let mut s = TimeSeries::new();
    let n = below(rng, 200);
    let mut t = 0;
    for _ in 0..n {
        t += below(rng, 40);
        let time = if below(rng, 10) == 0 { below(rng, t + 1) } else { t };
        s.push(Timestamp::new(time), rng.next_normal(50.0, 20.0));
    }
    s
}

/// A window of one of the shapes the walk must handle: ordinary, zero-width,
/// inverted-then-emptied by `TimeRange::new`, wide, or past the end of the series.
fn window(rng: &mut SplitMix64, horizon: u64) -> TimeRange {
    let start = below(rng, horizon + 1);
    let end = match below(rng, 6) {
        0 => start,
        1 => start.saturating_sub(below(rng, 100)),
        2 => start + below(rng, horizon + 1),
        3 => {
            return TimeRange::new(
                Timestamp::new(horizon + 1 + below(rng, 50)),
                Timestamp::new(horizon * 2 + 60),
            )
        }
        _ => start + below(rng, 120),
    };
    TimeRange::new(Timestamp::new(start), Timestamp::new(end))
}

fn assert_walk_matches(series: &TimeSeries, windows: &[TimeRange], seed: u64, shape: &str) {
    let walked: Vec<Option<u64>> =
        series.means_in(windows.iter().copied()).map(|m| m.map(f64::to_bits)).collect();
    let direct: Vec<Option<u64>> = windows.iter().map(|w| series.mean_in(*w).map(f64::to_bits)).collect();
    assert_eq!(walked, direct, "seed {seed}, {shape} windows {windows:?}");
}

#[test]
fn means_in_matches_mean_in_bit_for_bit() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let s = series(&mut rng);
        let horizon = s.latest().map_or(100, |p| p.time.as_secs() + 20);
        let count = below(&mut rng, 40) as usize;
        let mut windows: Vec<TimeRange> = (0..count).map(|_| window(&mut rng, horizon)).collect();
        assert_walk_matches(&s, &windows, seed, "random-order");
        windows.sort_by_key(|w| (w.start, w.end));
        assert_walk_matches(&s, &windows, seed, "sorted");
        windows.reverse();
        assert_walk_matches(&s, &windows, seed, "reversed");
    }
}

#[test]
fn means_in_handles_overlapping_run_windows() {
    // Padded run windows: each overlaps its neighbours, like a run history's.
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        let s = series(&mut rng);
        let mut start = below(&mut rng, 50);
        let windows: Vec<TimeRange> = (0..below(&mut rng, 30))
            .map(|_| {
                start += below(&mut rng, 60);
                TimeRange::new(Timestamp::new(start.saturating_sub(300)), Timestamp::new(start + 300))
            })
            .collect();
        assert_walk_matches(&s, &windows, seed, "overlapping");
    }
}

#[test]
fn means_in_matches_mean_in_on_both_sides_of_the_scan_span() {
    // Consecutive windows start 1, 31, 32, 33 and 500 points apart, so a seek lands
    // inside the linear scan, just past it and far past it. Widths vary the same way
    // for the seek to each window's end.
    let mut rng = SplitMix64::new(0x5ca7);
    let mut s = TimeSeries::new();
    for i in 0..2_400 {
        s.push(Timestamp::new(i * 10), rng.next_normal(50.0, 20.0));
    }
    let gaps = [1, 31, 32, 33, 500];
    let widths = [0, 1, 3, 31, 32, 33, 40];
    let mut windows = Vec::new();
    let mut point = 0;
    for k in 0.. {
        point += gaps[k % gaps.len()];
        if point >= s.len() as u64 {
            break;
        }
        // Every other window starts between two points rather than on one.
        let start = point * 10 - (k as u64 % 2) * 5;
        let end = start + widths[k % widths.len()] * 10;
        windows.push(TimeRange::new(Timestamp::new(start), Timestamp::new(end)));
    }
    assert!(windows.len() >= 20, "{} windows", windows.len());
    assert_walk_matches(&s, &windows, 0x5ca7, "scan-span");
}

#[test]
fn means_in_edge_cases() {
    let empty = TimeSeries::new();
    let w = TimeRange::new(Timestamp::new(0), Timestamp::new(10));
    assert_eq!(empty.means_in([w, w]).collect::<Vec<_>>(), vec![None, None]);
    assert_eq!(empty.means_in(std::iter::empty()).count(), 0);

    let mut s = TimeSeries::new();
    for t in [10, 10, 20, 30, 30, 30] {
        s.push(Timestamp::new(t), t as f64);
    }
    let at = |a, b| TimeRange::new(Timestamp::new(a), Timestamp::new(b));
    let means: Vec<Option<f64>> =
        s.means_in([at(10, 11), at(30, 30), at(0, 100), at(31, 40), at(20, 31)]).collect();
    assert_eq!(means, vec![Some(10.0), None, Some(130.0 / 6.0), None, Some(27.5)]);
}
