//! Summary statistics: the percentile rule, medians, per-op normalisation
//! and the windowed end-to-end summary.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least a `q` share of all samples at or below it. No
/// interpolation, so every reported latency is one that was observed.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps exact ranks exact: 0.99 * 100 is 99.000…01 in f64.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `n` samples support the `q` percentile: at least ten samples
/// must lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// Median of unordered values; the mean of the two middle values for an
/// even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A layer's total over the timed phase divided by the ops completed in
/// it; 0 when no op completed (nothing to attribute to).
pub fn per_op(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

/// Growth of a monotonic counter between two readings. A reading that
/// went backwards means the counter was recreated (a restarted replica),
/// so everything it holds accrued after the earlier reading.
pub fn growth(before: u64, after: u64) -> u64 {
    if after >= before {
        after - before
    } else {
        after
    }
}

/// One completed client op, in nanoseconds from the start of the timed
/// phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTime {
    /// When the client issued the op.
    pub start: u64,
    /// When the op's result reached the client.
    pub end: u64,
}

impl OpTime {
    /// Client-observed latency.
    pub fn latency(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One window of a timed phase: the ops whose results arrived in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Ops completed.
    pub ops: usize,
    /// Completed ops per second.
    pub rate: f64,
    /// p50 latency, µs.
    pub p50_us: f64,
    /// p99 latency, µs.
    pub p99_us: f64,
}

/// Cut `[0, phase_ns)` into `window_ns` windows and summarise the ops
/// whose results arrived in each; a trailing partial window and ops
/// completing after the phase are left out, as are empty windows.
pub fn windows(ops: &[OpTime], window_ns: u64, phase_ns: u64) -> Vec<Window> {
    let n = (phase_ns / window_ns.max(1)) as usize;
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); n];
    for op in ops {
        let w = (op.end / window_ns) as usize;
        if w < n {
            lat[w].push(op.latency());
        }
    }
    lat.into_iter()
        .filter(|l| !l.is_empty())
        .map(|mut l| {
            l.sort_unstable();
            let us = |q| percentile(&l, q).unwrap_or(0) as f64 / 1e3;
            Window {
                ops: l.len(),
                rate: l.len() as f64 * 1e9 / window_ns as f64,
                p50_us: us(0.50),
                p99_us: us(0.99),
            }
        })
        .collect()
}

/// End-to-end figures of a run, taken from the better end of its
/// windows. Other tenants of a shared machine only ever slow a window
/// down, and on a small VM they can disturb most of a run; the program's
/// own cost is in every window. So each figure is the tenth-best window
/// by nearest rank: up to nine windows in ten can be disturbed without
/// moving it, while a change that slows every op moves it fully.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Completed ops per second.
    pub ops_per_s: f64,
    /// p50 latency, µs.
    pub p50_us: f64,
    /// p99 latency, µs, over the windows with enough ops to support a
    /// p99 (all windows if none has).
    pub p99_us: f64,
}

/// The share of windows a figure may be better than.
const BEST_SHARE: f64 = 0.10;

/// The figures of `ws`; `None` when empty.
pub fn summarize(ws: &[Window]) -> Option<Windowed> {
    let low = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        percentile(&v, BEST_SHARE)
    };
    let supported: Vec<f64> = ws
        .iter()
        .filter(|w| supports(w.ops, 0.99))
        .map(|w| w.p99_us)
        .collect();
    let p99 = if supported.is_empty() {
        ws.iter().map(|w| w.p99_us).collect()
    } else {
        supported
    };
    Some(Windowed {
        // Negated so the best (highest) rates sort first.
        ops_per_s: -low(ws.iter().map(|w| -w.rate).collect())?,
        p50_us: low(ws.iter().map(|w| w.p50_us).collect())?,
        p99_us: low(p99)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[1, 2, 3], 0.5), Some(2));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(10_000, 0.999));
        assert!(!supports(9_999, 0.999));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn per_op_normalises_and_guards_zero_ops() {
        assert_eq!(per_op(1500.0, 10), 150.0);
        assert_eq!(per_op(1500.0, 0), 0.0);
        assert_eq!(growth(10, 25), 15);
        assert_eq!(growth(10, 4), 4, "a recreated counter counts from zero");
    }

    #[test]
    fn windows_drop_partial_tails_and_figures_take_the_better_end() {
        let ms = 1_000_000u64;
        let mut ops = Vec::new();
        // Window 0: 4 ops of 1 ms; window 1: 2 ops of 3 ms; window 2: 4
        // ops of 2 ms; then one op ending past the 3-window phase.
        for i in 0..4 {
            ops.push(OpTime {
                start: i * 100 * ms,
                end: i * 100 * ms + ms,
            });
        }
        for i in 0..2 {
            ops.push(OpTime {
                start: 1000 * ms + i * 100 * ms,
                end: 1003 * ms + i * 100 * ms,
            });
        }
        for i in 0..4 {
            ops.push(OpTime {
                start: 2000 * ms + i * 100 * ms,
                end: 2002 * ms + i * 100 * ms,
            });
        }
        ops.push(OpTime {
            start: 2999 * ms,
            end: 3001 * ms,
        });
        let ws = windows(&ops, 1000 * ms, 3500 * ms);
        let rates: Vec<f64> = ws.iter().map(|w| w.rate).collect();
        assert_eq!(rates, [4.0, 2.0, 4.0]);
        let w = summarize(&ws).unwrap();
        assert_eq!(w.ops_per_s, 4.0);
        assert_eq!(w.p50_us, 1000.0);
        assert_eq!(w.p99_us, 1000.0);
    }

    #[test]
    fn figures_ignore_disturbed_windows_but_not_a_slower_program() {
        let w = |rate: f64, lat: f64| Window {
            ops: 2000,
            rate,
            p50_us: lat,
            p99_us: 2.0 * lat,
        };
        // Twenty windows, eighteen of them slowed by interference.
        let mut ws: Vec<Window> = (0..18)
            .map(|i| w(500.0 + i as f64, 900.0 - i as f64))
            .collect();
        ws.push(w(1000.0, 100.0));
        ws.push(w(1001.0, 101.0));
        let f = summarize(&ws).unwrap();
        assert_eq!((f.ops_per_s, f.p50_us, f.p99_us), (1000.0, 101.0, 202.0));
        // The same program 10% slower in every window reads 10% slower.
        let slower: Vec<Window> = ws.iter().map(|x| w(x.rate / 1.1, x.p50_us * 1.1)).collect();
        let g = summarize(&slower).unwrap();
        assert!((g.p50_us / f.p50_us - 1.1).abs() < 1e-9);
        assert!((f.ops_per_s / g.ops_per_s - 1.1).abs() < 1e-9);
        assert!(summarize(&[]).is_none());
    }
}
