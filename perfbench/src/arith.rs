//! The benchmark's own arithmetic, kept free of I/O so it can be tested:
//! the percentile rule, latency against the intended send time, the join
//! from a release's `stream_len` to the batch that carried that record, and
//! span self time.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `(0, 1)`.
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond the reported
/// rank, so a p99 needs at least 1000 samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Most windows [`windowed_percentile`] splits a phase into.
pub const MAX_WINDOWS: usize = 5;

/// Percentile `q` of a phase's `(time, value)` samples, robust to one
/// disturbed stretch of the phase: the samples, in time order, are split
/// into as many consecutive windows (at most [`MAX_WINDOWS`]) as leave each
/// window enough samples for `q` by the percentile rule, and the median of
/// the windows' percentiles is reported. With one window this is
/// [`percentile`] of all samples. `None` when even one window is too small.
pub fn windowed_percentile(samples: &mut [(u64, f64)], q: f64) -> Option<f64> {
    samples.sort_by_key(|s| s.0);
    let n = samples.len();
    (1..=MAX_WINDOWS).rev().find_map(|k| {
        let per_window: Option<Vec<f64>> = (0..k)
            .map(|w| {
                let mut v: Vec<f64> = samples[w * n / k..(w + 1) * n / k]
                    .iter()
                    .map(|s| s.1)
                    .collect();
                v.sort_by(f64::total_cmp);
                percentile(&v, q)
            })
            .collect();
        per_window.map(|p| median(&p))
    })
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency of one operation in an open loop: completion minus the time the
/// schedule said it should have been sent. A generator stall delays the
/// actual send of every operation behind it, and that wait is counted.
pub fn latency_ns(intended_ns: u64, completed_ns: u64) -> u64 {
    completed_ns.saturating_sub(intended_ns)
}

/// Per-key ledger of accepted batches in acceptance order. Stream positions
/// are 1-based: the record that brings a stream to length `p` sits at
/// position `p`, which is what a release's `stream_len` names.
#[derive(Clone, Debug, Default)]
pub struct BatchLedger {
    /// Stream length before the ledger's first batch (history the ledger
    /// does not time, e.g. a recovered log).
    base: u64,
    /// Position of each batch's last record.
    ends: Vec<u64>,
    /// Intended send time of each batch.
    intended_ns: Vec<u64>,
}

impl BatchLedger {
    /// A ledger whose first batch starts after `base` records of history.
    pub fn with_base(base: u64) -> BatchLedger {
        BatchLedger {
            base,
            ..BatchLedger::default()
        }
    }

    /// Stream length after every accepted batch.
    pub fn len(&self) -> u64 {
        self.ends.last().copied().unwrap_or(self.base)
    }

    /// Record an accepted batch of `records` transactions.
    pub fn push(&mut self, records: u64, intended_ns: u64) {
        let end = self.len() + records;
        self.ends.push(end);
        self.intended_ns.push(intended_ns);
    }

    /// Intended send time of the batch that carried the record at
    /// `position`, or `None` if that record was history or never accepted.
    pub fn carrier_intended_ns(&self, position: u64) -> Option<u64> {
        if position <= self.base || position > self.len() {
            return None;
        }
        let idx = self.ends.partition_point(|&end| end < position);
        Some(self.intended_ns[idx])
    }
}

/// One traced call: name, interval, the span that caused it, and the
/// publication it belongs to (0 when none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub publication: u32,
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest or overlap each other; the
/// covered part is the union of their intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn windowed_percentile_takes_the_median_over_windows() {
        // 5000 samples of 1.0 in time order, with a stall of 100.0 values
        // covering the second fifth: every window supports p99, so the
        // stalled window's p99 is one of five and the median ignores it.
        let mut v: Vec<(u64, f64)> = (0..5000u64)
            .map(|t| {
                (
                    t,
                    if (1000..2000).contains(&t) {
                        100.0
                    } else {
                        1.0
                    },
                )
            })
            .collect();
        v.reverse();
        assert_eq!(windowed_percentile(&mut v, 0.99), Some(1.0));
        // 1500 samples support one p99 window only: the stall shows.
        let mut v: Vec<(u64, f64)> = (0..1500u64)
            .map(|t| (t, if t < 100 { 100.0 } else { 1.0 }))
            .collect();
        assert_eq!(windowed_percentile(&mut v, 0.99), Some(100.0));
        assert_eq!(windowed_percentile(&mut v[..999], 0.99), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_counts_the_wait_a_stall_imposes() {
        // A 1 ms schedule; the generator stalls for 50 ms before request 10,
        // then catches up by sending the backlog at once. Each reply comes
        // 100 µs after its actual send.
        let ms = 1_000_000;
        let intended: Vec<u64> = (0..20).map(|i| i * ms).collect();
        let sent: Vec<u64> = intended
            .iter()
            .map(|&t| {
                if t >= 10 * ms && t < 60 * ms {
                    60 * ms
                } else {
                    t
                }
            })
            .collect();
        let done: Vec<u64> = sent.iter().map(|&t| t + 100_000).collect();
        let lat: Vec<u64> = intended
            .iter()
            .zip(&done)
            .map(|(&i, &d)| latency_ns(i, d))
            .collect();
        assert_eq!(lat[9], 100_000);
        assert_eq!(lat[10], 50 * ms + 100_000);
        assert_eq!(lat[19], 41 * ms + 100_000);
        // Timed from the actual send, the stall would vanish.
        assert!(sent.iter().zip(&done).all(|(&s, &d)| d - s == 100_000));
    }

    #[test]
    fn release_joins_to_the_batch_that_carried_its_record() {
        let mut ledger = BatchLedger::with_base(2000);
        ledger.push(20, 5); // positions 2001..=2020
        ledger.push(20, 9); // 2021..=2040
        ledger.push(10, 12); // 2041..=2050
        assert_eq!(ledger.len(), 2050);
        assert_eq!(ledger.carrier_intended_ns(2000), None);
        assert_eq!(ledger.carrier_intended_ns(2001), Some(5));
        assert_eq!(ledger.carrier_intended_ns(2020), Some(5));
        assert_eq!(ledger.carrier_intended_ns(2021), Some(9));
        assert_eq!(ledger.carrier_intended_ns(2050), Some(12));
        assert_eq!(ledger.carrier_intended_ns(2051), None);
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            publication: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ child 10..50 ⊃ grandchild 20..30.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_parent() {
        // Children 10..40 and 30..60 overlap; 90..120 sticks out of 0..100.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }
}
