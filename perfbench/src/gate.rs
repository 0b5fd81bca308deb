//! The correctness gate: replay each key's accepted records through
//! `ServeConfig::pipeline_for` and the serve encoders, then require the
//! subscriber's frames to match byte for byte, snapshots and deltas alike.

use crate::wire::RecvFrame;
use bfly_common::{FrameMode, ItemSet, Transaction};
use bfly_serve::protocol::{release_delta_frame_bytes, release_frame_bytes};
use bfly_serve::ServeConfig;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Binary op of a `release` snapshot frame.
pub const OP_RELEASE: u8 = 2;
/// Binary op of a `release_delta` frame.
pub const OP_DELTA: u8 = 3;

/// One publication as the server emits it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Publication {
    pub stream_len: u64,
    /// The full snapshot frame. Always built, since log catch-up serves a
    /// snapshot for every logged release.
    pub snapshot: Arc<[u8]>,
    /// The delta frame (only with `snapshot_every > 1`).
    pub delta: Option<Arc<[u8]>>,
    /// Whether the live stream carries the snapshot for this publication.
    pub live_snapshot: bool,
}

impl Publication {
    /// The frames a live subscriber receives, in order.
    pub fn live_frames(&self) -> impl Iterator<Item = (u8, &Arc<[u8]>)> {
        let delta = self.delta.as_ref().map(|d| (OP_DELTA, d));
        let snap = self.live_snapshot.then_some((OP_RELEASE, &self.snapshot));
        delta.into_iter().chain(snap)
    }
}

/// The live-emission cadence of the shard worker: a delta on every
/// publication when `snapshot_every > 1`, a snapshot on every
/// `snapshot_every`-th.
pub struct Cadence {
    snapshot_every: u64,
    published: u64,
    last_len: u64,
}

impl Cadence {
    pub fn new(cfg: &ServeConfig) -> Cadence {
        Cadence {
            snapshot_every: cfg.snapshot_every as u64,
            published: 0,
            last_len: 0,
        }
    }

    /// Publications so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// `(base_len for the delta, whether a snapshot ships)` for the next
    /// publication at `stream_len`, advancing the cadence.
    pub fn next(&mut self, stream_len: u64) -> (Option<u64>, bool) {
        let delta_base = (self.snapshot_every > 1).then_some(self.last_len);
        let snapshot =
            self.snapshot_every <= 1 || self.published.is_multiple_of(self.snapshot_every);
        self.published += 1;
        self.last_len = stream_len;
        (delta_base, snapshot)
    }
}

/// Replay one key's records exactly as a shard worker does and return every
/// publication.
pub fn replay_key(cfg: &ServeConfig, key: &str, records: &[ItemSet]) -> Vec<Publication> {
    let mut pipe = cfg.pipeline_for(key);
    let mut cadence = Cadence::new(cfg);
    let mut out = Vec::new();
    for items in records {
        pipe.advance(Transaction::new(0, items.clone()));
        if pipe.window().is_full() && pipe.since_publish() >= cfg.every {
            let r = pipe.publish_now().expect("full window cannot be partial");
            let (delta_base, live_snapshot) = cadence.next(r.stream_len);
            out.push(Publication {
                stream_len: r.stream_len,
                snapshot: release_frame_bytes(FrameMode::Binary, key, r.stream_len, &r.release),
                delta: delta_base.map(|base| {
                    release_delta_frame_bytes(FrameMode::Binary, key, r.stream_len, base, &r.delta)
                }),
                live_snapshot,
            });
        }
    }
    out
}

/// Replay every key on `threads` threads. `records[k]` is key `k`'s
/// accepted records in acceptance order.
pub fn replay_all(
    cfg: &ServeConfig,
    keys: &[String],
    records: &[Vec<ItemSet>],
    threads: usize,
) -> Vec<Vec<Publication>> {
    let mut out: Vec<Vec<Publication>> = vec![Vec::new(); keys.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                s.spawn(move || {
                    (t..keys.len())
                        .step_by(threads.max(1))
                        .map(|k| (k, replay_key(cfg, &keys[k], &records[k])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (k, pubs) in h.join().expect("gate replay panicked") {
                out[k] = pubs;
            }
        }
    });
    out
}

/// Outcome of checking one key's received frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Publications the subscriber should hold.
    pub expected: usize,
    /// Expected publications absent from the stream.
    pub missing: usize,
    /// Frames whose bytes differ from the replay, or that the replay never
    /// produced.
    pub mismatched: usize,
}

impl Verdict {
    pub fn failed(&self) -> usize {
        self.missing + self.mismatched
    }

    pub fn add(&mut self, other: Verdict) {
        self.expected += other.expected;
        self.missing += other.missing;
        self.mismatched += other.mismatched;
    }
}

/// A live subscriber that subscribed when the stream stood at `from_len`
/// must receive exactly the live frames of every publication in
/// `(from_len, to_len]`, in order. Frames past `to_len` are ignored.
pub fn check_live(pubs: &[Publication], from_len: u64, to_len: u64, got: &[RecvFrame]) -> Verdict {
    let want: Vec<(u8, u64, &Arc<[u8]>)> = pubs
        .iter()
        .filter(|p| p.stream_len > from_len && p.stream_len <= to_len)
        .flat_map(|p| p.live_frames().map(move |(op, b)| (op, p.stream_len, b)))
        .collect();
    let got: Vec<&RecvFrame> = got.iter().filter(|f| f.stream_len <= to_len).collect();
    let expected = pubs
        .iter()
        .filter(|p| p.stream_len > from_len && p.stream_len <= to_len)
        .count();
    let mut seen = HashSet::new();
    let mut mismatched = 0;
    for (i, f) in got.iter().enumerate() {
        match want.get(i) {
            Some(&(op, len, bytes)) if op == f.op && len == f.stream_len && **bytes == *f.bytes => {
                seen.insert(len);
            }
            _ => mismatched += 1,
        }
    }
    let missing = expected - seen.len().min(expected);
    Verdict {
        expected,
        missing,
        mismatched,
    }
}

/// A late `from: earliest` subscriber receives logged snapshots, then live
/// frames, possibly with stale duplicates in between. Every frame must be
/// one the server could have sent for its position, and every publication
/// from the oldest one received through `to_len` must be present.
pub fn check_catchup(pubs: &[Publication], to_len: u64, got: &[RecvFrame]) -> Verdict {
    let by_len: HashMap<u64, &Publication> = pubs.iter().map(|p| (p.stream_len, p)).collect();
    let got: Vec<&RecvFrame> = got.iter().filter(|f| f.stream_len <= to_len).collect();
    let mut mismatched = 0;
    let mut held = HashSet::new();
    for f in &got {
        let ok = by_len.get(&f.stream_len).is_some_and(|p| match f.op {
            OP_RELEASE => *p.snapshot == *f.bytes,
            OP_DELTA => p.delta.as_ref().is_some_and(|d| **d == *f.bytes),
            _ => false,
        });
        if ok {
            held.insert(f.stream_len);
        } else {
            mismatched += 1;
        }
    }
    let oldest = got.iter().map(|f| f.stream_len).min().unwrap_or(to_len);
    let expected = pubs
        .iter()
        .filter(|p| p.stream_len >= oldest && p.stream_len <= to_len)
        .count()
        .max(1);
    let present = pubs
        .iter()
        .filter(|p| {
            p.stream_len >= oldest && p.stream_len <= to_len && held.contains(&p.stream_len)
        })
        .count();
    Verdict {
        expected,
        missing: expected - present,
        mismatched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publication(len: u64, live_snapshot: bool) -> Publication {
        Publication {
            stream_len: len,
            snapshot: Arc::from(vec![OP_RELEASE, len as u8].into_boxed_slice()),
            delta: Some(Arc::from(vec![OP_DELTA, len as u8].into_boxed_slice())),
            live_snapshot,
        }
    }

    fn frame(op: u8, len: u64) -> RecvFrame {
        RecvFrame {
            op,
            stream_len: len,
            at_ns: 0,
            bytes: vec![op, len as u8],
        }
    }

    #[test]
    fn cadence_matches_the_shard_worker() {
        let cfg = ServeConfig {
            snapshot_every: 3,
            ..ServeConfig::default()
        };
        let mut c = Cadence::new(&cfg);
        assert_eq!(c.next(10), (Some(0), true));
        assert_eq!(c.next(20), (Some(10), false));
        assert_eq!(c.next(30), (Some(20), false));
        assert_eq!(c.next(40), (Some(30), true));
    }

    #[test]
    fn live_check_counts_missing_and_mismatched_frames() {
        let pubs = [
            publication(10, true),
            publication(20, false),
            publication(30, false),
        ];
        let good = [frame(OP_DELTA, 20), frame(OP_DELTA, 30)];
        assert_eq!(
            check_live(&pubs, 10, 30, &good),
            Verdict {
                expected: 2,
                missing: 0,
                mismatched: 0
            }
        );
        let mut bad = good.to_vec();
        bad[1].bytes[1] ^= 1;
        let v = check_live(&pubs, 10, 30, &bad);
        assert_eq!((v.missing, v.mismatched), (1, 1));
        let v = check_live(&pubs, 10, 30, &good[..1]);
        assert_eq!((v.missing, v.mismatched), (1, 0));
    }

    #[test]
    fn catchup_check_accepts_stale_duplicates_but_not_gaps() {
        let pubs = [
            publication(10, true),
            publication(20, false),
            publication(30, false),
        ];
        let got = [
            frame(OP_RELEASE, 10),
            frame(OP_RELEASE, 20),
            frame(OP_DELTA, 20),
            frame(OP_RELEASE, 30),
        ];
        assert_eq!(check_catchup(&pubs, 30, &got).failed(), 0);
        let gap = [frame(OP_RELEASE, 10), frame(OP_RELEASE, 30)];
        assert_eq!(check_catchup(&pubs, 30, &gap).missing, 1);
    }
}
