//! Live counters: the servers' own `stats` documents, flattened so two
//! snapshots can be subtracted.

use bfly_common::Json;

/// The counters of one `stats` reply, summed over nodes where a router
/// merged several.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Per shard, in node order: processed, shed, queue depth, batch
    /// submits, batch transactions, subscriber drops.
    pub shards: Vec<ShardCounters>,
    pub reactor_wakeups: u64,
    pub reactor_partial_writes: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    /// Requests the router forwarded to nodes.
    pub forwarded: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    pub processed: u64,
    pub shed: u64,
    pub queue_depth: u64,
    pub batch_submits: u64,
    pub batch_tx: u64,
    pub subscriber_drops: u64,
}

fn u64_at(v: &Json, path: &[&str]) -> u64 {
    let mut cur = Some(v);
    for p in path {
        cur = cur.and_then(|c| c.get(p));
    }
    cur.and_then(Json::as_u64).unwrap_or(0)
}

impl Counters {
    pub fn from_stats(doc: &Json) -> Counters {
        let mut c = Counters::default();
        let nodes: Vec<&Json> = if doc.get("role").and_then(Json::as_str) == Some("router") {
            c.forwarded = doc
                .get("forward")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|f| u64_at(f, &["requests"]))
                .sum();
            doc.get("nodes")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|n| n.get("stats"))
                .collect()
        } else {
            vec![doc]
        };
        for n in nodes {
            c.reactor_wakeups += u64_at(n, &["reactor", "wakeups"]);
            c.reactor_partial_writes += u64_at(n, &["reactor", "partial_writes"]);
            c.wal_bytes += u64_at(n, &["wal", "bytes_appended"]);
            c.wal_fsyncs += u64_at(n, &["wal", "fsyncs"]);
            for s in n.get("per_shard").and_then(Json::as_array).unwrap_or(&[]) {
                c.shards.push(ShardCounters {
                    processed: u64_at(s, &["processed"]),
                    shed: u64_at(s, &["shed"]),
                    queue_depth: u64_at(s, &["queue_depth"]),
                    batch_submits: u64_at(s, &["batch_submits"]),
                    batch_tx: u64_at(s, &["batch_tx"]),
                    subscriber_drops: u64_at(s, &["subscriber_drops"]),
                });
            }
        }
        c
    }

    /// Counter growth from `before` to `self` (gauges keep `self`'s value).
    pub fn since(&self, before: &Counters) -> Counters {
        let shards = self
            .shards
            .iter()
            .zip(
                before
                    .shards
                    .iter()
                    .chain(std::iter::repeat(&ShardCounters::default())),
            )
            .map(|(a, b)| ShardCounters {
                processed: a.processed - b.processed,
                shed: a.shed - b.shed,
                queue_depth: a.queue_depth,
                batch_submits: a.batch_submits - b.batch_submits,
                batch_tx: a.batch_tx - b.batch_tx,
                subscriber_drops: a.subscriber_drops - b.subscriber_drops,
            })
            .collect();
        Counters {
            shards,
            reactor_wakeups: self.reactor_wakeups - before.reactor_wakeups,
            reactor_partial_writes: self.reactor_partial_writes - before.reactor_partial_writes,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
            forwarded: self.forwarded - before.forwarded,
        }
    }

    /// The sum of two counter growths, shard by shard (gauges keep the
    /// larger value).
    pub fn plus(&self, other: &Counters) -> Counters {
        let n = self.shards.len().max(other.shards.len());
        let at = |c: &Counters, i: usize| c.shards.get(i).copied().unwrap_or_default();
        let shards = (0..n)
            .map(|i| {
                let (a, b) = (at(self, i), at(other, i));
                ShardCounters {
                    processed: a.processed + b.processed,
                    shed: a.shed + b.shed,
                    queue_depth: a.queue_depth.max(b.queue_depth),
                    batch_submits: a.batch_submits + b.batch_submits,
                    batch_tx: a.batch_tx + b.batch_tx,
                    subscriber_drops: a.subscriber_drops + b.subscriber_drops,
                }
            })
            .collect();
        Counters {
            shards,
            reactor_wakeups: self.reactor_wakeups + other.reactor_wakeups,
            reactor_partial_writes: self.reactor_partial_writes + other.reactor_partial_writes,
            wal_bytes: self.wal_bytes + other.wal_bytes,
            wal_fsyncs: self.wal_fsyncs + other.wal_fsyncs,
            forwarded: self.forwarded + other.forwarded,
        }
    }

    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    pub fn max_queue_depth(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_depth).max().unwrap_or(0)
    }

    pub fn subscriber_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.subscriber_drops).sum()
    }

    /// Transactions per queue submission.
    pub fn tx_per_submit(&self) -> f64 {
        let submits: u64 = self.shards.iter().map(|s| s.batch_submits).sum();
        let tx: u64 = self.shards.iter().map(|s| s.batch_tx).sum();
        tx as f64 / submits.max(1) as f64
    }

    /// Largest over smallest per-shard processed count.
    pub fn skew(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.processed).max().unwrap_or(0);
        let min = self.shards.iter().map(|s| s.processed).min().unwrap_or(0);
        max as f64 / min.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_stats_sum_their_nodes() {
        let node = |p: u64| {
            format!(
                "{{\"role\":\"node\",\"per_shard\":[{{\"processed\":{p},\"shed\":1,\"queue_depth\":3,\
                 \"batch_submits\":2,\"batch_tx\":8,\"subscriber_drops\":0}}],\
                 \"reactor\":{{\"wakeups\":5,\"partial_writes\":0}},\"wal\":{{\"bytes_appended\":100,\"fsyncs\":2}}}}"
            )
        };
        let doc = format!(
            "{{\"role\":\"router\",\"forward\":[{{\"requests\":7}},{{\"requests\":4}}],\
             \"nodes\":[{{\"stats\":{}}},{{\"stats\":{}}}]}}",
            node(10),
            node(30)
        );
        let c = Counters::from_stats(&Json::parse(&doc).unwrap());
        assert_eq!(c.processed(), 40);
        assert_eq!(c.forwarded, 11);
        assert_eq!(c.wal_fsyncs, 4);
        assert_eq!(c.skew(), 3.0);
        assert_eq!(c.tx_per_submit(), 4.0);
        let d = c.since(&Counters::default());
        assert_eq!(d.processed(), 40);
        let twice = Counters::default().plus(&d).plus(&d);
        assert_eq!(twice.processed(), 80);
        assert_eq!(twice.forwarded, 22);
        assert_eq!(twice.skew(), 3.0);
        assert_eq!(twice.max_queue_depth(), 3);
    }
}
