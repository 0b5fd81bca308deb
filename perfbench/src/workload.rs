//! The workloads: what the servers run, what the generator offers, and how
//! each run's volume follows from `--seconds`.

use bfly_core::BiasScheme;
use bfly_datagen::DatasetProfile;
use bfly_serve::ServeConfig;

/// How the serve tier is deployed for a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One node process with `shards` shard workers.
    Node,
    /// A stateless router over two one-shard nodes, each with a WAL that an
    /// untimed step prepared before the run.
    DurableRouted,
}

/// One workload: the serve config, the traffic shape, and the run sizing.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub topology: Topology,
    pub profile: DatasetProfile,
    /// Pipeline knobs shared by every server process (seed set per run).
    pub cfg: ServeConfig,
    /// Stream keys; every key is live-subscribed except the last `late`.
    pub keys: usize,
    /// Keys that get a late `subscribe from: earliest` during the first
    /// paced phase (durable-routed only).
    pub late: usize,
    /// Transactions per ingest request in the paced phase.
    pub batch: usize,
    /// Transactions per ingest request in the closed-loop phases (history,
    /// warm-up, bulk), so that capacity measures the pipeline rather than
    /// per-request overhead where the two differ.
    pub bulk_batch: usize,
    /// Publications per key the warm-up runs after filling the window.
    pub warm_publications: usize,
    /// Publications per key in the prepared log (durable-routed only).
    pub history_publications: usize,
    /// Bulk and paced phases alternate this many times, so that each
    /// metric samples the whole run rather than one stretch of it: the
    /// host's speed drifts by a fifth over a few seconds.
    pub rounds: usize,
    /// Bulk-phase volume per second of `--seconds`, in transactions.
    pub bulk_tx_per_s: usize,
    /// Share of `--seconds` the paced phases run, together.
    pub paced_share: f64,
    /// Offered rate of the paced phase, in transactions per second.
    pub paced_tx_s: usize,
    /// Spread the keys' paced publications evenly over time instead of
    /// letting every key publish in the same round of the round-robin.
    pub stagger: bool,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub fn all() -> Vec<Workload> {
        let defaults = ServeConfig {
            shards: 2,
            scheme: BiasScheme::Hybrid {
                lambda: 0.4,
                gamma: 2,
            },
            ..ServeConfig::default()
        };
        vec![
            Workload {
                name: "webview-publish",
                topology: Topology::Node,
                profile: DatasetProfile::WebView1,
                // The serve defaults, except that publications come every 25
                // records instead of 100, so that a p99 of freshness (1000
                // releases) fits in the run.
                cfg: ServeConfig {
                    every: 25,
                    ..defaults.clone()
                },
                keys: 8,
                late: 0,
                batch: 5,
                bulk_batch: 25,
                warm_publications: 4,
                history_publications: 0,
                rounds: 8,
                bulk_tx_per_s: 5_300,
                paced_share: 0.6,
                paced_tx_s: 2_000,
                // Every key enters the paced phase at a publication
                // boundary, so unstaggered all eight publish within one
                // 20 ms round and each waits behind the others on its shard:
                // freshness then measured the queue, which grows much
                // faster than the work as the host slows.
                stagger: true,
            },
            Workload {
                name: "durable-routed",
                topology: Topology::DurableRouted,
                profile: DatasetProfile::WebView1,
                // Light mining: the Eclat backend mines only at publication,
                // and at C = 40 of 100 records a couple of itemsets are
                // frequent, so mining and the DP idle while the wire, the
                // router and the log work on every one-record request.
                cfg: ServeConfig {
                    shards: 1,
                    window: 100,
                    c: 40,
                    every: 50,
                    snapshot_every: 4,
                    backend: bfly_mining::BackendKind::Eclat,
                    wal: Some(bfly_serve::WalConfig::new("wal")),
                    ..defaults
                },
                keys: 16,
                late: 2,
                batch: 1,
                bulk_batch: 1,
                warm_publications: 1,
                history_publications: 8,
                rounds: 1,
                bulk_tx_per_s: 20_000,
                paced_share: 0.75,
                paced_tx_s: 4_000,
                stagger: false,
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// Records per key that fill the window and run the warm-up
    /// publications (a publication boundary, so no drain flush follows).
    pub fn warm_records(&self) -> usize {
        if self.topology == Topology::DurableRouted {
            // The prepared log already filled every window.
            return self.warm_publications * self.cfg.every;
        }
        self.cfg.window + self.warm_publications * self.cfg.every
    }

    /// Records per key in the prepared log.
    pub fn history_records(&self) -> usize {
        match self.topology {
            Topology::Node => 0,
            Topology::DurableRouted => self.cfg.window + self.history_publications * self.cfg.every,
        }
    }

    /// Round `records` down to whole batches of `batch` that end on a
    /// publication boundary (at least one publication).
    fn whole_publications(&self, records: f64, batch: usize) -> usize {
        let unit = lcm(batch, self.cfg.every);
        ((records / unit as f64).floor() as usize).max(1) * unit
    }

    /// Records per key of each round's bulk phase.
    pub fn bulk_records(&self, seconds: f64) -> usize {
        let share = 1.0 - self.paced_share;
        self.whole_publications(
            self.bulk_tx_per_s as f64 * seconds * share / (self.keys * self.rounds) as f64,
            self.bulk_batch,
        )
    }

    /// Records per key of each round's paced phase.
    pub fn paced_records(&self, seconds: f64) -> usize {
        self.whole_publications(
            self.paced_tx_s as f64 * seconds * self.paced_share / (self.keys * self.rounds) as f64,
            self.batch,
        )
    }

    /// Interval between paced ingest requests, in nanoseconds.
    pub fn paced_interval_ns(&self) -> f64 {
        self.batch as f64 / self.paced_tx_s as f64 * 1e9
    }

    /// Per key, the rounds of the paced round-robin by which its first
    /// batch is held back. Slot `round * keys + k` carries key `k`'s batch
    /// of that round. A key publishes on every `every / batch`-th batch of
    /// its own, so with `stagger` its offset puts its publications on slots
    /// that are multiples of `every / batch`: over one cycle of
    /// `keys * every / batch` slots the keys then publish evenly spaced, one
    /// every `every / batch` slots (by the Chinese remainder theorem, which
    /// needs `keys` and `every / batch` coprime).
    pub fn paced_round_offsets(&self) -> Vec<usize> {
        let per_pub = self.cfg.every / self.batch;
        (0..self.keys)
            .map(|k| {
                if !self.stagger {
                    return 0;
                }
                (0..per_pub)
                    .find(|s| ((s + per_pub - 1) * self.keys + k).is_multiple_of(per_pub))
                    .expect("keys and every / batch are coprime")
            })
            .collect()
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

/// The `butterfly serve` flags that reproduce `cfg`'s pipeline knobs.
pub fn pipeline_flags(cfg: &ServeConfig) -> Vec<String> {
    let (lambda, gamma) = match cfg.scheme {
        BiasScheme::Hybrid { lambda, gamma } => (lambda, gamma),
        other => panic!("workloads use the hybrid scheme, not {other:?}"),
    };
    [
        ("--shards", cfg.shards.to_string()),
        ("--window", cfg.window.to_string()),
        ("--min-support", cfg.c.to_string()),
        ("--vulnerable", cfg.k.to_string()),
        ("--epsilon", cfg.epsilon.to_string()),
        ("--delta", cfg.delta.to_string()),
        ("--scheme", "hybrid".to_string()),
        ("--lambda", lambda.to_string()),
        ("--gamma", gamma.to_string()),
        ("--backend", cfg.backend.name().to_string()),
        ("--every", cfg.every.to_string()),
        ("--snapshot-every", cfg.snapshot_every.to_string()),
        ("--seed", cfg.seed.to_string()),
        // One pool thread per process: the shard workers already own the
        // cores, and a per-call pool on top of them oversubscribes.
        ("--threads", "1".to_string()),
    ]
    .into_iter()
    .flat_map(|(k, v)| [k.to_string(), v])
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_volumes_end_on_publication_boundaries() {
        for w in Workload::all() {
            for seconds in [1.0, 10.0, 17.0] {
                for (n, batch) in [
                    (w.bulk_records(seconds), w.bulk_batch),
                    (w.paced_records(seconds), w.batch),
                ] {
                    assert!(n > 0);
                    assert_eq!(n % w.cfg.every, 0, "{}", w.name);
                    assert_eq!(n % batch, 0, "{}", w.name);
                }
            }
            assert_eq!(w.warm_records() % w.bulk_batch, 0, "{}", w.name);
            assert_eq!(w.history_records() % w.bulk_batch, 0, "{}", w.name);
            assert!(w.cfg.validate().is_ok(), "{}", w.name);
            if w.stagger {
                assert_eq!(gcd(w.keys, w.cfg.every / w.batch), 1, "{}", w.name);
            }
            assert!(w.rounds >= 1, "{}", w.name);
        }
    }

    #[test]
    fn staggered_publications_are_evenly_spaced() {
        let w = Workload::by_name("webview-publish").unwrap();
        assert!(w.stagger);
        let per_pub = w.cfg.every / w.batch;
        let cycle = w.keys * per_pub;
        let offsets = w.paced_round_offsets();
        assert!(offsets.iter().all(|&s| s < per_pub));
        // The slot of each key's first publication, within one cycle.
        let mut slots: Vec<usize> = offsets
            .iter()
            .enumerate()
            .map(|(k, s)| ((s + per_pub - 1) * w.keys + k) % cycle)
            .collect();
        slots.sort_unstable();
        let even: Vec<usize> = (0..w.keys).map(|i| i * per_pub).collect();
        assert_eq!(slots, even);
        let plain = Workload::by_name("durable-routed").unwrap();
        assert!(plain.paced_round_offsets().iter().all(|&s| s == 0));
    }
}
