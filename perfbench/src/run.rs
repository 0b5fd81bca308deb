//! One benchmark run of one workload: set up the servers, warm up, run the
//! bulk and paced phases, check every release, and derive the metrics.

use crate::arith::{latency_ns, median, percentile, windowed_percentile, BatchLedger};
use crate::gate::{self, Publication, Verdict};
use crate::live::Counters;
use crate::procs::{self, copy_tree, Cluster, ServerProc};
use crate::trace::{self, ReplayInput, WalReplay};
use crate::wire::{Clock, IngestReply, Pending, Producer, Reply, Subscriber};
use crate::workload::{pipeline_flags, Topology, Workload};
use bfly_common::{BinaryFrame, ItemSet};
use bfly_serve::{ClusterMap, ServeConfig};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests the closed-loop phases keep in flight.
const MAX_IN_FLIGHT: usize = 16;
/// Pause after a shed reply before the closed loop sends again.
const SHED_BACKOFF_NS: u64 = 10_000_000;
/// Interval between `stats` samples during the paced phase.
const STATS_EVERY_NS: u64 = 100_000_000;
/// Set-ups timed before the phases (the last one serves them) and after.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 6;
/// Longest wait for a phase's replies or final releases.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);
/// Generator threads and connections, both bounded by this.
const GATE_THREADS: usize = 2;

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin: PathBuf,
    /// Scratch directory of this run (logs, WAL directories).
    pub work: PathBuf,
    /// Where the traced run writes its span file and ledger table.
    pub ledger_dir: PathBuf,
}

/// A run's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// One ingest request of the generated input.
struct Batch {
    key: usize,
    /// The placement slot (shard or node) that owns the key.
    slot: usize,
    items: Vec<ItemSet>,
    frame: Vec<u8>,
}

/// The generated input: every batch, grouped by phase.
struct Input {
    batches: Vec<Batch>,
    slots: usize,
    history: Vec<usize>,
    warm: Vec<usize>,
    rounds: Vec<Round>,
}

/// One round: a bulk phase, then a paced phase.
struct Round {
    bulk: Vec<usize>,
    paced: Vec<usize>,
}

fn generate(w: &Workload, keys: &[String], slots: usize, seed: u64, seconds: f64) -> Input {
    let mut phases = vec![
        (w.history_records(), w.bulk_batch),
        (w.warm_records(), w.bulk_batch),
    ];
    for _ in 0..w.rounds {
        phases.push((w.bulk_records(seconds), w.bulk_batch));
        phases.push((w.paced_records(seconds), w.batch));
    }
    let total: usize = phases.iter().map(|p| p.0).sum();
    // Each key streams a fixed synthetic dataset (the profile's generator at
    // a seed of its own), and the run seed picks where in it the key starts.
    // Every seed thus sees the same datasets through different records: a
    // seed that drew its own pattern catalogue would change how much mining
    // a record costs by a fifth from seed to seed.
    let streams: Vec<Vec<ItemSet>> = (0..keys.len())
        .map(|k| {
            let mut src = w.profile.source(DATASET_SEED + k as u64);
            let start =
                splitmix64(seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % MAX_START;
            for _ in 0..start {
                src.next_transaction();
            }
            (0..total)
                .map(|_| src.next_transaction().into_items())
                .collect()
        })
        .collect();
    let mut batches = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut offset = 0;
    for (records, batch) in phases {
        let mut group = Vec::new();
        // Round-robin over keys, one batch per key per round.
        for round in 0..records / batch {
            for (k, key) in keys.iter().enumerate() {
                let lo = offset + round * batch;
                let items = streams[k][lo..lo + batch].to_vec();
                let frame = BinaryFrame::Ingest {
                    stream: key.clone(),
                    batch: items.clone(),
                }
                .encode();
                group.push(batches.len());
                batches.push(Batch {
                    key: k,
                    // `key_names` puts key `k` on slot `k % slots`.
                    slot: k % slots,
                    items,
                    frame,
                });
            }
        }
        offset += records;
        groups.push(group);
    }
    let mut g = groups.into_iter();
    let mut next = || g.next().expect("one group per phase");
    let (history, warm) = (next(), next());
    let rounds = (0..w.rounds)
        .map(|_| Round {
            bulk: next(),
            paced: next(),
        })
        .collect();
    Input {
        batches,
        slots,
        history,
        warm,
        rounds,
    }
}

/// Seed of key 0's dataset; key `k` uses `DATASET_SEED + k`.
const DATASET_SEED: u64 = 0xB077_E4F1;
/// Records a key's stream may start into its dataset.
const MAX_START: u64 = 5_000;

/// The splitmix64 finalizer: spreads a seed over all 64 bits.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key names spread evenly over `slots` placement slots: key `i` lands on
/// slot `i % slots`.
pub fn key_names(n: usize, slots: usize) -> Vec<String> {
    let map = ClusterMap::single(slots);
    let mut out = Vec::with_capacity(n);
    let mut candidate = 0;
    for i in 0..n {
        loop {
            let name = format!("key-{candidate}");
            candidate += 1;
            if map.owner_of(&name).shard == i % slots {
                out.push(name);
                break;
            }
        }
    }
    out
}

/// The last publication position at or below `len` (0 if none).
fn boundary(cfg: &ServeConfig, len: u64) -> u64 {
    let (w, e) = (cfg.window as u64, cfg.every as u64);
    if len < w {
        0
    } else {
        w + (len - w) / e * e
    }
}

/// Accepted input so far: per key ledgers and the global acceptance order.
struct Accepted {
    ledgers: Vec<BatchLedger>,
    order: Vec<usize>,
}

impl Accepted {
    fn take(&mut self, input: &Input, batch: usize, intended_ns: u64) {
        let b = &input.batches[batch];
        self.ledgers[b.key].push(b.items.len() as u64, intended_ns);
        self.order.push(batch);
    }

    fn records(&self, input: &Input, keys: usize) -> Vec<Vec<ItemSet>> {
        let mut out = vec![Vec::new(); keys];
        for &b in &self.order {
            out[input.batches[b].key].extend(input.batches[b].items.iter().cloned());
        }
        out
    }
}

/// Offer `batches` closed-loop: up to [`MAX_IN_FLIGHT`] requests
/// outstanding, shed batches retried after a backoff. Each slot (shard or
/// node) has its own queue and backoff, so that a slot that sheds pauses
/// alone while the others keep receiving work. Returns the transactions
/// retried and the error replies.
fn closed_loop(
    p: &mut Producer,
    clock: Clock,
    input: &Input,
    batches: &[usize],
    acc: &mut Accepted,
) -> Result<(u64, u64), String> {
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); input.slots];
    for &b in batches {
        queues[input.batches[b].slot].push_back(b);
    }
    let mut retries: Vec<VecDeque<usize>> = vec![VecDeque::new(); input.slots];
    let mut paused_until = vec![0u64; input.slots];
    let mut cursor = 0;
    let (mut retried, mut errors) = (0u64, 0u64);
    let deadline = Instant::now() + PHASE_TIMEOUT;
    let mut replies = Vec::new();
    while !(queues.iter().chain(&retries).all(VecDeque::is_empty) && p.in_flight() == 0) {
        if Instant::now() > deadline {
            return Err("closed-loop phase timed out".into());
        }
        let now = clock.now_ns();
        while p.in_flight() < MAX_IN_FLIGHT {
            // The next slot, round-robin, that has work and is not backing
            // off; its retries go first.
            let Some(slot) = (0..input.slots)
                .map(|i| (cursor + i) % input.slots)
                .find(|&s| {
                    now >= paused_until[s] && !(retries[s].is_empty() && queues[s].is_empty())
                })
            else {
                break;
            };
            cursor = (slot + 1) % input.slots;
            let b = retries[slot]
                .pop_front()
                .or_else(|| queues[slot].pop_front())
                .expect("the slot has work");
            p.send(
                &input.batches[b].frame,
                Pending::Ingest {
                    batch: b,
                    intended_ns: now,
                },
            )?;
        }
        p.poll(Duration::from_millis(1), &mut replies)?;
        for r in replies.drain(..) {
            if let Reply::Ingest {
                batch,
                intended_ns,
                reply,
                at_ns,
            } = r
            {
                match reply {
                    IngestReply::Accepted => acc.take(input, batch, intended_ns),
                    IngestReply::Shed => {
                        let slot = input.batches[batch].slot;
                        retried += input.batches[batch].items.len() as u64;
                        retries[slot].push_back(batch);
                        paused_until[slot] = at_ns + SHED_BACKOFF_NS;
                    }
                    IngestReply::Error(e) => {
                        eprintln!("perfbench: ingest error: {e}");
                        errors += 1;
                    }
                }
            }
        }
    }
    Ok((retried, errors))
}

/// Start every server process of the workload; returns the cluster and the
/// set-up time (spawn until each answers `ping`).
fn start_cluster(
    w: &Workload,
    cfg: &ServeConfig,
    bin: &Path,
    work: &Path,
    wal_root: Option<&Path>,
) -> Result<(Cluster, f64), String> {
    let started = Instant::now();
    let mut node_args = pipeline_flags(cfg);
    node_args.extend(["--io".to_string(), "reactor".to_string()]);
    let mut procs = Vec::new();
    match w.topology {
        Topology::Node => {
            let mut node = ServerProc::spawn(bin, work, "node0", &node_args)?;
            node.await_ready()?;
            procs.push(node);
        }
        Topology::DurableRouted => {
            let root = wal_root.expect("durable workload has a log root");
            for n in 0..2 {
                let mut args = node_args.clone();
                args.extend([
                    "--wal-dir".to_string(),
                    root.join(format!("node{n}")).display().to_string(),
                    "--wal-sync".to_string(),
                    "interval:64".to_string(),
                ]);
                // One node at a time: two recovering at once on two cores
                // time the host's scheduling more than the recovery.
                let mut node = ServerProc::spawn(bin, work, &format!("node{n}"), &args)?;
                node.await_ready()?;
                procs.push(node);
            }
        }
    }
    if w.topology == Topology::DurableRouted {
        let nodes: Vec<String> = procs.iter().map(|p| p.addr.to_string()).collect();
        let mut args = pipeline_flags(cfg);
        args.extend([
            "--role".to_string(),
            "router".to_string(),
            "--nodes".to_string(),
            nodes.join(","),
            "--io".to_string(),
            "blocking".to_string(),
        ]);
        let mut router = ServerProc::spawn(bin, work, "router", &args)?;
        router.await_ready()?;
        procs.push(router);
    }
    Ok((Cluster { procs }, started.elapsed().as_secs_f64()))
}

/// Poll `stats` until the servers processed `tx` transactions in total.
fn await_processed(p: &mut Producer, tx: u64) -> Result<(), String> {
    let deadline = Instant::now() + PHASE_TIMEOUT;
    loop {
        let c = Counters::from_stats(&p.stats()?);
        if c.processed() >= tx {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "servers processed {} of {tx} transactions",
                c.processed()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The untimed step of the durable workload: run a cluster with empty logs,
/// ingest the history, and stop it. Its logs are the prepared WAL.
fn prepare_log(
    w: &Workload,
    cfg: &ServeConfig,
    o: &Opts,
    input: &Input,
    template: &Path,
    acc: &mut Accepted,
) -> Result<(), String> {
    let (cluster, _) = start_cluster(w, cfg, &o.bin, &o.work, Some(template))?;
    let mut p = Producer::connect(cluster.entry(), Clock::start())?;
    let (retried, errors) = closed_loop(&mut p, Clock::start(), input, &input.history, acc)?;
    if errors > 0 || acc.order.len() != input.history.len() {
        return Err(format!(
            "preparing the log failed ({errors} errors, {retried} retried)"
        ));
    }
    let tx: u64 = input
        .history
        .iter()
        .map(|&b| input.batches[b].items.len() as u64)
        .sum();
    await_processed(&mut p, tx)?;
    p.shutdown();
    if !cluster.reap() {
        return Err("a server did not stop after preparing the log".into());
    }
    Ok(())
}

/// Samples of one run, in the units they are reported in.
#[derive(Default)]
struct Samples {
    /// `(intended send time, latency)` per paced release and ingest.
    fresh_ms: Vec<(u64, f64)>,
    ack_us: Vec<(u64, f64)>,
    lag_ms: Vec<f64>,
    /// Per late key: logged releases delivered per second of catch-up.
    catchup_per_s: Vec<f64>,
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let w = &o.workload;
    let cfg = ServeConfig {
        seed: o.seed,
        ..w.cfg.clone()
    };
    let slots = match w.topology {
        Topology::Node => cfg.shards,
        Topology::DurableRouted => 2,
    };
    let keys = key_names(w.keys, slots);
    let live: Vec<usize> = (0..w.keys - w.late).collect();
    let late: Vec<usize> = (w.keys - w.late..w.keys).collect();
    let input = generate(w, &keys, slots, o.seed, o.seconds);
    let history_len = w.history_records() as u64;
    let mut acc = Accepted {
        ledgers: vec![BatchLedger::default(); keys.len()],
        order: Vec::new(),
    };

    // Set-up: the durable workload first writes its log in an untimed step;
    // every set-up then starts from a fresh copy of it.
    let template = o.work.join("wal-prepared");
    let wal_root = o.work.join("wal");
    if w.topology == Topology::DurableRouted {
        prepare_log(w, &cfg, o, &input, &template, &mut acc)?;
    }
    let set_up = |keep: bool| -> Result<(f64, Option<Cluster>), String> {
        if w.topology == Topology::DurableRouted {
            let _ = std::fs::remove_dir_all(&wal_root);
            copy_tree(&template, &wal_root).map_err(|e| format!("copy prepared log: {e}"))?;
        }
        let (c, s) = start_cluster(w, &cfg, &o.bin, &o.work, Some(&wal_root))?;
        if keep {
            return Ok((s, Some(c)));
        }
        if !c.shutdown() {
            return Err("a server did not stop between set-ups".into());
        }
        Ok((s, None))
    };
    let mut setups = Vec::new();
    for _ in 1..SETUPS_BEFORE {
        setups.push(set_up(false)?.0);
    }
    let (s, cluster) = set_up(true)?;
    setups.push(s);
    let cluster = cluster.expect("a kept cluster");

    let clock = Clock::start();
    let mut p = Producer::connect(cluster.entry(), clock)?;
    p.attach(Subscriber::connect(cluster.entry(), &keys, clock)?);
    for &k in &live {
        p.sub().subscribe(&keys[k], false)?;
    }
    if !p.wait_sub(Instant::now() + PHASE_TIMEOUT, |l| l.acks >= live.len())? {
        return Err("subscriptions were not acknowledged".into());
    }
    for (k, l) in acc.ledgers.iter_mut().enumerate() {
        debug_assert_eq!(l.len(), history_len, "key {k} history");
        *l = BatchLedger::with_base(history_len);
    }
    // Wait until the subscriber holds the final release of every key in
    // `subscribed`; returns every key's final publication position.
    let wait_final =
        |p: &mut Producer, acc: &Accepted, subscribed: &[usize]| -> Result<Vec<u64>, String> {
            let targets: Vec<u64> = acc
                .ledgers
                .iter()
                .map(|l| boundary(&cfg, l.len()))
                .collect();
            let ok = p.wait_sub(Instant::now() + PHASE_TIMEOUT, |l| {
                subscribed.iter().all(|&k| l.high[k] >= targets[k])
            })?;
            if ok {
                Ok(targets)
            } else {
                Err("the subscriber did not receive every final release".into())
            }
        };

    // Warm-up: fill every window and run a few publications (untimed).
    let (_, warm_errors) = closed_loop(&mut p, clock, &input, &input.warm, &mut acc)?;
    wait_final(&mut p, &acc, &live)?;

    // Rounds of a bulk phase then a paced phase.
    let c_timed0 = Counters::from_stats(&p.stats()?);
    let mut capacities = Vec::new();
    let (mut retried_tx, mut bulk_errors) = (0u64, 0u64);
    let mut paced_c = Counters::default();
    let mut cpu_paced = vec![0.0; cluster.procs.len()];
    let mut samples = Samples::default();
    let (mut paced_fail, mut depth_max) = (0u64, 0u64);
    let (mut head, mut sub_sent) = (Vec::new(), Vec::new());
    // Per paced phase, every key's position before and after it.
    let mut paced_spans: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
    let mut paced_from = None;
    let mut final_targets = Vec::new();
    for (r, round) in input.rounds.iter().enumerate() {
        // Bulk phase: a fixed volume, closed loop, timed until the
        // subscriber holds the final release of every key.
        let bulk_from = acc.order.len();
        let t_bulk0 = clock.now_ns();
        let (retried, errors) = closed_loop(&mut p, clock, &input, &round.bulk, &mut acc)?;
        retried_tx += retried;
        bulk_errors += errors;
        let bulk_targets = wait_final(&mut p, &acc, &live)?;
        let t_bulk1 = live
            .iter()
            .filter_map(|&k| {
                p.sub().log.frames[k]
                    .iter()
                    .find(|f| f.stream_len == bulk_targets[k])
                    .map(|f| f.at_ns)
            })
            .max()
            .unwrap_or(t_bulk0);
        let bulk_tx: u64 = acc.order[bulk_from..]
            .iter()
            .map(|&b| input.batches[b].items.len() as u64)
            .sum();
        capacities.push(bulk_tx as f64 / ((t_bulk1 - t_bulk0) as f64 / 1e9));
        let c_bulk1 = Counters::from_stats(&p.stats()?);

        // Paced phase: open loop at a fixed rate; latency counts from the
        // intended send time. Late keys catch up in the first one.
        paced_from.get_or_insert(acc.order.len());
        let base: Vec<u64> = acc.ledgers.iter().map(BatchLedger::len).collect();
        let cpu0 = cluster.cpu_s();
        let round_late = if r == 0 { &late[..] } else { &[] };
        let (s, fail, depth, h, sent) = paced_phase(
            w,
            &cfg,
            &input,
            &round.paced,
            &mut p,
            clock,
            &mut acc,
            &keys,
            round_late,
        )?;
        // By now the late keys are subscribed too.
        let targets = wait_final(&mut p, &acc, &(0..keys.len()).collect::<Vec<_>>())?;
        let cpu1 = cluster.cpu_s();
        for (t, (a, b)) in cpu_paced.iter_mut().zip(cpu1.iter().zip(&cpu0)) {
            *t += a - b;
        }
        paced_c = paced_c.plus(&Counters::from_stats(&p.stats()?).since(&c_bulk1));
        samples.fresh_ms.extend(s.fresh_ms);
        samples.ack_us.extend(s.ack_us);
        samples.lag_ms.extend(s.lag_ms);
        paced_fail += fail;
        depth_max = depth_max.max(depth);
        if r == 0 {
            (head, sub_sent) = (h, sent);
        }
        paced_spans.push((base, targets.clone()));
        final_targets = targets;
    }
    let paced_from = paced_from.expect("at least one round");
    let paced_targets = final_targets;
    let timed_c = Counters::from_stats(&p.stats()?).since(&c_timed0);
    let rss_mb = cluster.peak_rss_mb();
    // What the drain at shutdown sends is outside the measured phases.
    let log = p.sub().log.clone();
    p.shutdown();
    let clean_exit = cluster.reap();
    // More set-ups now, so that the median spans the run: the host's speed
    // drifts over seconds, and a slow stretch at the start alone would
    // otherwise move every set-up of the run.
    for _ in 0..SETUPS_AFTER {
        setups.push(set_up(false)?.0);
    }

    // Correctness gate (outside the clock).
    procs::leave_realtime();
    let records = acc.records(&input, keys.len());
    let pubs: Vec<Vec<Publication>> = gate::replay_all(&cfg, &keys, &records, GATE_THREADS);
    drop(records);
    let mut verdict = Verdict::default();
    for &k in &live {
        verdict.add(gate::check_live(
            &pubs[k],
            history_len,
            paced_targets[k],
            &log.frames[k],
        ));
    }
    for &k in &late {
        verdict.add(gate::check_catchup(
            &pubs[k],
            paced_targets[k],
            &log.frames[k],
        ));
    }

    // Freshness of every paced release of a live key, from the intended
    // send time of the batch that carried its last record.
    for (k, (base, targets)) in live
        .iter()
        .flat_map(|&k| paced_spans.iter().map(move |span| (k, span)))
    {
        let mut pos = boundary(&cfg, base[k]) + cfg.every as u64;
        while pos <= targets[k] {
            let sent = acc.ledgers[k].carrier_intended_ns(pos);
            let got = log.frames[k].iter().find(|f| f.stream_len == pos);
            samples.fresh_ms.push(match (sent, got) {
                (Some(s), Some(f)) => (s, latency_ns(s, f.at_ns) as f64 / 1e6),
                (Some(s), None) => (s, f64::INFINITY),
                _ => (u64::MAX, f64::INFINITY),
            });
            pos += cfg.every as u64;
        }
    }
    // Catch-up: from the late subscribe until every logged release up to
    // the head at subscribe time has arrived.
    for (i, &k) in late.iter().enumerate() {
        let frames = &log.frames[k];
        let oldest = frames
            .iter()
            .map(|f| f.stream_len)
            .min()
            .unwrap_or(u64::MAX);
        let (mut done, mut delivered) = (0u64, 0u64);
        let mut complete = true;
        let mut pos = oldest;
        while pos <= head[i] {
            match frames.iter().find(|f| f.stream_len == pos) {
                Some(f) => {
                    done = done.max(f.at_ns);
                    delivered += 1;
                }
                None => complete = false,
            }
            pos += cfg.every as u64;
        }
        if complete && delivered > 0 {
            let secs = (done - sub_sent[i]) as f64 / 1e9;
            samples.catchup_per_s.push(delivered as f64 / secs);
        }
    }

    let paced_tx = paced_c.processed();
    let cpu_total: f64 = cpu_paced.iter().sum();
    let cpu_us_per_tx = cpu_total * 1e6 / paced_tx.max(1) as f64;
    let paced_requests: u64 = input.rounds.iter().map(|r| r.paced.len() as u64).sum();
    let bulk_requests: u64 = input.rounds.iter().map(|r| r.bulk.len() as u64).sum();
    // The median round, so that a stretch in which the host ran slow moves
    // at most the rounds it overlapped.
    let capacity_tx_s = median(&capacities);
    let shed_rate = (paced_fail + log.errors.len() as u64 + paced_c.subscriber_drops()) as f64
        / paced_requests as f64;
    let failed = paced_fail
        + warm_errors
        + bulk_errors
        + verdict.failed() as u64
        + log.errors.len() as u64
        + timed_c.subscriber_drops()
        + u64::from(!clean_exit);
    let attempted = bulk_requests + paced_requests + verdict.expected as u64;
    for e in &log.errors {
        eprintln!("perfbench: subscriber: {e}");
    }
    if verdict.failed() > 0 {
        eprintln!(
            "perfbench: correctness gate: {} missing, {} mismatched of {} publications",
            verdict.missing, verdict.mismatched, verdict.expected
        );
    }

    let pct = |v: &mut Vec<(u64, f64)>, q: f64, what: &str| -> Result<f64, String> {
        windowed_percentile(v, q).ok_or_else(|| {
            format!(
                "{what}: {} samples do not support p{}",
                v.len(),
                (q * 100.0) as u32
            )
        })
    };
    let fresh_p50 = pct(&mut samples.fresh_ms, 0.5, "freshness")?;
    let fresh_p99 = pct(&mut samples.fresh_ms, 0.99, "freshness")?;
    let ack_p50 = pct(&mut samples.ack_us, 0.5, "ack latency")?;
    let ack_p99 = pct(&mut samples.ack_us, 0.99, "ack latency")?;
    samples.lag_ms.sort_by(f64::total_cmp);
    let (lag_p50, lag_p99) = match (
        percentile(&samples.lag_ms, 0.5),
        percentile(&samples.lag_ms, 0.99),
    ) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(format!(
                "generator lag: {} samples do not support p99",
                samples.lag_ms.len()
            ))
        }
    };
    eprintln!(
        "perfbench: {} seed {}: {} paced releases, {} paced acks, generator lag p50 {:.3} ms \
         p99 {:.3} ms, {} paced tx at {} tx/s offered, shed rate {}",
        w.name,
        o.seed,
        samples.fresh_ms.len(),
        samples.ack_us.len(),
        lag_p50,
        lag_p99,
        paced_tx,
        w.paced_tx_s,
        shed_rate
    );
    eprintln!(
        "perfbench: capacity per round {:?} tx/s; set-ups {:?} ms",
        capacities.iter().map(|c| c.round()).collect::<Vec<_>>(),
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    );
    if lag_p99 > 5.0 {
        eprintln!(
            "perfbench: warning: generator ran {lag_p99:.1} ms late at p99; this run is not valid"
        );
    }
    let setup_s = median(&setups);

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if !o.trace {
        metrics.extend([
            ("setup_s", setup_s, "s"),
            ("capacity_tx_s", capacity_tx_s, "tx/s"),
            ("fresh_p50_ms", fresh_p50, "ms"),
            ("ack_p50_us", ack_p50, "us"),
            ("cpu_us_per_tx", cpu_us_per_tx, "us"),
            ("rss_mb", rss_mb, "MiB"),
        ]);
    } else {
        // The router is the last process of a routed cluster.
        let router_cpu_share = match w.topology {
            Topology::DurableRouted => cpu_paced[cpu_paced.len() - 1] / cpu_total.max(1e-9),
            Topology::Node => 0.0,
        };
        let catchup_per_s = if samples.catchup_per_s.is_empty() {
            0.0
        } else {
            median(&samples.catchup_per_s)
        };
        metrics.extend([
            // The tails swing too far from run to run on a two-core host
            // for a regression bound (see README.md).
            ("fresh_p99_ms", fresh_p99, "ms"),
            ("ack_p99_us", ack_p99, "us"),
            ("shed_rate", shed_rate, "ratio"),
            ("catchup.frames_per_s", catchup_per_s, "1/s"),
            ("fresh.samples", samples.fresh_ms.len() as f64, "count"),
            ("ack.samples", samples.ack_us.len() as f64, "count"),
            ("shard.queue_depth_max", depth_max as f64, "tx"),
            ("shard.tx_per_submit", paced_c.tx_per_submit(), "tx"),
            ("shard.skew", timed_c.skew(), "ratio"),
            ("shard.shed_tx", timed_c.shed() as f64, "tx"),
            ("shard.retried_tx", retried_tx as f64, "tx"),
            (
                "fanout.subscriber_drops",
                timed_c.subscriber_drops() as f64,
                "count",
            ),
            (
                "reactor.wakeups_per_1k_tx",
                paced_c.reactor_wakeups as f64 * 1000.0 / paced_tx.max(1) as f64,
                "count",
            ),
            (
                "reactor.partial_writes",
                paced_c.reactor_partial_writes as f64,
                "count",
            ),
            (
                "wal.bytes_per_tx",
                paced_c.wal_bytes as f64 / paced_tx.max(1) as f64,
                "B",
            ),
            (
                "wal.fsyncs_per_1k_tx",
                paced_c.wal_fsyncs as f64 * 1000.0 / paced_tx.max(1) as f64,
                "count",
            ),
            ("router.cpu_share", router_cpu_share, "ratio"),
            (
                "router.forwarded_requests",
                paced_c.forwarded as f64,
                "count",
            ),
            ("gen.lag_p99_ms", lag_p99, "ms"),
        ]);
        let requests: Vec<(usize, &[ItemSet], &[u8])> = acc
            .order
            .iter()
            .map(|&b| {
                let batch = &input.batches[b];
                (batch.key, batch.items.as_slice(), batch.frame.as_slice())
            })
            .collect();
        metrics.extend(traced_ledger(
            o,
            &cfg,
            &keys,
            &late,
            &requests,
            paced_from,
            &template,
            &pubs,
            cpu_us_per_tx,
        )?);
    }
    let _ = std::fs::remove_dir_all(&wal_root);
    let _ = std::fs::remove_dir_all(&template);
    Ok(Outcome {
        correct: verdict.failed() == 0 && log.errors.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

type PacedResult = (Samples, u64, u64, Vec<u64>, Vec<u64>);

/// The paced phase. Returns the samples, the failed ingests, the largest
/// sampled queue depth, and per late key the head position and the time its
/// catch-up subscribe was sent.
#[allow(clippy::too_many_arguments)]
fn paced_phase(
    w: &Workload,
    cfg: &ServeConfig,
    input: &Input,
    batches: &[usize],
    p: &mut Producer,
    clock: Clock,
    acc: &mut Accepted,
    keys: &[String],
    late: &[usize],
) -> Result<PacedResult, String> {
    enum Ev {
        Ingest(usize),
        Stats,
        CatchUp(usize),
    }
    let interval = w.paced_interval_ns();
    let offsets = w.paced_round_offsets();
    // The paced batches are round-robin over the keys; each key's rounds
    // are shifted by its offset, on the same grid of send slots.
    let mut events: Vec<(u64, Ev)> = batches
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let k = input.batches[b].key;
            let slot = (i / keys.len() + offsets[k]) * keys.len() + k;
            ((slot as f64 * interval) as u64, Ev::Ingest(b))
        })
        .collect();
    let span = events.iter().map(|e| e.0).max().unwrap_or(0);
    events.extend(
        (1..)
            .map(|i| i * STATS_EVERY_NS)
            .take_while(|&t| t < span)
            .map(|t| (t, Ev::Stats)),
    );
    events.extend(late.iter().enumerate().map(|(i, _)| {
        (
            span * (i as u64 + 1) / (late.len() as u64 + 1),
            Ev::CatchUp(i),
        )
    }));
    events.sort_by_key(|e| e.0);

    let mut s = Samples::default();
    let (mut failed, mut depth_max) = (0u64, 0u64);
    let mut head = vec![0u64; late.len()];
    let mut sub_sent = vec![0u64; late.len()];
    let mut replies = Vec::new();
    let t0 = clock.now_ns() + 5_000_000;
    let mut handle = |replies: &mut Vec<Reply>, acc: &mut Accepted, s: &mut Samples| {
        for r in replies.drain(..) {
            match r {
                Reply::Ingest {
                    batch,
                    intended_ns,
                    reply,
                    at_ns,
                } => {
                    if reply == IngestReply::Accepted {
                        acc.take(input, batch, intended_ns);
                        s.ack_us
                            .push((intended_ns, latency_ns(intended_ns, at_ns) as f64 / 1e3));
                    } else {
                        if let IngestReply::Error(e) = reply {
                            eprintln!("perfbench: paced ingest error: {e}");
                        }
                        failed += 1;
                        s.ack_us.push((intended_ns, f64::INFINITY));
                    }
                }
                Reply::Stats { doc } => {
                    depth_max = depth_max.max(Counters::from_stats(&doc).max_queue_depth());
                }
            }
        }
    };
    for (offset, ev) in events {
        let due = t0 + offset;
        let mut now = clock.now_ns();
        while now < due {
            p.poll(
                Duration::from_nanos((due - now).min(10_000_000)),
                &mut replies,
            )?;
            handle(&mut replies, acc, &mut s);
            now = clock.now_ns();
        }
        s.lag_ms.push((now - due) as f64 / 1e6);
        match ev {
            Ev::Ingest(b) => p.send(
                &input.batches[b].frame,
                Pending::Ingest {
                    batch: b,
                    intended_ns: due,
                },
            )?,
            Ev::Stats => p.send_stats()?,
            Ev::CatchUp(i) => {
                let k = late[i];
                head[i] = boundary(cfg, acc.ledgers[k].len());
                sub_sent[i] = clock.now_ns();
                p.sub().subscribe(&keys[k], true)?;
            }
        }
    }
    p.drain(Instant::now() + PHASE_TIMEOUT, &mut replies)?;
    handle(&mut replies, acc, &mut s);
    Ok((s, failed, depth_max, head, sub_sent))
}

/// The traced run: replay the accepted input untraced and traced, check
/// the replay against the gate, write the span file and ledger table, and
/// derive the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced_ledger(
    o: &Opts,
    cfg: &ServeConfig,
    keys: &[String],
    late: &[usize],
    requests: &[(usize, &[ItemSet], &[u8])],
    paced_from: usize,
    template: &Path,
    pubs: &[Vec<Publication>],
    cpu_us_per_tx: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let durable = cfg.wal.is_some();
    // The log needs every key's records; elsewhere one key per shard is
    // enough for the per-record and per-release costs, at half the replay
    // time.
    let keep: Vec<bool> = (0..keys.len()).map(|k| durable || k < cfg.shards).collect();
    let paced_from = requests[..paced_from].iter().filter(|r| keep[r.0]).count();
    let requests: Vec<(usize, &[ItemSet], &[u8])> =
        requests.iter().filter(|r| keep[r.0]).copied().collect();
    let router = durable.then(|| {
        let nodes = [
            "127.0.0.1:1".parse().expect("literal"),
            "127.0.0.1:2".parse().expect("literal"),
        ];
        ClusterMap::federated(1, nodes.to_vec(), cfg.shards)
    });
    let mut outputs = Vec::new();
    for traced in [false, true] {
        let scratch = o.work.join(format!("replay-wal-{traced}"));
        let _ = std::fs::remove_dir_all(&scratch);
        let prepared = if durable {
            let prepared = o.work.join(format!("replay-prepared-{traced}"));
            let _ = std::fs::remove_dir_all(&prepared);
            copy_tree(template, &prepared).map_err(|e| format!("copy prepared log: {e}"))?;
            Some(prepared)
        } else {
            None
        };
        let wal = WalReplay {
            scratch,
            prepared,
            catchup_keys: if durable { late.to_vec() } else { vec![0] },
            sync_every: 64,
        };
        let input = ReplayInput {
            cfg,
            keys,
            map: ClusterMap::single(cfg.shards),
            router: router.clone(),
            requests: &requests,
            paced_from,
            wal,
        };
        outputs.push(trace::replay(&input, traced)?);
    }
    let traced = outputs.pop().expect("traced replay");
    let untraced = outputs.pop().expect("untraced replay");
    if !trace::matches_gate(&traced, pubs, &keep) || !trace::matches_gate(&untraced, pubs, &keep) {
        return Err("the staged replay diverged from the servers' releases".into());
    }
    let ledger = trace::ledger(&traced.spans, traced.paced_mark_ns);
    let c = traced.paced;
    let self_ns = |name: &str| ledger.get(name).map_or(0, |e| e.1) as f64;
    let calls = |name: &str| ledger.get(name).map_or(0, |e| e.0) as f64;
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let (tx, rel) = (c.tx as f64, c.releases as f64);
    // What the live servers do on every request or release; one-off spans
    // and, where the servers run without a WAL, the scratch log stay out.
    let kind = |name: &str| {
        if trace::is_one_off(name) {
            "one-off"
        } else if !durable && name.starts_with("wal.") {
            "scratch"
        } else {
            "steady"
        }
    };
    let steady_ns: f64 = ledger
        .iter()
        .filter(|(name, _)| kind(name) == "steady")
        .map(|(_, e)| e.1 as f64)
        .sum();
    let (lr, lc) = c.dp_layers;
    let (sr, sw, sf) = c.dp_solves;

    std::fs::create_dir_all(&o.ledger_dir).map_err(|e| format!("create ledger dir: {e}"))?;
    trace::write_spans(&o.ledger_dir.join("spans.tsv"), &traced.spans)
        .map_err(|e| format!("write span file: {e}"))?;
    let mut table = String::from("layer\tkind\tcalls\tself_ms\tself_us_per_tx\tshare\n");
    let mut rows: Vec<(&str, (u64, u64))> = ledger.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .1));
    for (name, (n, ns)) in &rows {
        table.push_str(&format!(
            "{name}\t{}\t{n}\t{:.3}\t{:.3}\t{:.4}\n",
            kind(name),
            *ns as f64 / 1e6,
            per(*ns as f64 / 1e3, tx),
            *ns as f64 / steady_ns.max(1.0)
        ));
    }
    let top: Vec<&str> = rows
        .iter()
        .map(|r| r.0)
        .filter(|n| kind(n) == "steady")
        .take(3)
        .collect();
    table.push_str(&format!("# top three steady layers: {}\n", top.join(", ")));
    let untraced_us = cpu_us_per_tx - steady_ns / 1e3 / tx.max(1.0);
    table.push_str(&format!(
        "# paced tx {}, releases {}, live cpu_us_per_tx {:.3}, traced sum {:.3} us/tx, untraced remainder {:.3} us/tx, trace overhead {:.3}\n",
        c.tx,
        c.releases,
        cpu_us_per_tx,
        steady_ns / 1e3 / tx.max(1.0),
        untraced_us,
        traced.wall_s / untraced.wall_s
    ));
    std::fs::write(o.ledger_dir.join("ledger.tsv"), &table)
        .map_err(|e| format!("write ledger: {e}"))?;
    eprint!("{table}");

    Ok(vec![
        (
            "engine.order_dp_ms_per_release",
            per(self_ns("engine.order_dp") / 1e6, rel),
            "ms",
        ),
        (
            "engine.dp_layer_reuse_ratio",
            per(lr as f64, (lr + lc) as f64),
            "ratio",
        ),
        (
            "engine.dp_full_solve_share",
            per(sf as f64, (sr + sw + sf) as f64),
            "ratio",
        ),
        (
            "engine.fec_us_per_release",
            per(self_ns("engine.fec") / 1e3, rel),
            "us",
        ),
        ("engine.fecs_per_release", per(c.fecs as f64, rel), "count"),
        (
            "engine.ratio_us_per_release",
            per(self_ns("engine.ratio") / 1e3, rel),
            "us",
        ),
        (
            "engine.noise_us_per_release",
            per(self_ns("engine.noise") / 1e3, rel),
            "us",
        ),
        (
            "engine.publish_self_us_per_release",
            per(self_ns("engine.publish") / 1e3, rel),
            "us",
        ),
        (
            "mining.apply_us_per_tx",
            per(self_ns("mining.apply") / 1e3, tx),
            "us",
        ),
        (
            "mining.closed_ms_per_release",
            per(self_ns("mining.closed") / 1e6, rel),
            "ms",
        ),
        (
            "mining.closed_itemsets_per_release",
            per(c.closed_itemsets as f64, rel),
            "count",
        ),
        (
            "window.slide_ns_per_tx",
            per(self_ns("window.slide"), tx),
            "ns",
        ),
        (
            "truth.apply_us_per_tx",
            per(self_ns("truth.apply") / 1e3, tx),
            "us",
        ),
        (
            "truth.seed_us_per_release",
            per(self_ns("truth.seed") / 1e3, rel),
            "us",
        ),
        (
            "frame.decode_ns_per_tx",
            per(self_ns("frame.decode"), tx),
            "ns",
        ),
        (
            "frame.ingest_bytes_per_tx",
            per(c.ingest_bytes as f64, tx),
            "B",
        ),
        (
            "protocol.encode_us_per_release",
            per(self_ns("protocol.encode") / 1e3, rel),
            "us",
        ),
        (
            "protocol.release_bytes",
            per(c.snapshot_bytes as f64, c.snapshot_frames as f64),
            "B",
        ),
        (
            "protocol.delta_bytes",
            per(c.delta_bytes as f64, c.delta_frames as f64),
            "B",
        ),
        (
            "protocol.ack_encode_ns_per_request",
            per(self_ns("protocol.ack_encode"), calls("protocol.ack_encode")),
            "ns",
        ),
        (
            "wal.append_us_per_record",
            per(self_ns("wal.append") / 1e3, calls("wal.append")),
            "us",
        ),
        (
            "wal.sync_ms_per_fsync",
            per(self_ns("wal.sync") / 1e6, calls("wal.sync")),
            "ms",
        ),
        ("wal.recover_s", self_ns("wal.recover") / 1e9, "s"),
        (
            "wal.catchup_us_per_frame",
            per(self_ns("wal.catchup") / 1e3, traced.catchup_frames as f64),
            "us",
        ),
        (
            "placement.owner_of_ns",
            per(self_ns("placement.owner_of"), calls("placement.owner_of")),
            "ns",
        ),
        ("trace.untraced_us_per_tx", untraced_us, "us"),
        ("trace.overhead", traced.wall_s / untraced.wall_s, "ratio"),
    ])
}
