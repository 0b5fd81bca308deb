//! The traced replay: one thread re-runs a workload's accepted input
//! through the same public calls a serve node makes, wrapping each call in
//! a span.
//!
//! The pipeline is driven stage by stage rather than through
//! `StreamPipeline::publish_now`, so that the publication's inner stages
//! (FEC partition, order DP, ratio bias, noise) get spans of their own
//! under one `engine.publish` parent whose self time is the republication
//! and delta stage. The replay's frames are checked byte for byte against
//! the correctness gate, which proves the staged reassembly equals the
//! engine the servers run.
//!
//! Spans not reachable from a public call (admission queues, the reactor,
//! the router hop, socket writes) are absent; `trace.untraced_us_per_tx`
//! reports how much of the servers' CPU they leave unexplained.

use crate::arith::{self_times, Span};
use crate::gate::{Cadence, Publication};
use bfly_common::{
    BinaryEntry, BinaryFrame, Frame, FrameCodec, FrameMode, ItemSet, ItemsetId, Json,
    SanitizedSupport, SlidingWindow, Support, Transaction,
};
use bfly_core::ratio::ratio_preserving_biases;
use bfly_core::{
    seeded_noise, BiasScheme, DefenseKind, Fec, FecIndex, PrivacySpec, ReleaseDelta,
    SanitizedItemset, SanitizedRelease, WarmOrderDp,
};
use bfly_inference::GroundTruth;
use bfly_mining::MinerBackend;
use bfly_serve::config::stream_seed;
use bfly_serve::protocol::{ingest_ok, release_delta_frame_bytes, release_frame_bytes};
use bfly_serve::wal::record::{SnapshotEntry, StreamSnapshot};
use bfly_serve::wal::{recover_shard, scan_catchup, WalRecord, WalWriter, WriterPosition};
use bfly_serve::{ClusterMap, ServeConfig, WalConfig, WalStats, WalSyncPolicy};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Records spans in memory; a disabled tracer reads no clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    publication: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            publication: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            publication: self.publication,
        });
        self.stack.push(idx);
    }

    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("span end without begin");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Spans begun from now on belong to publication `id` (0 = none).
    pub fn set_publication(&mut self, id: u32) {
        self.publication = id;
    }
}

/// One key's pipeline, held as its parts.
struct KeyState {
    window: SlidingWindow,
    miner: Box<dyn MinerBackend>,
    truth: GroundTruth,
    since_publish: usize,
    index: FecIndex,
    warm: WarmOrderDp,
    values: HashMap<ItemsetId, (Support, SanitizedSupport)>,
    seed: u64,
    cadence: Cadence,
    opened: bool,
}

/// The log side of the replay. Every replay logs what a node with a WAL
/// would log, into a scratch directory; where the servers run without a
/// WAL, those spans measure the log layer on this workload's records but
/// are left out of the ledger's sum.
pub struct WalReplay {
    /// Empty directory the replay's writers log into.
    pub scratch: PathBuf,
    /// A copy of the prepared log per node (`node<i>`), recovered once;
    /// without one the replay recovers its own scratch log.
    pub prepared: Option<PathBuf>,
    /// Keys whose log catch-up is scanned after the replay.
    pub catchup_keys: Vec<usize>,
    /// The sync interval the nodes run with, emulated by explicit syncs.
    pub sync_every: u32,
}

/// What the replay consumes.
pub struct ReplayInput<'a> {
    pub cfg: &'a ServeConfig,
    pub keys: &'a [String],
    /// The node's own placement of keys onto its shards.
    pub map: ClusterMap,
    /// The router tier's placement of keys onto nodes, if there is one.
    pub router: Option<ClusterMap>,
    /// Every accepted ingest in acceptance order: key index, the batch, and
    /// the binary frame the generator sent for it.
    pub requests: &'a [(usize, &'a [ItemSet], &'a [u8])],
    /// Index of the first request of the paced phase; the ledger covers
    /// the requests from here on.
    pub paced_from: usize,
    pub wal: WalReplay,
}

/// Counts over the paced part of the replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct PacedCounts {
    pub tx: u64,
    pub ingest_bytes: u64,
    pub releases: u64,
    pub fecs: u64,
    pub closed_itemsets: u64,
    pub snapshot_frames: u64,
    pub snapshot_bytes: u64,
    pub delta_frames: u64,
    pub delta_bytes: u64,
    /// DP layers served from cache / computed.
    pub dp_layers: (u64, u64),
    /// DP solves: full reuse, warm start, full recompute.
    pub dp_solves: (u64, u64, u64),
}

/// One key's live frames: `(binary op, stream_len, bytes)` in emission
/// order.
pub type KeyFrames = Vec<(u8, u64, Arc<[u8]>)>;

pub struct ReplayOutput {
    pub wall_s: f64,
    pub spans: Vec<Span>,
    /// Tracer time at the first paced request.
    pub paced_mark_ns: u64,
    pub paced: PacedCounts,
    /// Every publication's live frames, per key.
    pub frames: Vec<KeyFrames>,
    /// Log catch-up frames scanned.
    pub catchup_frames: u64,
}

/// Run the replay, traced or not.
pub fn replay(input: &ReplayInput<'_>, traced: bool) -> Result<ReplayOutput, String> {
    let cfg = input.cfg;
    let (lambda, gamma) = match cfg.scheme {
        BiasScheme::Hybrid { lambda, gamma } => (lambda, gamma),
        other => {
            return Err(format!(
                "the traced replay stages the hybrid scheme only, not {other:?}"
            ))
        }
    };
    let spec: PrivacySpec = cfg.spec();
    let alpha = spec.alpha();
    let mut tr = Tracer::new(traced);
    let started = Instant::now();
    let mut states: Vec<KeyState> = input
        .keys
        .iter()
        .map(|k| KeyState {
            window: SlidingWindow::new(cfg.window),
            miner: cfg.backend.build(cfg.c),
            truth: GroundTruth::new(cfg.window),
            since_publish: 0,
            index: FecIndex::new(),
            warm: WarmOrderDp::new(),
            values: HashMap::new(),
            seed: stream_seed(cfg.seed, k),
            cadence: Cadence::new(cfg),
            opened: false,
        })
        .collect();
    let w = &input.wal;
    let mut writers: Vec<(WalWriter, u32)> =
        (0..input.router.as_ref().map_or(1, ClusterMap::node_count))
            .map(|n| {
                let dir = w.scratch.join(format!("node{n}"));
                let wcfg = WalConfig {
                    sync: WalSyncPolicy::Never,
                    ..WalConfig::new(&dir)
                };
                WalWriter::open(
                    &dir,
                    0,
                    wcfg,
                    cfg.snapshot_every,
                    Arc::new(WalStats::default()),
                    WriterPosition::default(),
                )
                .map(|wr| (wr, 0))
                .map_err(|e| format!("open replay wal: {e}"))
            })
            .collect::<Result<_, _>>()?;
    let sync_every = w.sync_every;
    let mut frames: Vec<KeyFrames> = vec![Vec::new(); input.keys.len()];
    let mut codec = FrameCodec::new();
    let mut router_codec = FrameCodec::new();
    let mut paced = PacedCounts::default();
    let mut paced_mark_ns = 0;
    let mut publication_id = 0u32;
    let dp_totals = |states: &[KeyState]| {
        states
            .iter()
            .fold(((0, 0), (0, 0, 0)), |((lr, lc), (r, w, f)), s| {
                let (a, b) = s.warm.layer_counters();
                let (x, y, z) = s.warm.solve_counters();
                ((lr + a, lc + b), (r + x, w + y, f + z))
            })
    };
    let mut dp_at_mark = ((0, 0), (0, 0, 0));

    for (ri, &(k, batch, frame)) in input.requests.iter().enumerate() {
        let in_paced = ri >= input.paced_from;
        if ri == input.paced_from {
            paced_mark_ns = tr.now_ns();
            dp_at_mark = dp_totals(&states);
        }
        if in_paced {
            paced.tx += batch.len() as u64;
            paced.ingest_bytes += frame.len() as u64;
        }
        tr.set_publication(0);
        let key = &input.keys[k];
        // The router hop: decode the client's frame, pick the owning node,
        // re-encode the ingest for it, and later parse the node's reply.
        let mut node = 0;
        let mut forwarded = None;
        if let Some(router) = &input.router {
            tr.begin("router.forward");
            router_codec.extend(frame);
            let (stream, b) = match router_codec.next_frame() {
                Ok(Some(Frame::Binary(BinaryFrame::Ingest { stream, batch }))) => (stream, batch),
                other => return Err(format!("ingest frame did not decode back: {other:?}")),
            };
            tr.begin("placement.owner_of");
            node = router.owner_of(&stream).node;
            tr.end();
            forwarded = Some(BinaryFrame::Ingest { stream, batch: b }.encode());
            tr.end();
        }
        let (_, b) = decode(&mut tr, &mut codec, forwarded.as_deref().unwrap_or(frame))?;
        if b.len() != batch.len() {
            return Err("ingest frame did not decode back".into());
        }
        tr.begin("placement.owner_of");
        let _shard = input.map.owner_of(key).shard;
        tr.end();
        tr.begin("protocol.ack_encode");
        let ack = ingest_ok(batch.len()).to_string();
        tr.end();
        if input.router.is_some() {
            tr.begin("router.forward");
            let parsed = Json::parse(&ack);
            tr.end();
            parsed.map_err(|e| format!("ingest reply did not parse: {e}"))?;
        }
        let st = &mut states[k];
        if let Some((w, n)) = writers.get_mut(node) {
            if !st.opened {
                st.opened = true;
                append(
                    &mut tr,
                    w,
                    n,
                    sync_every,
                    &WalRecord::Open {
                        stream: key.clone(),
                        kind: DefenseKind::Butterfly,
                    },
                )?;
            }
            append(
                &mut tr,
                w,
                n,
                sync_every,
                &WalRecord::Ingest {
                    stream: key.clone(),
                    base: st.window.stream_len(),
                    batch: batch.to_vec(),
                },
            )?;
        }
        for items in batch {
            tr.begin("window.slide");
            let delta = st.window.slide(Transaction::new(0, items.clone()));
            tr.end();
            tr.begin("mining.apply");
            st.miner.apply(&delta);
            tr.end();
            tr.begin("truth.apply");
            st.truth.apply(&delta);
            tr.end();
            st.since_publish += 1;
            if !(st.window.is_full() && st.since_publish >= cfg.every) {
                continue;
            }
            st.since_publish = 0;
            publication_id += 1;
            tr.set_publication(publication_id);
            tr.begin("mining.closed");
            let closed = st.miner.closed_frequent();
            tr.end();
            tr.begin("truth.seed");
            st.truth
                .seed_supports(closed.iter().map(|e| (e.id, e.support)));
            tr.end();

            tr.begin("engine.publish");
            tr.begin("engine.fec");
            st.index.update(&closed);
            let fecs = st.index.fecs();
            tr.end();
            tr.begin("engine.order_dp");
            let op = st.warm.solve(&fecs, &spec, gamma);
            tr.end();
            tr.begin("engine.ratio");
            let rp = ratio_preserving_biases(&fecs, &spec);
            tr.end();
            let biases: Vec<f64> = op
                .iter()
                .zip(&rp)
                .map(|(o, r)| lambda * o + (1.0 - lambda) * r)
                .collect();
            tr.begin("engine.noise");
            let noises: Vec<i64> = fecs
                .iter()
                .zip(&biases)
                .map(|(f, &b)| seeded_noise(st.seed, f.support(), b, alpha))
                .collect();
            tr.end();
            let (entries, delta, next) = republish(&fecs, &noises, &st.values);
            st.values = next;
            let release = SanitizedRelease::new(entries);
            tr.end();

            let stream_len = st.window.stream_len();
            let (delta_base, snapshot) = st.cadence.next(stream_len);
            if let Some((w, n)) = writers.get_mut(node) {
                append(
                    &mut tr,
                    w,
                    n,
                    sync_every,
                    &WalRecord::Release {
                        stream: key.clone(),
                        stream_len,
                        entries: release.iter().map(wire_entry).collect(),
                    },
                )?;
                if snapshot {
                    let snap = WalRecord::Snapshot(StreamSnapshot {
                        stream: key.clone(),
                        kind: DefenseKind::Butterfly,
                        stream_len,
                        published: st.cadence.published(),
                        last_len: stream_len,
                        prev_release: release
                            .iter()
                            .map(|e| SnapshotEntry {
                                ids: e.itemset().items().iter().map(|i| i.id()).collect(),
                                true_support: e.true_support,
                                sanitized: e.sanitized,
                            })
                            .collect(),
                        window: st
                            .window
                            .records()
                            .map(|t| t.items().items().iter().map(|i| i.id()).collect())
                            .collect(),
                    });
                    append(&mut tr, w, n, sync_every, &snap)?;
                }
            }
            tr.begin("protocol.encode");
            let delta_frame = delta_base.map(|base| {
                release_delta_frame_bytes(FrameMode::Binary, key, stream_len, base, &delta)
            });
            let snap_frame =
                snapshot.then(|| release_frame_bytes(FrameMode::Binary, key, stream_len, &release));
            tr.end();
            if in_paced {
                paced.releases += 1;
                paced.fecs += fecs.len() as u64;
                paced.closed_itemsets += closed.len() as u64;
                if let Some(d) = &delta_frame {
                    paced.delta_frames += 1;
                    paced.delta_bytes += d.len() as u64;
                }
                if let Some(s) = &snap_frame {
                    paced.snapshot_frames += 1;
                    paced.snapshot_bytes += s.len() as u64;
                }
            }
            frames[k].extend(delta_frame.map(|d| (crate::gate::OP_DELTA, stream_len, d)));
            frames[k].extend(snap_frame.map(|s| (crate::gate::OP_RELEASE, stream_len, s)));
            tr.set_publication(0);
        }
    }
    let dp_end = dp_totals(&states);
    paced.dp_layers = (dp_end.0 .0 - dp_at_mark.0 .0, dp_end.0 .1 - dp_at_mark.0 .1);
    paced.dp_solves = (
        dp_end.1 .0 - dp_at_mark.1 .0,
        dp_end.1 .1 - dp_at_mark.1 .1,
        dp_end.1 .2 - dp_at_mark.1 .2,
    );

    let mut catchup_frames = 0;
    {
        for (wr, n) in writers.iter_mut() {
            sync(&mut tr, wr, n)?;
        }
        for &k in &w.catchup_keys {
            let key = &input.keys[k];
            let node = input.router.as_ref().map_or(0, |r| r.owner_of(key).node);
            tr.begin("wal.catchup");
            let logged = scan_catchup(&w.scratch.join(format!("node{node}")), 0, key, 0);
            tr.end();
            catchup_frames += logged.len() as u64;
        }
        for n in 0..writers.len() {
            let dir = w
                .prepared
                .as_ref()
                .unwrap_or(&w.scratch)
                .join(format!("node{n}"));
            let wcfg = WalConfig::new(&dir);
            let rcfg = ServeConfig {
                shards: 1,
                wal: Some(wcfg.clone()),
                ..cfg.clone()
            };
            tr.begin("wal.recover");
            let rec = recover_shard(&rcfg, &wcfg, 0, &Arc::new(WalStats::default()));
            tr.end();
            rec.map_err(|e| format!("recover log: {e}"))?;
        }
    }
    Ok(ReplayOutput {
        wall_s: started.elapsed().as_secs_f64(),
        spans: tr.spans,
        paced_mark_ns,
        paced,
        frames,
        catchup_frames,
    })
}

/// Decode one binary ingest frame inside a `frame.decode` span.
fn decode(
    tr: &mut Tracer,
    codec: &mut FrameCodec,
    bytes: &[u8],
) -> Result<(String, Vec<ItemSet>), String> {
    tr.begin("frame.decode");
    codec.extend(bytes);
    let decoded = codec.next_frame();
    tr.end();
    match decoded {
        Ok(Some(Frame::Binary(BinaryFrame::Ingest { stream, batch }))) => Ok((stream, batch)),
        other => Err(format!("ingest frame did not decode back: {other:?}")),
    }
}

fn append(
    tr: &mut Tracer,
    w: &mut WalWriter,
    n: &mut u32,
    sync_every: u32,
    rec: &WalRecord,
) -> Result<(), String> {
    tr.begin("wal.append");
    let r = w.append(rec);
    tr.end();
    r.map_err(|e| format!("replay wal append: {e}"))?;
    *n += 1;
    if *n >= sync_every {
        sync(tr, w, n)?;
    }
    Ok(())
}

fn sync(tr: &mut Tracer, w: &mut WalWriter, n: &mut u32) -> Result<(), String> {
    tr.begin("wal.sync");
    let r = w.sync();
    tr.end();
    *n = 0;
    r.map_err(|e| format!("replay wal sync: {e}"))
}

fn wire_entry(e: &SanitizedItemset) -> BinaryEntry {
    BinaryEntry {
        ids: e.itemset().items().iter().map(|i| i.id()).collect(),
        support: e.sanitized,
    }
}

/// The engine's publish stage: the republication rule against the previous
/// publication, entries in publication order, the delta, and the next
/// publication state.
#[allow(clippy::type_complexity)]
fn republish(
    fecs: &[Fec],
    noises: &[i64],
    prev: &HashMap<ItemsetId, (Support, SanitizedSupport)>,
) -> (
    Vec<SanitizedItemset>,
    ReleaseDelta,
    HashMap<ItemsetId, (Support, SanitizedSupport)>,
) {
    let total: usize = fecs.iter().map(Fec::size).sum();
    let mut entries = Vec::with_capacity(total);
    let mut next = HashMap::with_capacity(total);
    let mut delta = ReleaseDelta::default();
    for (fec, &noise) in fecs.iter().zip(noises) {
        for &member in fec.members() {
            let previous = prev.get(&member).copied();
            let sanitized = match previous {
                Some((prev_true, prev_sanitized)) if prev_true == fec.support() => prev_sanitized,
                _ => fec.support() as SanitizedSupport + noise,
            };
            let entry = SanitizedItemset {
                id: member,
                true_support: fec.support(),
                sanitized,
            };
            match previous {
                None => delta.added.push(entry),
                Some(pair) if pair != (entry.true_support, entry.sanitized) => {
                    delta.changed.push(entry)
                }
                Some(_) => {}
            }
            next.insert(member, (fec.support(), sanitized));
            entries.push(entry);
        }
    }
    let mut removed: Vec<ItemsetId> = prev
        .keys()
        .filter(|id| !next.contains_key(*id))
        .copied()
        .collect();
    removed.sort_unstable_by(|a, b| a.resolve().cmp(b.resolve()));
    delta.removed = removed;
    (entries, delta, next)
}

/// Check the replay's frames against the gate's publications, for the keys
/// the replay covered.
pub fn matches_gate(out: &ReplayOutput, gate: &[Vec<Publication>], replayed: &[bool]) -> bool {
    out.frames
        .iter()
        .zip(gate)
        .zip(replayed)
        .filter(|(_, &r)| r)
        .all(|((got, pubs), _)| {
            let want: Vec<(u8, u64, &Arc<[u8]>)> = pubs
                .iter()
                .flat_map(|p| p.live_frames().map(move |(op, b)| (op, p.stream_len, b)))
                .collect();
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|((op, len, b), (wop, wlen, wb))| op == wop && len == wlen && **b == ***wb)
        })
}

/// Self time and call count per span name over spans that start at or
/// after `from_ns` (one-off spans are kept whenever they start).
pub fn ledger(spans: &[Span], from_ns: u64) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.start_ns >= from_ns || is_one_off(s.name) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
        }
    }
    out
}

/// Spans that run once per run rather than per request.
pub fn is_one_off(name: &str) -> bool {
    matches!(name, "wal.recover" | "wal.catchup")
}

/// Write the span file, one tab-separated span per line: name, start,
/// end, parent index (-1 for none), publication id, self time (ns).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent\tpublication\tself_ns")?;
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, s.publication, self_ns
        )?;
    }
    w.flush()
}
