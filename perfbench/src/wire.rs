//! The generator's two connections: one pipelined producer that sends
//! binary ingest frames and NDJSON control requests, with a reader thread
//! that timestamps replies as they arrive, and one subscriber that the
//! generator's own thread polls for raw release frames.

use bfly_common::frame::BINARY_MAGIC;
use bfly_common::Json;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `magic + op + payload_len`, the fixed prefix of a binary frame.
const BINARY_HEADER_LEN: usize = 6;
/// How often the generator's thread polls the subscriber connection while
/// it waits: the resolution of a release's arrival time.
pub const SUB_POLL: Duration = Duration::from_micros(200);

/// Monotonic nanoseconds since the run's clock origin.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What a reply on the producer connection answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pending {
    /// An ingest of batch `batch`, due at `intended_ns`.
    Ingest { batch: usize, intended_ns: u64 },
    /// A `stats` request.
    Stats,
}

/// How the server answered an ingest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestReply {
    Accepted,
    Shed,
    Error(String),
}

impl IngestReply {
    fn parse(line: &str) -> IngestReply {
        if line.contains("\"ok\":true") {
            return IngestReply::Accepted;
        }
        match Json::parse(line) {
            Ok(v) if v.get("error").and_then(Json::as_str) == Some("overloaded") => {
                match v.get("accepted").and_then(Json::as_u64) {
                    // All-or-nothing per request: batches never exceed the
                    // server's ingest chunk.
                    Some(0) => IngestReply::Shed,
                    _ => IngestReply::Error(format!("partially shed batch: {line}")),
                }
            }
            _ => IngestReply::Error(line.to_string()),
        }
    }
}

/// One reply, matched to its request.
#[derive(Debug)]
pub enum Reply {
    Ingest {
        batch: usize,
        intended_ns: u64,
        reply: IngestReply,
        at_ns: u64,
    },
    Stats {
        doc: Json,
    },
}

/// The pipelined producer connection. A reader thread blocks on the
/// socket and timestamps each reply as it arrives; the generator's own
/// thread sends on schedule (with precise sleeps) and, while it waits,
/// polls the attached subscriber.
pub struct Producer {
    sock: TcpStream,
    replies: Receiver<(Vec<String>, u64)>,
    reader: Option<JoinHandle<()>>,
    pending: VecDeque<Pending>,
    sub: Option<Subscriber>,
}

impl Producer {
    pub fn connect(addr: SocketAddr, clock: Clock) -> Result<Producer, String> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = sock.try_clone().map_err(|e| e.to_string())?;
        let (tx, replies) = channel();
        let reader = std::thread::Builder::new()
            .name("perfbench-replies".into())
            .spawn(move || read_replies(read_half, clock, &tx))
            .map_err(|e| e.to_string())?;
        Ok(Producer {
            sock,
            replies,
            reader: Some(reader),
            pending: VecDeque::new(),
            sub: None,
        })
    }

    /// Let waits on this connection also poll `sub`.
    pub fn attach(&mut self, sub: Subscriber) {
        self.sub = Some(sub);
    }

    /// The attached subscriber.
    pub fn sub(&mut self) -> &mut Subscriber {
        self.sub.as_mut().expect("no subscriber attached")
    }

    /// Requests sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Send pre-encoded bytes for a request whose reply is `what`.
    pub fn send(&mut self, bytes: &[u8], what: Pending) -> Result<(), String> {
        self.sock
            .write_all(bytes)
            .map_err(|e| format!("producer write: {e}"))?;
        self.pending.push_back(what);
        Ok(())
    }

    pub fn send_stats(&mut self) -> Result<(), String> {
        self.send(b"{\"op\":\"stats\"}\n", Pending::Stats)
    }

    /// Wait up to `timeout` for replies, returning as soon as some arrive;
    /// the attached subscriber is polled at least every [`SUB_POLL`].
    pub fn poll(&mut self, timeout: Duration, out: &mut Vec<Reply>) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(sub) = self.sub.as_mut() {
                sub.pump()?;
            }
            let now = Instant::now();
            let mut wait = deadline.saturating_duration_since(now);
            if self.sub.is_some() {
                wait = wait.min(SUB_POLL);
            }
            match self.replies.recv_timeout(wait) {
                Ok(batch) => {
                    self.take(batch, out)?;
                    while let Ok(batch) = self.replies.try_recv() {
                        self.take(batch, out)?;
                    }
                    return Ok(());
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        if let Some(sub) = self.sub.as_mut() {
                            sub.pump()?;
                        }
                        return Ok(());
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("server closed the producer connection".into())
                }
            }
        }
    }

    fn take(
        &mut self,
        (lines, at_ns): (Vec<String>, u64),
        out: &mut Vec<Reply>,
    ) -> Result<(), String> {
        for line in lines {
            let what = self
                .pending
                .pop_front()
                .ok_or_else(|| format!("reply with no request: {line}"))?;
            out.push(match what {
                Pending::Ingest { batch, intended_ns } => Reply::Ingest {
                    batch,
                    intended_ns,
                    reply: IngestReply::parse(&line),
                    at_ns,
                },
                Pending::Stats => Reply::Stats {
                    doc: Json::parse(&line).map_err(|e| format!("stats reply: {e}"))?,
                },
            });
        }
        Ok(())
    }

    /// Read replies until none is outstanding or `deadline` passes.
    pub fn drain(&mut self, deadline: Instant, out: &mut Vec<Reply>) -> Result<(), String> {
        while !self.pending.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("{} replies still outstanding", self.pending.len()));
            }
            self.poll((deadline - now).min(Duration::from_millis(50)), out)?;
        }
        Ok(())
    }

    /// One `stats` round trip (nothing else may be in flight).
    pub fn stats(&mut self) -> Result<Json, String> {
        assert_eq!(
            self.in_flight(),
            0,
            "stats round trip with requests in flight"
        );
        self.send_stats()?;
        let mut out = Vec::new();
        self.drain(Instant::now() + Duration::from_secs(30), &mut out)?;
        match out.pop() {
            Some(Reply::Stats { doc }) => Ok(doc),
            other => Err(format!("expected a stats reply, got {other:?}")),
        }
    }

    /// Poll the attached subscriber until `done` holds for its log or
    /// `deadline` passes; returns whether it held.
    pub fn wait_sub(
        &mut self,
        deadline: Instant,
        done: impl Fn(&SubLog) -> bool,
    ) -> Result<bool, String> {
        let mut out = Vec::new();
        loop {
            self.sub().pump()?;
            if done(&self.sub().log) {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            self.poll(SUB_POLL, &mut out)?;
            if !out.is_empty() {
                return Err(format!("unexpected replies while waiting: {out:?}"));
            }
        }
    }

    /// Ask the server to drain and exit, close both connections, and join
    /// the reply reader. The reply is not awaited: a router may close the
    /// connection as it goes.
    pub fn shutdown(mut self) {
        let _ = self.sock.write_all(b"{\"op\":\"shutdown\"}\n");
        let _ = self.sock.shutdown(Shutdown::Both);
        drop(self.replies);
        if let Some(r) = self.reader.take() {
            r.join().expect("reply reader panicked");
        }
    }
}

fn read_replies(mut sock: TcpStream, clock: Clock, tx: &Sender<(Vec<String>, u64)>) {
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let n = match sock.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        let at_ns = clock.now_ns();
        buf.extend_from_slice(&chunk[..n]);
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(off) = buf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[start..start + off])
                .trim()
                .to_string();
            start += off + 1;
            if !line.is_empty() {
                lines.push(line);
            }
        }
        buf.drain(..start);
        if !lines.is_empty() && tx.send((lines, at_ns)).is_err() {
            return;
        }
    }
}

/// One release frame as the subscriber received it.
#[derive(Clone, Debug)]
pub struct RecvFrame {
    /// Binary op: 2 = `release` snapshot, 3 = `release_delta`.
    pub op: u8,
    pub stream_len: u64,
    pub at_ns: u64,
    pub bytes: Vec<u8>,
}

/// Everything the subscriber has received so far.
#[derive(Clone, Debug, Default)]
pub struct SubLog {
    /// Release frames per key index, in arrival order.
    pub frames: Vec<Vec<RecvFrame>>,
    /// Highest `stream_len` received per key.
    pub high: Vec<u64>,
    /// `subscribe` acknowledgements.
    pub acks: usize,
    /// Error replies, `unavailable` events and undecodable frames.
    pub errors: Vec<String>,
}

/// The subscriber connection, read without blocking from the generator's
/// thread: a frame's arrival time is when a poll found it, at most
/// [`SUB_POLL`] after it arrived while the generator waits.
pub struct Subscriber {
    sock: TcpStream,
    clock: Clock,
    index: HashMap<String, usize>,
    buf: Vec<u8>,
    pub log: SubLog,
}

impl Subscriber {
    pub fn connect(addr: SocketAddr, keys: &[String], clock: Clock) -> Result<Subscriber, String> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        sock.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Subscriber {
            sock,
            clock,
            index: keys
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), i))
                .collect(),
            buf: Vec::with_capacity(256 * 1024),
            log: SubLog {
                frames: vec![Vec::new(); keys.len()],
                high: vec![0; keys.len()],
                ..SubLog::default()
            },
        })
    }

    /// Subscribe to `key` in the binary frame mode, optionally with log
    /// catch-up from the earliest retained release.
    pub fn subscribe(&mut self, key: &str, earliest: bool) -> Result<(), String> {
        let from = if earliest {
            ",\"from\":\"earliest\""
        } else {
            ""
        };
        let line =
            format!("{{\"op\":\"subscribe\",\"stream\":\"{key}\",\"frame\":\"binary\"{from}}}\n");
        let mut rest = line.as_bytes();
        while !rest.is_empty() {
            match self.sock.write(rest) {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(SUB_POLL),
                Err(e) => return Err(format!("subscribe write: {e}")),
            }
        }
        Ok(())
    }

    /// Read and log everything that has arrived.
    pub fn pump(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.sock.read(&mut chunk) {
                Ok(0) => return Err("server closed the subscriber connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("subscriber read: {e}")),
            }
        }
        let at_ns = self.clock.now_ns();
        let mut start = 0;
        while let Some((item, used)) = split_frame(&self.buf[start..]) {
            start += used;
            self.record(item, at_ns);
        }
        self.buf.drain(..start);
        Ok(())
    }

    fn record(&mut self, item: Item, at_ns: u64) {
        let log = &mut self.log;
        match item {
            Item::Binary(bytes) => match release_header(&bytes) {
                Some((op, key, stream_len)) => match self.index.get(key) {
                    Some(&k) => {
                        log.high[k] = log.high[k].max(stream_len);
                        log.frames[k].push(RecvFrame {
                            op,
                            stream_len,
                            at_ns,
                            bytes,
                        });
                    }
                    None => log.errors.push(format!("release for unknown key {key:?}")),
                },
                None => log.errors.push("undecodable binary frame".into()),
            },
            Item::Line(line) => match Json::parse(&line) {
                Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => log.acks += 1,
                Ok(v) if v.get("event").and_then(Json::as_str) == Some("closed") => {}
                _ => log.errors.push(line),
            },
        }
    }
}

enum Item {
    Binary(Vec<u8>),
    Line(String),
}

/// Split one whole frame off the front of `buf`: a binary frame (by its
/// magic byte) or an NDJSON line. `None` when more bytes are needed.
fn split_frame(buf: &[u8]) -> Option<(Item, usize)> {
    let first = *buf.first()?;
    if first == BINARY_MAGIC {
        if buf.len() < BINARY_HEADER_LEN {
            return None;
        }
        let len = u32::from_le_bytes(buf[2..6].try_into().expect("4 bytes")) as usize;
        let end = BINARY_HEADER_LEN + len;
        (buf.len() >= end).then(|| (Item::Binary(buf[..end].to_vec()), end))
    } else {
        let off = buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&buf[..off]).trim().to_string();
        Some((Item::Line(line), off + 1))
    }
}

/// `(op, key, stream_len)` of a binary release or release-delta frame.
fn release_header(frame: &[u8]) -> Option<(u8, &str, u64)> {
    let op = *frame.get(1)?;
    let p = frame.get(BINARY_HEADER_LEN..)?;
    let klen = u16::from_le_bytes(p.get(..2)?.try_into().ok()?) as usize;
    let key = std::str::from_utf8(p.get(2..2 + klen)?).ok()?;
    let len = u64::from_le_bytes(p.get(2 + klen..10 + klen)?.try_into().ok()?);
    matches!(op, 2 | 3).then_some((op, key, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_common::{BinaryEntry, BinaryFrame};

    #[test]
    fn splits_binary_frames_and_lines_and_reads_release_headers() {
        let frame = BinaryFrame::Release {
            stream: "k1".into(),
            stream_len: 2050,
            entries: vec![BinaryEntry {
                ids: vec![1, 2],
                support: 30,
            }],
        }
        .encode();
        let mut wire = b"{\"ok\":true,\"stream\":\"k1\"}\n".to_vec();
        wire.extend_from_slice(&frame);
        let (item, used) = split_frame(&wire).unwrap();
        assert!(matches!(item, Item::Line(ref l) if l.contains("\"ok\":true")));
        let rest = &wire[used..];
        assert!(split_frame(&rest[..rest.len() - 1]).is_none());
        let (item, used) = split_frame(rest).unwrap();
        assert_eq!(used, rest.len());
        let Item::Binary(bytes) = item else {
            panic!("expected a binary frame")
        };
        assert_eq!(release_header(&bytes), Some((2, "k1", 2050)));
    }

    #[test]
    fn ingest_replies_classify() {
        assert_eq!(
            IngestReply::parse("{\"accepted\":25,\"ok\":true}"),
            IngestReply::Accepted
        );
        assert_eq!(
            IngestReply::parse(
                "{\"ok\":false,\"error\":\"overloaded\",\"accepted\":0,\"shed\":25}"
            ),
            IngestReply::Shed
        );
        assert!(matches!(
            IngestReply::parse("{\"ok\":false,\"error\":\"shutting-down\"}"),
            IngestReply::Error(_)
        ));
    }
}
