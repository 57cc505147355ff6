//! The TCP front end: one thread per connection over a bounded pool of
//! routing slots, serving the wire protocol over a shared
//! [`RoutingService`].
//!
//! Shape:
//!
//! * the **accept thread** spawns one named thread per accepted
//!   connection. That thread owns its socket, its [`FrameReader`], its
//!   read chunk and its reply buffer;
//! * the server keeps `SP_SERVE_THREADS` **slots** for its whole life.
//!   A slot holds one [`ServiceSession`] (pinned snapshot + reused
//!   route buffer), the decoded-`MOVE` scratch and the index of its
//!   telemetry cell. A connection takes a slot only when it has
//!   complete frames buffered, answers them, and returns the slot
//!   before it writes the replies and reads its socket again — so no
//!   connection ever holds a slot while it waits on its socket, and any
//!   number of connections make progress on a pool of any size, down
//!   to one slot. Slots borrow the service, so the accept loop and the
//!   connection threads all run inside one `std::thread::scope`. The
//!   steady-state `QUERY` path (decode → route → encode) performs
//!   **zero allocations**, enforced by the `sp-analyze` hot-function
//!   manifest. Sessions re-pin to the current epoch on every query, so
//!   a connection moving between slots still observes nondecreasing
//!   epochs;
//! * an optional **exporter thread** appends a telemetry JSONL line
//!   every interval when `SP_SERVE_TELEMETRY` names a file.
//!
//! Every response carries the epoch it was answered against, so the
//! service's consistency contract — `answer.epoch <=`
//! [`RoutingService::epoch`] — survives the wire hop; the
//! `end_to_end` test races concurrent clients against live `MOVE` /
//! `CHAOS` churn to hold it.
//!
//! Shutdown is graceful: on `SHUTDOWN` the stop flag flips first and
//! the acknowledgement is written after it, so a requester that hears
//! back always finds the server stopping. The accept loop is woken
//! with a throwaway connection and exits, and every connection thread
//! keeps serving until EOF or the drain deadline — pipelined in-flight
//! requests always get their replies.

use crate::telemetry::Telemetry;
use crate::wire::{
    decode_request, encode_epoch_ok, encode_error, encode_info_ok, encode_query_ok,
    encode_shutdown_ok, encode_stats_ok, write_frame, AnswerWire, FrameReader, ProtocolError,
    ProtocolErrorKind, Request, OP_CHAOS, OP_MOVE, OP_QUERY,
};
use sp_core::{RoutingService, ServiceScheme, ServiceSession};
use sp_experiments::ChaosRecipe;
use sp_geom::Point;
use sp_net::{Network, NodeId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
// sp-analyze: allow(concurrency, the server's stop flag is a single watched bool, not a work-sharing cursor)
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default listen address when `SP_SERVE_ADDR` is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4617";

/// Per-connection read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Socket read timeout: how often an idle connection thread rechecks
/// the stop flag and drain deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Recovers a mutex guard even from a poisoned lock — a connection
/// thread that panicked while holding the slot pool must not wedge the
/// others.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Server configuration. [`ServeConfig::from_env`] reads the
/// registered knobs; the builders override per instance (tests and
/// benches bind ephemeral ports and skip telemetry).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Routing slot count (floored at 1): how many connections are
    /// answered at once.
    pub threads: usize,
    /// Telemetry JSONL path; `None` disables the exporter thread.
    pub telemetry: Option<String>,
    /// Interval between telemetry JSONL lines.
    pub telemetry_interval: Duration,
    /// How long connections keep being served after shutdown begins.
    pub drain_timeout: Duration,
}

impl ServeConfig {
    /// The knob-driven configuration: `SP_SERVE_ADDR`,
    /// `SP_SERVE_THREADS`, `SP_SERVE_TELEMETRY`.
    pub fn from_env() -> ServeConfig {
        ServeConfig {
            addr: sp_sync::env_var("SP_SERVE_ADDR").unwrap_or_else(|| DEFAULT_ADDR.to_owned()),
            threads: sp_sync::configured_threads_for("SP_SERVE_THREADS"),
            telemetry: sp_sync::env_var("SP_SERVE_TELEMETRY"),
            telemetry_interval: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(5),
        }
    }

    /// An ephemeral-port loopback configuration with `threads` slots
    /// and no telemetry export — the test/bench shape.
    pub fn ephemeral(threads: usize) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads,
            telemetry: None,
            telemetry_interval: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(5),
        }
    }

    /// Overrides the telemetry export path.
    pub fn with_telemetry(mut self, path: impl Into<String>, interval: Duration) -> ServeConfig {
        self.telemetry = Some(path.into());
        self.telemetry_interval = interval;
        self
    }
}

/// State shared by the accept loop, the connection threads, and the
/// handle.
struct Shared {
    service: Arc<RoutingService>,
    /// The pristine epoch-0 topology: chaos re-degrades from here
    /// (failures are not monotone — revivals need the original edges),
    /// and its node count is the wire-validation bound (node ids stay
    /// index-aligned across every epoch).
    base: Network,
    nodes: usize,
    telemetry: Telemetry,
    // sp-analyze: allow(concurrency, the server's stop flag is a single watched bool, not a work-sharing cursor)
    stop: AtomicBool,
    addr: SocketAddr,
    drain_timeout: Duration,
    drain_deadline: Mutex<Option<Instant>>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Flips the server into draining: deadline first (so no thread can
    /// observe `stop` without one), then the flag, then wake the accept
    /// loop with a throwaway loopback connection.
    fn begin_shutdown(&self) {
        {
            let mut deadline = lock_recover(&self.drain_deadline);
            if deadline.is_none() {
                *deadline = Some(Instant::now() + self.drain_timeout);
            }
        }
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        drop(TcpStream::connect(self.addr));
    }

    fn drain_expired(&self) -> bool {
        match *lock_recover(&self.drain_deadline) {
            Some(deadline) => Instant::now() >= deadline,
            None => true,
        }
    }
}

/// A running server: its bound address, the shared service, and the
/// thread handles [`ServerHandle::join`] waits on.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (the real port, also under port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served routing service — lets embedders (tests, benches)
    /// churn epochs directly next to wire traffic.
    pub fn service(&self) -> &Arc<RoutingService> {
        &self.shared.service
    }

    /// Aggregated telemetry, same data a `STATS` frame returns.
    pub fn stats(&self) -> crate::telemetry::StatsSnapshot {
        self.shared.telemetry.aggregate()
    }

    /// True once shutdown has begun (via wire `SHUTDOWN` or
    /// [`ServerHandle::shutdown`]).
    pub fn stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Begins graceful shutdown (idempotent): stop accepting, drain
    /// open connections, exit.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for every server thread to exit. Call after
    /// [`ServerHandle::shutdown`] (or after a client sent `SHUTDOWN`).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            drop(t.join());
        }
    }
}

/// Builds the service over `net` and starts serving `cfg.addr`.
/// Returns once the listener is bound and every thread is running —
/// [`ServerHandle::addr`] is immediately connectable.
pub fn serve(net: Network, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    serve_with(Arc::new(RoutingService::new(net.clone())), net, cfg)
}

/// [`serve`] over an existing service plus its pristine base topology
/// (`base` must be the epoch-0 network: chaos re-degrades from it and
/// node-id validation uses its node count).
pub fn serve_with(
    service: Arc<RoutingService>,
    base: Network,
    cfg: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let slots = cfg.threads.max(1);
    let nodes = base.len();
    let shared = Arc::new(Shared {
        service,
        base,
        nodes,
        telemetry: Telemetry::new(slots),
        // sp-analyze: allow(concurrency, the server's stop flag is a single watched bool, not a work-sharing cursor)
        stop: AtomicBool::new(false),
        addr,
        drain_timeout: cfg.drain_timeout,
        drain_deadline: Mutex::new(None),
    });
    let mut threads = Vec::with_capacity(2);
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("sp-serve-accept".to_owned())
                .spawn(move || accept_loop(&shared, listener, slots))?,
        );
    }
    if let Some(path) = cfg.telemetry.clone() {
        let shared = Arc::clone(&shared);
        let interval = cfg.telemetry_interval;
        threads.push(
            std::thread::Builder::new()
                .name("sp-serve-telemetry".to_owned())
                .spawn(move || exporter_loop(&shared, &path, interval))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// One routing slot: everything answering a frame needs beyond the
/// connection's own buffers.
struct Slot<'s> {
    session: ServiceSession<'s>,
    /// The decoded `MOVE` batch, reused across frames.
    moves: Vec<(NodeId, Point)>,
    /// This slot's telemetry cell.
    cell: usize,
}

/// The server's fixed set of slots; free ones wait on a stack.
struct SlotPool<'s> {
    free: Mutex<Vec<Slot<'s>>>,
    returned: Condvar,
}

impl<'s> SlotPool<'s> {
    fn new(service: &'s RoutingService, slots: usize) -> SlotPool<'s> {
        let free = (0..slots)
            .map(|cell| Slot {
                session: service.session(),
                moves: Vec::new(),
                cell,
            })
            .collect();
        SlotPool {
            free: Mutex::new(free),
            returned: Condvar::new(),
        }
    }

    /// Takes a free slot, waiting for one to be returned if all are
    /// busy. Slot holders never wait on a socket, so the wait is short.
    fn take(&self) -> Slot<'s> {
        let mut free = lock_recover(&self.free);
        loop {
            if let Some(slot) = free.pop() {
                return slot;
            }
            free = match self.returned.wait(free) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn put(&self, slot: Slot<'s>) {
        lock_recover(&self.free).push(slot);
        self.returned.notify_one();
    }
}

/// Spawns one thread per accepted connection until shutdown, then
/// waits for every connection thread to drain. The throwaway wake
/// connection from [`Shared::begin_shutdown`] guarantees `accept`
/// returns one last time so the stop check runs.
fn accept_loop(shared: &Shared, listener: TcpListener, slots: usize) {
    let pool = SlotPool::new(&shared.service, slots);
    let pool = &pool;
    // sp-analyze: allow(concurrency, connection threads borrow the slot pool, whose sessions borrow the service; only a scope lets them)
    std::thread::scope(|s| {
        for conn in listener.incoming() {
            if shared.stopping() {
                break;
            }
            let Ok(stream) = conn else { continue };
            drop(stream.set_nodelay(true));
            if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
                continue;
            }
            // If the OS refuses the thread, the closure is dropped and
            // the stream with it: the connection closes.
            drop(
                std::thread::Builder::new()
                    .name("sp-serve-conn".to_owned())
                    .spawn_scoped(s, move || serve_conn(shared, pool, stream)),
            );
        }
    });
}

/// Serves one connection until EOF, a transport error, a framing-level
/// protocol error, or the post-shutdown drain deadline. Replies are
/// written, and the socket read, with no slot held.
fn serve_conn(shared: &Shared, pool: &SlotPool<'_>, mut stream: TcpStream) {
    let mut reader = FrameReader::new();
    let mut chunk = [0u8; READ_CHUNK];
    let mut out = Vec::new();
    let mut replies = Vec::new();
    loop {
        let open = answer_buffered(shared, pool, &mut reader, &mut out, &mut replies);
        if stream.write_all(&replies).is_err() || !open {
            return;
        }
        replies.clear();
        if shared.stopping() && shared.drain_expired() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => reader.extend(chunk.get(..n).unwrap_or(&[])),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Answers every complete frame buffered in `reader`, appending each
/// framed reply to `replies`. Takes a slot at the first complete frame
/// and returns it before this function does. Returns `false` when the
/// byte stream can no longer be framed; the named error is then the
/// last reply.
fn answer_buffered(
    shared: &Shared,
    pool: &SlotPool<'_>,
    reader: &mut FrameReader,
    out: &mut Vec<u8>,
    replies: &mut Vec<u8>,
) -> bool {
    let mut slot = None;
    let open = loop {
        let open = match reader.next_frame() {
            Ok(None) => break true,
            Ok(Some(frame)) => {
                dispatch(shared, slot.get_or_insert_with(|| pool.take()), frame, out);
                true
            }
            Err(err) => {
                let cell = slot.get_or_insert_with(|| pool.take()).cell;
                shared.telemetry.with(cell, |c| c.record_protocol_error());
                encode_error(out, 0, err);
                false
            }
        };
        // Writing into a `Vec` cannot fail.
        drop(write_frame(replies, out));
        if !open {
            break false;
        }
    };
    if let Some(slot) = slot {
        pool.put(slot);
    }
    open
}

/// A decoded `QUERY` frame's fields, bundled to keep the hot-path
/// signature small.
struct QueryFrame {
    src: u32,
    dst: u32,
    scheme_code: u8,
    trace: bool,
}

/// Decodes one frame and encodes its response into `out`.
fn dispatch(shared: &Shared, slot: &mut Slot<'_>, frame: &[u8], out: &mut Vec<u8>) {
    let Slot {
        session,
        moves,
        cell,
    } = slot;
    let cell = *cell;
    let req = match decode_request(frame) {
        Ok(req) => req,
        Err(err) => {
            shared.telemetry.with(cell, |c| c.record_protocol_error());
            encode_error(out, 0, err);
            return;
        }
    };
    match req {
        Request::Query {
            src,
            dst,
            scheme,
            trace,
        } => serve_query(
            shared,
            session,
            out,
            QueryFrame {
                src,
                dst,
                scheme_code: scheme,
                trace,
            },
            cell,
        ),
        Request::Move(batch) => {
            moves.clear();
            let mut bad = None;
            for (node, x, y) in batch.iter() {
                if node as usize >= shared.nodes {
                    bad = Some(ProtocolError::new(
                        ProtocolErrorKind::BadNodeId,
                        node as u64,
                    ));
                    break;
                }
                if !x.is_finite() || !y.is_finite() {
                    bad = Some(ProtocolError::new(
                        ProtocolErrorKind::BadCoordinate,
                        node as u64,
                    ));
                    break;
                }
                moves.push((NodeId(node), Point::new(x, y)));
            }
            if let Some(err) = bad {
                shared.telemetry.with(cell, |c| c.record_protocol_error());
                encode_error(out, OP_MOVE, err);
                return;
            }
            let epoch = shared.service.apply_moves(moves);
            shared
                .telemetry
                .with(cell, |c| c.record_move(moves.len() as u64));
            encode_epoch_ok(out, OP_MOVE, epoch, moves.len() as u32);
        }
        Request::Chaos { round, seed, spec } => match ChaosRecipe::parse(spec) {
            Ok(recipe) => {
                let plan = recipe.build(&shared.base, seed);
                let epoch = shared
                    .service
                    .apply_chaos(&shared.base, &plan, round as usize);
                shared.telemetry.with(cell, |c| c.record_chaos());
                encode_epoch_ok(out, OP_CHAOS, epoch, recipe.clauses.len() as u32);
            }
            Err(_) => {
                shared.telemetry.with(cell, |c| c.record_protocol_error());
                encode_error(
                    out,
                    OP_CHAOS,
                    ProtocolError::new(ProtocolErrorKind::BadSpec, spec.len() as u64),
                );
            }
        },
        Request::Stats => {
            let snap = shared.telemetry.aggregate();
            encode_stats_ok(out, shared.service.epoch(), &snap);
        }
        Request::Info => encode_info_ok(
            out,
            shared.service.epoch(),
            shared.nodes as u32,
            shared.telemetry.workers() as u32,
        ),
        Request::Shutdown => {
            // Stop first, acknowledge after: a requester that hears
            // back always finds the server stopping, and it still hears
            // back because the drain deadline is seconds away.
            shared.begin_shutdown();
            encode_shutdown_ok(out, shared.service.epoch());
        }
    }
}

/// The steady-state query path: validate, route against the session's
/// pinned snapshot, encode (with the hop trace borrowed straight from
/// the session's reused route buffer when requested), record
/// telemetry. On the `sp-analyze` hot-function manifest: allocates
/// nothing once the slot's and connection's buffers are warm.
fn serve_query(
    shared: &Shared,
    session: &mut ServiceSession<'_>,
    out: &mut Vec<u8>,
    q: QueryFrame,
    cell: usize,
) {
    let Some(scheme) = ServiceScheme::from_code(q.scheme_code) else {
        shared.telemetry.with(cell, |c| c.record_protocol_error());
        encode_error(
            out,
            OP_QUERY,
            ProtocolError::new(ProtocolErrorKind::BadScheme, q.scheme_code as u64),
        );
        return;
    };
    if q.src as usize >= shared.nodes || q.dst as usize >= shared.nodes {
        let bad = if (q.src as usize) < shared.nodes {
            q.dst
        } else {
            q.src
        };
        shared.telemetry.with(cell, |c| c.record_protocol_error());
        encode_error(
            out,
            OP_QUERY,
            ProtocolError::new(ProtocolErrorKind::BadNodeId, bad as u64),
        );
        return;
    }
    let start = Instant::now();
    let a = session.route_with(scheme, NodeId(q.src), NodeId(q.dst));
    let latency = start.elapsed().as_secs_f64();
    let wire = AnswerWire {
        epoch: a.epoch,
        outcome: a.outcome,
        hops: a.hops as u32,
        length: a.length,
        perimeter: a.perimeter_entries as u32,
        backup: a.backup_entries as u32,
    };
    if q.trace {
        encode_query_ok(out, &wire, Some(session.last_path()));
    } else {
        encode_query_ok(out, &wire, None);
    }
    shared.telemetry.with(cell, |c| {
        c.record_query(a.delivered(), a.hops, q.trace, latency)
    });
}

/// Appends one telemetry JSONL line every `interval` until shutdown,
/// plus a final line at exit.
fn exporter_loop(shared: &Shared, path: &str, interval: Duration) {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    let Ok(mut file) = file else { return };
    let step = Duration::from_millis(50).min(interval.max(Duration::from_millis(1)));
    loop {
        let mut waited = Duration::ZERO;
        while waited < interval && !shared.stopping() {
            std::thread::sleep(step);
            waited += step;
        }
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        if shared
            .telemetry
            .write_jsonl(&mut file, shared.service.epoch(), ts)
            .is_err()
            || shared.stopping()
        {
            return;
        }
    }
}
