//! The traced run's in-process replays: each layer's public function
//! called by the benchmark on the run's own inputs, inside spans.

use crate::gen::{as_moves, MoveGen};
use crate::trace::Trace;
use sp_core::{
    RouteOutcome, RoutingService, SafetyMap, ServiceAnswer, ServiceScheme, ServiceSnapshot,
    ShapeMap,
};
use sp_geom::Point;
use sp_net::{deploy::DeploymentConfig, Network, NodeId};
use sp_serve::wire::{decode_request, decode_response, encode_query, encode_query_ok, AnswerWire};
use sp_sync::EpochCell;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Bytes of the length prefix every frame carries.
const FRAME_HEADER: usize = 4;

/// What the route replay measured, beyond its spans.
#[derive(Debug, Default)]
pub struct RouteReplay {
    /// The answers, in pair order.
    pub answers: Vec<ServiceAnswer>,
    /// Hops over every replayed query.
    pub hops: u64,
    /// Neighbours scanned: the degree of every node that forwarded.
    pub neighbors: u64,
    /// Perimeter-phase entries over every query.
    pub perimeter: u64,
    /// Backup-phase entries over every query.
    pub backup: u64,
}

/// Replays `pairs` through `ServiceSession::route_with` (SLGF2, the
/// wire default), one `route.query` span per call.
pub fn replay_routes(
    trace: &mut Trace,
    parent: Option<usize>,
    service: &RoutingService,
    pairs: &[(u32, u32)],
) -> RouteReplay {
    let mut out = RouteReplay {
        answers: Vec::with_capacity(pairs.len()),
        ..RouteReplay::default()
    };
    let mut session = service.session();
    for &(s, d) in pairs {
        let start = Instant::now();
        let a = session.route_with(ServiceScheme::Slgf2, NodeId(s), NodeId(d));
        trace.record("route.query", parent, start, Instant::now(), a.hops as u64);
        let net = session.snapshot().network();
        let path = session.last_path();
        let forwarders = &path[..path.len().saturating_sub(1)];
        out.neighbors += forwarders
            .iter()
            .map(|&u| net.degree(u) as u64)
            .sum::<u64>();
        out.hops += a.hops as u64;
        out.perimeter += a.perimeter_entries as u64;
        out.backup += a.backup_entries as u64;
        out.answers.push(a);
    }
    out
}

/// Per-call costs of the wire codec and the frame sizes.
#[derive(Debug, Clone, Copy)]
pub struct CodecReplay {
    /// Server side: `decode_request` of a `QUERY` frame (ns).
    pub decode_request_ns: f64,
    /// Server side: `encode_query_ok` of an untraced reply (ns).
    pub encode_reply_ns: f64,
    /// Client side: `encode_query` plus `decode_response` (ns).
    pub client_codec_ns: f64,
    /// Mean request size on the wire, header included (bytes).
    pub request_bytes: f64,
    /// Mean reply size on the wire, header included (bytes).
    pub reply_bytes: f64,
}

/// Repetitions of each codec loop; the median repetition is reported.
const CODEC_REPS: usize = 7;

/// Replays the wire codec over the replayed queries and their answers.
/// Each call costs tens of ns, so each span covers one loop over every
/// query and reports its mean per call.
pub fn replay_codec(
    trace: &mut Trace,
    parent: Option<usize>,
    pairs: &[(u32, u32)],
    answers: &[ServiceAnswer],
) -> CodecReplay {
    let scheme = ServiceScheme::Slgf2.code();
    let requests: Vec<Vec<u8>> = pairs
        .iter()
        .map(|&(s, d)| {
            let mut buf = Vec::new();
            encode_query(&mut buf, s, d, scheme, false);
            buf
        })
        .collect();
    let wires: Vec<AnswerWire> = answers
        .iter()
        .map(|a| AnswerWire {
            epoch: a.epoch,
            outcome: a.outcome,
            hops: a.hops as u32,
            length: a.length,
            perimeter: a.perimeter_entries as u32,
            backup: a.backup_entries as u32,
        })
        .collect();
    let replies: Vec<Vec<u8>> = wires
        .iter()
        .map(|w| {
            let mut buf = Vec::new();
            encode_query_ok(&mut buf, w, None);
            buf
        })
        .collect();
    let n = pairs.len() as u64;
    let mut buf = Vec::with_capacity(64);
    for _ in 0..CODEC_REPS {
        trace.time("wire.encode_query", parent, n, || {
            for &(s, d) in pairs {
                encode_query(&mut buf, black_box(s), black_box(d), scheme, false);
                black_box(&buf);
            }
        });
        trace.time("wire.decode_request", parent, n, || {
            for r in &requests {
                black_box(decode_request(black_box(r)).is_ok());
            }
        });
        trace.time("wire.encode_query_ok", parent, n, || {
            for w in &wires {
                encode_query_ok(&mut buf, black_box(w), None);
                black_box(&buf);
            }
        });
        trace.time("wire.decode_response", parent, n, || {
            for r in &replies {
                black_box(decode_response(black_box(r)).is_ok());
            }
        });
    }
    let per_call = |name: &str| {
        let mut v: Vec<f64> = trace
            .spans()
            .iter()
            .filter(|s| s.name == name && s.parent == parent)
            .map(|s| s.dur_ns() as f64 / s.items.max(1) as f64)
            .collect();
        crate::stats::median(&mut v).unwrap_or(0.0)
    };
    let mean_len = |frames: &[Vec<u8>]| {
        frames
            .iter()
            .map(|f| (f.len() + FRAME_HEADER) as f64)
            .sum::<f64>()
            / frames.len().max(1) as f64
    };
    CodecReplay {
        decode_request_ns: per_call("wire.decode_request"),
        encode_reply_ns: per_call("wire.encode_query_ok"),
        client_codec_ns: per_call("wire.encode_query") + per_call("wire.decode_response"),
        request_bytes: mean_len(&requests),
        reply_bytes: mean_len(&replies),
    }
}

/// Sizes on the wire of an untraced SLGF2 `QUERY` frame and of its
/// reply, length prefix included (bytes). Neither depends on the pair
/// or the answer.
pub fn query_frame_sizes() -> (usize, usize) {
    let mut request = Vec::new();
    encode_query(&mut request, 0, 1, ServiceScheme::Slgf2.code(), false);
    let answer = AnswerWire {
        epoch: 0,
        outcome: RouteOutcome::Delivered,
        hops: 0,
        length: 0.0,
        perimeter: 0,
        backup: 0,
    };
    let mut reply = Vec::new();
    encode_query_ok(&mut reply, &answer, None);
    (request.len() + FRAME_HEADER, reply.len() + FRAME_HEADER)
}

/// Bare TCP ping-pongs over loopback with the wire's request and reply
/// sizes: the transport floor under every round trip. Two pairs of
/// benchmark threads run at once, as the two clients and two workers
/// do, so both CPUs stay busy as they do under the live traffic; a lone
/// pair would also time idle CPUs waking up. One `loopback.rtt` span
/// per exchange.
pub fn loopback_pingpong(
    trace: &mut Trace,
    parent: Option<usize>,
    request_bytes: usize,
    reply_bytes: usize,
    exchanges: usize,
) -> std::io::Result<()> {
    let pair = |origin: Instant| -> std::io::Result<Trace> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mut log = Trace::with_capacity(origin, exchanges);
        std::thread::scope(|scope| {
            let echo = scope.spawn(move || -> std::io::Result<()> {
                let (mut conn, _) = listener.accept()?;
                conn.set_nodelay(true)?;
                let mut request = vec![0u8; request_bytes];
                let reply = vec![7u8; reply_bytes];
                while conn.read_exact(&mut request).is_ok() {
                    conn.write_all(&reply)?;
                }
                Ok(())
            });
            let mut run = || -> std::io::Result<()> {
                let mut conn = TcpStream::connect(addr)?;
                conn.set_nodelay(true)?;
                let request = vec![1u8; request_bytes];
                let mut reply = vec![0u8; reply_bytes];
                for _ in 0..exchanges {
                    let start = Instant::now();
                    conn.write_all(&request)?;
                    conn.read_exact(&mut reply)?;
                    log.record("loopback.rtt", None, start, Instant::now(), 1);
                }
                Ok(())
            };
            let ran = run();
            let echoed = echo
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("echo thread panicked")));
            ran.and(echoed)
        })?;
        Ok(log)
    };
    let origin = trace.origin();
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| pair(origin));
        let mine = pair(origin);
        let theirs = other
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("ping-pong thread panicked")));
        (mine, theirs)
    });
    trace.absorb(a?, parent);
    trace.absorb(b?, parent);
    Ok(())
}

/// What the publish replay measured, beyond its spans.
#[derive(Debug, Clone, Default)]
pub struct PublishReplay {
    /// Per batch: the four stage spans summed (ns).
    pub staged_ns: Vec<u64>,
    /// Per batch: the whole-publish span (ns).
    pub whole_ns: Vec<u64>,
}

impl PublishReplay {
    /// The sum check: the median over batches of how far the stages'
    /// sum lies from the whole publish of the same batch, as a share of
    /// the whole. Pairing each batch with itself cancels slow spells of
    /// a shared machine; the median drops a batch that was preempted.
    pub fn sum_gap(&self) -> Option<f64> {
        let mut gaps: Vec<f64> = self
            .staged_ns
            .iter()
            .zip(&self.whole_ns)
            .map(|(&s, &w)| (s as f64 - w as f64) / w.max(1) as f64)
            .collect();
        crate::stats::median(&mut gaps)
    }
}

/// Replays the probe's first `batches` `MOVE` batches down two chains
/// of the same epochs. The whole chain calls
/// `RoutingService::apply_moves` (`service.apply_moves`). The staged
/// chain calls its stages one at a time: `Network::next_snapshot`
/// (`net.next_snapshot`), `SafetyMap::label` (`labeling.label`),
/// `ShapeMap::build` (`shape.build`) and `EpochCell::publish` of a
/// snapshot prebuilt outside the spans (`epoch.publish`). The chains
/// alternate which goes first. Returns an error if they end on
/// different positions.
pub fn replay_publish(
    trace: &mut Trace,
    parent: Option<usize>,
    cfg: &DeploymentConfig,
    positions: &[Point],
    seed: u64,
    batches: usize,
) -> Result<PublishReplay, String> {
    let net0 = Network::from_positions(positions.to_vec(), cfg.radius, cfg.area);
    let whole = RoutingService::new(net0.clone());
    let cell = EpochCell::new(ServiceSnapshot::build(net0.clone()));
    let mut staged = net0;
    let mut gen = MoveGen::new(seed, positions, cfg.area);
    let mut out = PublishReplay::default();
    for b in 0..batches {
        let batch = gen.next_batch();
        gen.apply(&batch);
        let moves = as_moves(&batch);
        let root = trace.open("publish.batch", parent);
        let run_whole = |trace: &mut Trace| {
            let start = Instant::now();
            whole.apply_moves(&moves);
            let id = trace.record("service.apply_moves", Some(root), start, Instant::now(), 1);
            trace.spans()[id].dur_ns()
        };
        let mut run_staged = |trace: &mut Trace| {
            let next = trace.time("net.next_snapshot", Some(root), 1, || {
                staged.next_snapshot(&moves)
            });
            let safety = trace.time("labeling.label", Some(root), 1, || SafetyMap::label(&next));
            let shapes = trace.time("shape.build", Some(root), 1, || {
                ShapeMap::build(&next, &safety)
            });
            black_box((&safety, &shapes));
            let prebuilt = ServiceSnapshot::build(next.clone());
            trace.time("epoch.publish", Some(root), 1, || cell.publish(prebuilt));
            staged = next;
        };
        let before = trace.spans().len();
        let whole_ns = if b % 2 == 0 {
            let ns = run_whole(trace);
            run_staged(trace);
            ns
        } else {
            run_staged(trace);
            run_whole(trace)
        };
        out.whole_ns.push(whole_ns);
        out.staged_ns.push(
            trace.spans()[before..]
                .iter()
                .filter(|s| s.name != "service.apply_moves")
                .map(|s| s.dur_ns())
                .sum(),
        );
        trace.close(root, moves.len() as u64);
    }
    let served = whole.snapshot().value.network().positions_vec();
    if served != staged.positions_vec() || served != gen.mirror() {
        return Err("the staged and whole publish chains ended on different positions".into());
    }
    Ok(out)
}
