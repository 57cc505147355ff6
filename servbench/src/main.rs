//! `servbench`: one run of one serving workload.
//!
//! ```text
//! servbench --workload <wire_local|wire_crossfield> --seed <n>
//!           --seconds <s> --trace <0|1> [--tamper]
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). Exits 1 when any check fails, 2 on bad
//! arguments. `--tamper` flips one bit of one reply before it is
//! checked, to prove the checks can fail.

use servbench::calib::Speed;
use servbench::check::{epoch_within, positions_match, stats_match, Expected, Tally};
use servbench::gen::{Inputs, MoveGen, Workload, DEPLOYMENT_SEED, NODES};
use servbench::layers;
use servbench::live::{probe_moves, Client, MoveRecord, WindowOut};
use servbench::procfs;
use servbench::stats::{median, quantile};
use servbench::trace::Trace;
use sp_core::{RoutingService, ServiceScheme};
use sp_geom::Point;
use sp_net::{Network, NodeId};
use sp_serve::{serve_with, ServeConfig, ServerHandle, StatsReply};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const USAGE: &str = "usage: servbench --workload <wire_local|wire_crossfield> \
                     --seed <n> --seconds <s> --trace <0|1> [--tamper]";

/// Target length of one measured segment, each on a server of its own.
/// The query figures are taken per segment and reported as the median
/// over segments.
const SEGMENT_SECONDS: f64 = 1.5;
/// Seconds of untimed queries on each segment's server before its
/// window, both clients at once: the first queries on a fresh server
/// and fresh connections run slower while caches fill and the scheduler
/// settles the threads.
const WARMUP_SECONDS: f64 = 0.25;
/// `MOVE`s in the idle-server probe, at least, spread in bursts over
/// the run.
const PROBE_MOVES: usize = 200;
/// Batches down each chain of the publish replay: odd, so the chains
/// end with movers away from the deployment.
const PUBLISH_BATCHES: usize = 11;
/// Exchanges in the loopback ping-pong.
const LOOPBACK_EXCHANGES: usize = 20_000;
/// Spans of one name written to the trace file.
const SPAN_WRITE_CAP: usize = 10_000;
/// Largest gap allowed between the staged publish and the whole one.
const PUBLISH_SUM_TOLERANCE: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tamper: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tamper = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tamper" {
            tamper = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("want 0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tamper,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("servbench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            std::process::exit(if report.problems.is_empty() { 0 } else { 1 });
        }
        Err(err) => {
            eprintln!("servbench: {err}");
            std::process::exit(1);
        }
    }
}

/// One named, unit-bearing figure.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Everything a run prints.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn add(&mut self, name: &'static str, value: Option<f64>, unit: &'static str, note: String) {
        match value {
            Some(v) if v.is_finite() => self.metrics.push(Metric {
                name,
                value: v,
                unit,
                note,
            }),
            _ => self.problems.push(format!("{name}: no value measured")),
        }
    }

    fn check(&mut self, verdict: Result<(), String>) {
        if let Err(what) = verdict {
            self.problems.push(what);
        }
    }

    fn print(&self) {
        for m in &self.metrics {
            eprintln!(
                "  {:<28} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        eprintln!(
            "  attempted {} failed {} failed_frac {:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for p in &self.problems {
            eprintln!("CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Deploys, builds the topology and the epoch-0 service, and binds the
/// server: the work `setup_s` times, inside one `setup` span.
fn set_up(
    trace: &mut Trace,
    inputs: &Inputs,
    threads: usize,
) -> std::io::Result<(ServerHandle, f64)> {
    let cfg = inputs.cfg;
    let root = trace.open("setup", None);
    let positions = trace.time("deploy.uniform", Some(root), cfg.node_count as u64, || {
        cfg.deploy_uniform(DEPLOYMENT_SEED)
    });
    let net = trace.time("net.build", Some(root), 1, || {
        Network::from_positions(positions, cfg.radius, cfg.area)
    });
    let service = trace.time("service.new", Some(root), 1, || {
        Arc::new(RoutingService::new(net.clone()))
    });
    let handle = trace.time("server.bind", Some(root), 1, || {
        serve_with(service, net, ServeConfig::ephemeral(threads))
    })?;
    trace.close(root, 1);
    Ok((handle, trace.spans()[root].dur_ns() as f64 / 1e9))
}

/// The positions `server` serves now.
fn served(server: &ServerHandle) -> Vec<Point> {
    server.service().snapshot().value.network().positions_vec()
}

/// The in-process answers to each client's pool on the server's
/// snapshot, which each of its replies must reproduce. Every server of
/// a run serves the same deployment at epoch 0, so one set of answers
/// holds for all of them.
fn expect_answers(server: &ServerHandle, inputs: &Inputs) -> [Vec<Expected>; 2] {
    let mut session = server.service().session();
    inputs.pools.each_ref().map(|pool| {
        pool.iter()
            .map(|&(s, d)| {
                let a = session.route_with(ServiceScheme::Slgf2, NodeId(s), NodeId(d));
                Expected::from(&a)
            })
            .collect()
    })
}

/// Adds `clients`' counts and problems to the report and checks them
/// against the server's `STATS`: the same counts, and no reply beyond
/// the final epoch. Returns the `STATS` reply.
fn check_server(
    report: &mut Report,
    server: &ServerHandle,
    clients: &mut [Client<'_>; 2],
) -> Result<StatsReply, String> {
    let mut tally = Tally::default();
    for c in clients.iter() {
        tally += c.tally;
        report.attempted += c.attempted;
        report.failed += c.failed;
        report.problems.extend(c.first_problem.clone());
        if c.mismatches > 1 {
            report
                .problems
                .push(format!("{} more replies failed a check", c.mismatches - 1));
        }
    }
    let stats = clients[0]
        .conn()
        .stats()
        .map_err(|e| format!("STATS from {}: {e}", server.addr()))?;
    report.check(stats_match(&stats.stats, &tally));
    let max_seen = clients.iter().map(Client::max_epoch).max().unwrap_or(0);
    report.check(epoch_within(max_seen, stats.epoch));
    Ok(stats)
}

/// Runs one measurement window on both clients at once.
fn window(
    clients: &mut [Client<'_>; 2],
    seconds: f64,
    trace_origin: Option<Instant>,
) -> [WindowOut; 2] {
    let barrier = Barrier::new(2);
    let [first, second] = clients;
    std::thread::scope(|scope| {
        let other = scope.spawn(|| first.window(seconds, trace_origin, &barrier));
        let out = second.window(seconds, trace_origin, &barrier);
        let first_out = other
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        [first_out, out]
    })
}

/// The query figures of one segment, both clients pooled.
struct Segment {
    qps: f64,
    p50_us: Option<f64>,
    p90_us: Option<f64>,
    p99_us: Option<f64>,
    samples: usize,
    queries: u64,
    delivered: u64,
    delivered_hops: u64,
}

impl Segment {
    /// Pools the round trips the clients kept from their last window
    /// into `scratch` and takes the segment's figures.
    fn of(clients: &[Client<'_>; 2], outs: &[WindowOut; 2], scratch: &mut Vec<f64>) -> Segment {
        scratch.clear();
        for c in clients {
            scratch.extend(c.rtt_ns().iter().map(|&ns| ns as f64 / 1e3));
        }
        let sum = |f: fn(&WindowOut) -> u64| outs.iter().map(f).sum::<u64>();
        Segment {
            qps: outs
                .iter()
                .map(|o| o.queries as f64 / o.elapsed.as_secs_f64().max(1e-9))
                .sum(),
            p50_us: quantile(scratch, 0.50),
            p90_us: quantile(scratch, 0.90),
            p99_us: quantile(scratch, 0.99),
            samples: scratch.len(),
            queries: sum(|o| o.queries),
            delivered: sum(|o| o.delivered),
            delivered_hops: sum(|o| o.delivered_hops),
        }
    }
}

/// Query figures of some segments: rates and percentiles are the
/// median over segments, so a spell of load from elsewhere on a shared
/// machine moves them less than it would a whole-run figure.
struct QueryFigures {
    qps: Option<f64>,
    p50_us: Option<f64>,
    p90_us: Option<f64>,
    p99_us: Option<f64>,
    segments: usize,
    samples: usize,
    queries: u64,
    delivered: u64,
    delivered_hops: u64,
}

fn query_figures<'a>(segments: impl Iterator<Item = &'a Segment> + Clone) -> QueryFigures {
    let mut qps: Vec<f64> = segments.clone().map(|s| s.qps).collect();
    let mut p50: Vec<f64> = segments.clone().filter_map(|s| s.p50_us).collect();
    let mut p90: Vec<f64> = segments.clone().filter_map(|s| s.p90_us).collect();
    let mut p99: Vec<f64> = segments.clone().filter_map(|s| s.p99_us).collect();
    QueryFigures {
        qps: median(&mut qps),
        p50_us: median(&mut p50),
        p90_us: median(&mut p90),
        p99_us: median(&mut p99),
        segments: qps.len(),
        samples: segments.clone().map(|s| s.samples).sum(),
        queries: segments.clone().map(|s| s.queries).sum(),
        delivered: segments.clone().map(|s| s.delivered).sum(),
        delivered_hops: segments.map(|s| s.delivered_hops).sum(),
    }
}

/// The `MOVE` figures of the idle-server probe.
struct MoveFigures {
    ack_p50: Option<f64>,
    ack_p90: Option<f64>,
    visible_p50: Option<f64>,
    count: usize,
}

impl MoveFigures {
    fn of(moves: &[MoveRecord]) -> MoveFigures {
        let since_due = |t: Instant, due: Instant| ms((t - due).as_nanos() as f64);
        let mut ack: Vec<f64> = moves.iter().map(|m| since_due(m.ack, m.due)).collect();
        let mut vis: Vec<f64> = moves.iter().map(|m| since_due(m.visible, m.due)).collect();
        MoveFigures {
            ack_p50: quantile(&mut ack, 0.5),
            ack_p90: quantile(&mut ack, 0.9),
            visible_p50: median(&mut vis),
            count: moves.len(),
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let mut report = Report::default();
    let workload = args.workload;
    let (inputs, _) = Inputs::generate(workload, args.seed, NODES);
    let threads = sp_sync::configured_threads_for("SP_SERVE_THREADS");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rss_before_setup = procfs::peak_rss_mb();

    // The MOVE probe's server is set up first and stays up for the
    // whole run; every measured segment sets up a server of its own.
    let mut setup_s = Vec::new();
    let (probe_server, secs) =
        set_up(&mut trace, &inputs, threads).map_err(|e| format!("server set-up: {e}"))?;
    setup_s.push(secs);
    let connect = |server: &ServerHandle, i: usize| {
        Client::connect(server.addr(), &inputs.pools[i]).map_err(|e| format!("client connect: {e}"))
    };
    let mut probers = [connect(&probe_server, 0)?, connect(&probe_server, 1)?];
    let expected = expect_answers(&probe_server, &inputs);
    let mut gen = MoveGen::new(args.seed, &inputs.positions, inputs.cfg.area);
    let mut speed = Speed::new(&inputs.positions, inputs.cfg.radius);

    // The measured time runs as short segments. Each sets up a fresh
    // server, connects fresh clients to it, warms them up, measures,
    // checks the server and shuts it down, so a run samples many
    // placements of client and worker threads on the CPUs instead of
    // one. After each segment the speed references are timed (see
    // calib.rs), then a burst of the MOVE probe runs on the probe
    // server, while no measured server is up: measured servers
    // are never written to, and the probe samples the whole run rather
    // than one spell of it. The traced run alternates untraced and
    // traced segments, so that a slow spell of a shared machine falls
    // on both sides of the overhead comparison.
    let segments =
        ((args.seconds / SEGMENT_SECONDS).round() as usize).max(1 + usize::from(args.trace));
    let seconds = args.seconds / segments as f64;
    let burst = PROBE_MOVES.div_ceil(segments);
    let cpu0 = procfs::cpu_seconds();
    let wall0 = Instant::now();
    let mut figures: Vec<Segment> = Vec::with_capacity(segments);
    let mut traces: Vec<Trace> = Vec::new();
    let mut pooled: Vec<f64> = Vec::new();
    let mut moves: Vec<MoveRecord> = Vec::with_capacity(burst * segments);
    let mut protocol_errors = 0;
    for i in 0..segments {
        let (server, secs) =
            set_up(&mut trace, &inputs, threads).map_err(|e| format!("server set-up: {e}"))?;
        setup_s.push(secs);
        let mut clients = [connect(&server, 0)?, connect(&server, 1)?];
        for (c, e) in clients.iter_mut().zip(&expected) {
            c.expected = Some(e);
        }
        {
            let [first, second] = &mut clients;
            std::thread::scope(|scope| {
                scope.spawn(|| first.warm(WARMUP_SECONDS));
                second.warm(WARMUP_SECONDS);
            });
        }
        clients[0].tamper_next = args.tamper && i == 0;
        let traced = (args.trace && i % 2 == 1).then_some(origin);
        let outs = window(&mut clients, seconds, traced);
        figures.push(Segment::of(&clients, &outs, &mut pooled));
        traces.extend(outs.into_iter().filter_map(|o| o.trace));
        // The server's own checks: STATS against its clients' tally,
        // the epoch bound, and the deployment still served.
        let stats = check_server(&mut report, &server, &mut clients)?;
        protocol_errors += stats.stats.protocol_errors;
        report.check(positions_match(&served(&server), &inputs.positions));
        drop(clients);
        server.shutdown();
        server.join();
        speed
            .sample()
            .map_err(|e| format!("speed reference: {e}"))?;
        let [writer, reader] = &mut probers;
        moves.extend(probe_moves(writer, reader, &mut gen, burst));
    }
    if gen.at_home() {
        // End with movers away, so that the position check below tells
        // a served MOVE from an ignored one.
        let [writer, reader] = &mut probers;
        moves.extend(probe_moves(writer, reader, &mut gen, 1));
    }
    let cpu_util = procfs::cpu_seconds()
        .zip(cpu0)
        .map(|(c1, c0)| (c1 - c0) / (wall0.elapsed().as_secs_f64() * nproc as f64));

    // The probe server must serve the MOVE generator's mirror.
    check_server(&mut report, &probe_server, &mut probers)?;
    report.check(positions_match(&served(&probe_server), gen.mirror()));
    drop(probers);
    probe_server.shutdown();
    probe_server.join();

    if args.trace {
        let live = Live {
            segments: &figures,
            cpu_util,
            protocol_errors,
            speed: &speed,
        };
        layer_metrics(&mut report, &mut trace, args, &inputs, &live)?;
        for t in traces {
            trace.absorb(t, None);
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}.jsonl", workload.name()));
        trace
            .write_jsonl(&path, SPAN_WRITE_CAP)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        return Ok(report);
    }

    // The timings are put on the references' scales by the run's speed
    // factors (see calib.rs): set-up and MOVE timings by the graph
    // factor, query timings by the wire factor. The notes give them as
    // measured.
    eprintln!("{}", speed.describe());
    let (graph, wire) = (speed.graph_factor(), speed.wire_factor());
    let scale = |raw: Option<f64>, factor: Option<f64>| raw.zip(factor).map(|(t, f)| t * f);
    let rate = |raw: Option<f64>, factor: Option<f64>| raw.zip(factor).map(|(r, f)| r / f);
    let was =
        |raw: Option<f64>, unit: &str| format!("{:.2} {unit} as measured", raw.unwrap_or(f64::NAN));
    let q = query_figures(figures.iter());
    let n = format!("median of {} segments, n={}", q.segments, q.samples);
    let setup = median(&mut setup_s);
    report.add(
        "setup_s",
        scale(setup, graph),
        "s",
        format!(
            "median of {} set-ups; {:.4} s as measured",
            setup_s.len(),
            setup.unwrap_or(f64::NAN)
        ),
    );
    report.add(
        "query_qps",
        rate(q.qps, wire),
        "1/s",
        format!("{n}; {}", was(q.qps, "1/s")),
    );
    report.add(
        "query_p50_us",
        scale(q.p50_us, wire),
        "us",
        format!("{n}; {}", was(q.p50_us, "us")),
    );
    report.add(
        "query_p90_us",
        scale(q.p90_us, wire),
        "us",
        format!("{n}; {}, p99 {}", was(q.p90_us, "us"), was(q.p99_us, "us")),
    );
    report.add(
        "delivery_ratio",
        Some(q.delivered as f64 / q.queries.max(1) as f64),
        "ratio",
        format!("{} of {}", q.delivered, q.queries),
    );
    report.add(
        "mean_hops",
        Some(q.delivered_hops as f64 / q.delivered.max(1) as f64),
        "hops",
        "over delivered queries".into(),
    );
    let m = MoveFigures::of(&moves);
    let note = format!("n={}, idle-server probe", m.count);
    report.add(
        "move_ack_p50_ms",
        scale(m.ack_p50, graph),
        "ms",
        format!(
            "{note}; {}, p90 {}",
            was(m.ack_p50, "ms"),
            was(m.ack_p90, "ms")
        ),
    );
    report.add(
        "move_visible_p50_ms",
        scale(m.visible_p50, graph),
        "ms",
        format!("{note}; {}", was(m.visible_p50, "ms")),
    );
    report.add(
        "peak_rss_mb",
        procfs::peak_rss_mb(),
        "MB",
        format!(
            "VmHWM; {:.1} MB before set-up",
            rss_before_setup.unwrap_or(f64::NAN)
        ),
    );
    Ok(report)
}

/// What the live traffic of a traced run left for the layer metrics.
struct Live<'a> {
    segments: &'a [Segment],
    cpu_util: Option<f64>,
    protocol_errors: u64,
    speed: &'a Speed,
}

/// The traced run's per-layer metrics: the in-process replays, the
/// round-trip and publish decompositions, and the tracing overhead.
fn layer_metrics(
    report: &mut Report,
    trace: &mut Trace,
    args: &Args,
    inputs: &Inputs,
    live: &Live<'_>,
) -> Result<(), String> {
    let cfg = inputs.cfg;
    let plain = query_figures(live.segments.iter().step_by(2));
    let traced = query_figures(live.segments.iter().skip(1).step_by(2));

    let root = trace.open("replay", None);
    let pairs: Vec<(u32, u32)> = inputs.pools.concat();
    let service = RoutingService::new(Network::from_positions(
        inputs.positions.clone(),
        cfg.radius,
        cfg.area,
    ));
    let route = layers::replay_routes(trace, Some(root), &service, &pairs);
    drop(service);
    let codec = layers::replay_codec(trace, Some(root), &pairs, &route.answers);
    layers::loopback_pingpong(
        trace,
        Some(root),
        codec.request_bytes.round() as usize,
        codec.reply_bytes.round() as usize,
        LOOPBACK_EXCHANGES,
    )
    .map_err(|e| format!("loopback ping-pong: {e}"))?;
    let publish = layers::replay_publish(
        trace,
        Some(root),
        &cfg,
        &inputs.positions,
        args.seed,
        PUBLISH_BATCHES,
    );
    trace.close(root, pairs.len() as u64);
    let publish = match publish {
        Ok(p) => p,
        Err(what) => {
            report.problems.push(what);
            return Ok(());
        }
    };

    let med = |trace: &Trace, name: &str| median(&mut trace.durations_ns(name));
    let n_batches = format!("median of {} batches", publish.whole_ns.len());
    report.add(
        "net.build_ms",
        med(trace, "net.build").map(ms),
        "ms",
        format!(
            "median of {} set-ups",
            trace.durations_ns("net.build").len()
        ),
    );
    report.add(
        "net.next_snapshot_ms",
        med(trace, "net.next_snapshot").map(ms),
        "ms",
        n_batches.clone(),
    );
    report.add(
        "labeling.label_ms",
        med(trace, "labeling.label").map(ms),
        "ms",
        n_batches.clone(),
    );
    report.add(
        "shape.build_ms",
        med(trace, "shape.build").map(ms),
        "ms",
        n_batches.clone(),
    );
    report.add(
        "epoch.publish_us",
        med(trace, "epoch.publish").map(|ns| ns / 1e3),
        "us",
        n_batches.clone(),
    );
    report.add(
        "service.apply_moves_ms",
        med(trace, "service.apply_moves").map(ms),
        "ms",
        n_batches,
    );
    let staged_ms = ms(publish.staged_ns.iter().sum::<u64>() as f64);
    let whole_ms = ms(publish.whole_ns.iter().sum::<u64>() as f64);
    let gap = publish.sum_gap();
    if let Some(g) = gap.filter(|g| g.abs() > PUBLISH_SUM_TOLERANCE) {
        report.problems.push(format!(
            "publish stages sum to {:+.1}% off the whole publish (allowed {:.0}%)",
            g * 100.0,
            PUBLISH_SUM_TOLERANCE * 100.0
        ));
    }
    let nq = pairs.len() as f64;

    let mut route_ns = trace.durations_ns("route.query");
    let route_total = route_ns.iter().sum::<f64>();
    let route_p50 = quantile(&mut route_ns, 0.5).map(|ns| ns / 1e3);
    let n_route = format!("n={}", route_ns.len());
    report.add("route.query_us_p50", route_p50, "us", n_route.clone());
    report.add(
        "route.query_us_p99",
        quantile(&mut route_ns, 0.99).map(|ns| ns / 1e3),
        "us",
        n_route,
    );
    let hops = route.hops.max(1) as f64;
    report.add(
        "route.ns_per_hop",
        Some(route_total / hops),
        "ns",
        format!("{} hops", route.hops),
    );
    report.add(
        "route.neighbors_per_hop",
        Some(route.neighbors as f64 / hops),
        "count",
        String::new(),
    );
    report.add(
        "route.ns_per_neighbor",
        Some(route_total / route.neighbors.max(1) as f64),
        "ns",
        format!("{} neighbours scanned", route.neighbors),
    );
    report.add(
        "route.perimeter_per_query",
        Some(route.perimeter as f64 / nq),
        "count",
        String::new(),
    );
    report.add(
        "route.backup_per_query",
        Some(route.backup as f64 / nq),
        "count",
        String::new(),
    );

    report.add(
        "wire.decode_request_ns",
        Some(codec.decode_request_ns),
        "ns",
        "server side".into(),
    );
    report.add(
        "wire.encode_reply_ns",
        Some(codec.encode_reply_ns),
        "ns",
        "server side".into(),
    );
    report.add(
        "wire.client_codec_ns",
        Some(codec.client_codec_ns),
        "ns",
        "encode_query + decode_response".into(),
    );
    report.add(
        "wire.request_bytes",
        Some(codec.request_bytes),
        "bytes",
        "frame header included".into(),
    );
    report.add(
        "wire.reply_bytes",
        Some(codec.reply_bytes),
        "bytes",
        "frame header included".into(),
    );
    report.add(
        "wire.protocol_errors",
        Some(live.protocol_errors as f64),
        "count",
        "from STATS".into(),
    );

    let mut rtt = trace.durations_ns("loopback.rtt");
    let loopback_us = median(&mut rtt).map(|ns| ns / 1e3);
    report.add(
        "loopback.rtt_us_p50",
        loopback_us,
        "us",
        format!("n={}", rtt.len()),
    );
    let codec_us = (codec.decode_request_ns + codec.encode_reply_ns + codec.client_codec_ns) / 1e3;
    let parts = plain.p50_us.zip(loopback_us).zip(route_p50);
    let self_us = parts.map(|((q, l), r)| q - l - codec_us - r);
    report.add(
        "server.self_us_p50",
        self_us,
        "us",
        "query p50 - loopback - codec - route".into(),
    );
    report.add(
        "proc.cpu_util",
        live.cpu_util,
        "ratio",
        format!(
            "CPU s / (wall s x {} CPUs)",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
    );
    report.add(
        "harness.graph_ref_us",
        live.speed.graph_ns().map(|ns| ns / 1e3),
        "us",
        "median graph reference search, the graph speed factor's base".into(),
    );
    report.add(
        "harness.wire_ref_us",
        live.speed.wire_ns().map(|ns| ns / 1e3),
        "us",
        "median loopback reference round trip, the wire speed factor's base".into(),
    );
    report.add(
        "trace.span_ns",
        Some(span_cost_ns()),
        "ns",
        "recording one span, what tracing adds per query".into(),
    );
    let overhead = plain
        .p50_us
        .zip(traced.p50_us)
        .map(|(p, t)| (t - p) / p * 100.0);
    report.add(
        "trace.overhead_pct",
        overhead,
        "%",
        format!(
            "traced p50 {:.2} us vs untraced {:.2} us, alternating segments",
            traced.p50_us.unwrap_or(f64::NAN),
            plain.p50_us.unwrap_or(f64::NAN)
        ),
    );

    if let (Some(((q, l), r)), Some(s)) = (parts, self_us) {
        eprintln!(
            "round trip p50 {q:.2} us (median of {} untraced segments, n={}):",
            plain.segments, plain.samples
        );
        for (part, us) in [
            ("loopback", l),
            ("codec", codec_us),
            ("route", r),
            ("server self", s),
        ] {
            eprintln!("  {part:<12} {us:>9.2} us {:>6.1}%", us / q * 100.0);
        }
    }
    eprintln!(
        "publish over {} batches: next_snapshot + label + shape + publish = {staged_ms:.2} ms, \
         apply_moves = {whole_ms:.2} ms; per-batch median gap {:+.1}%",
        publish.whole_ns.len(),
        gap.unwrap_or(f64::NAN) * 100.0
    );
    Ok(())
}

/// What recording one span costs, in ns: the only work a traced query
/// adds, since every query is timed either way.
fn span_cost_ns() -> f64 {
    const SPANS: usize = 200_000;
    let origin = Instant::now();
    let mut log = Trace::with_capacity(origin, SPANS);
    let start = Instant::now();
    for _ in 0..SPANS {
        log.record("client.query", None, origin, start, 1);
    }
    let ns = start.elapsed().as_nanos() as f64 / SPANS as f64;
    std::hint::black_box(log.spans().len());
    ns
}
