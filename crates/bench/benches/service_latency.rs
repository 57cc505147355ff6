//! Serving latency: `RoutingService` query sessions under live
//! topology churn at n = 10⁴ (paper density).
//!
//! The other benches time closed batches over a frozen topology. This
//! one measures the **serving shape**: worker threads each hold a
//! `ServiceSession` and answer a sustained query stream while a
//! background churner keeps publishing new epochs (deterministic
//! jitter moves through `RoutingService::apply_moves` — clone-repair
//! the topology off to the side, relabel, one `Arc` swap). Two rows:
//!
//! * `service_steady` — no churn: the epoch check is always a hit, so
//!   this is the floor the epoch machinery must not lift;
//! * `service_churn` — the churner publishes continuously; sessions
//!   keep re-pinning and every answer is checked against the service
//!   invariant `answer.epoch <= service.epoch()`;
//! * `serve_steady` / `serve_churn` — the same mixes through the
//!   `sp-serve` wire path: an in-process loopback-TCP server over the
//!   same service, clients speaking framed `QUERY` (and the churner
//!   framed `MOVE`), so these rows price the full
//!   decode → route → encode hop and gate the wire-path p50/p95/p99
//!   next to the in-process floor.
//!
//! Each row records sustained queries/sec plus per-query p50/p95/p99
//! (`sp_bench::LatencyStats`, aggregated over every query of every
//! run) and the per-run wall median. The committed copy is the CI
//! `bench-gate` baseline (BENCH_service.json); the percentile keys are
//! gated with the tighter `--latency-slack` floor.
//!
//! Knobs: `SP_SERVICE_THREADS` pins the worker count,
//! `SP_SERVICE_CHURN` the movers per publish.
//!
//! Run with: `cargo bench -p sp-bench --bench service_latency`

use criterion::{criterion_group, criterion_main, Criterion};
use sp_bench::{LatencyStats, SampleStats};
use sp_core::{RoutingService, ServiceScheme};
use sp_geom::Point;
use sp_net::{deploy::DeploymentConfig, Network, NodeId};
use sp_serve::{serve_with, ServeClient, ServeConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 10_000;
const QUERIES: usize = 8_192;
const RUNS: usize = 3;
/// Pause between epoch publishes, bounding the churn rate so the
/// (single-threaded) relabel step cannot monopolize small hosts.
const CHURN_PAUSE: Duration = Duration::from_millis(2);

/// Movers per background publish: `SP_SERVICE_CHURN`, default 100.
fn churn_movers() -> usize {
    sp_sync::env_var("SP_SERVICE_CHURN")
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(100)
}

/// Deterministic query mix over the largest component: alternating
/// local telemetry (2–4 radio ranges) and crossfield pairs, the same
/// regimes the throughput bench times.
fn query_mix(net: &Network) -> Vec<(NodeId, NodeId)> {
    let comp = net.largest_component();
    let mut queries = Vec::with_capacity(QUERIES);
    let mut k = 0usize;
    while queries.len() < QUERIES && k < 64 * QUERIES {
        let s = comp[(k * 7919) % comp.len()];
        k += 1;
        if queries.len() % 2 == 0 {
            let ps = net.position(s);
            if let Some(d) = comp.iter().skip(k % 37).step_by(97).copied().find(|&v| {
                let dist = net.position(v).distance(ps);
                v != s && dist > 25.0 && dist < 80.0
            }) {
                queries.push((s, d));
            }
        } else {
            let d = comp[(k * 104_729 + 13) % comp.len()];
            if d != s {
                queries.push((s, d));
            }
        }
    }
    assert!(queries.len() >= QUERIES / 2, "too few queries built");
    queries
}

/// The churner's next deterministic jitter batch: `movers` nodes in
/// round-robin order, each nudged ~1 m (direction flips with the round
/// parity so the field never drifts), clamped to the area.
fn churn_batch(net: &Network, round: u64, movers: usize) -> Vec<(NodeId, Point)> {
    let n = net.len();
    let hi = net.area().max();
    let delta = if round.is_multiple_of(2) { 1.0 } else { -1.0 };
    (0..movers)
        .map(|j| {
            let u = NodeId::new((round as usize * movers + j) % n);
            let p = net.position(u);
            let q = Point::new(
                (p.x + delta).clamp(0.0, hi.x),
                (p.y + delta * 0.5).clamp(0.0, hi.y),
            );
            (u, q)
        })
        .collect()
}

/// One measured run's outcome.
struct RunMeasure {
    /// Per-query serving latencies, all workers pooled.
    latencies: Vec<f64>,
    /// Wall seconds from first query to last worker done (churner
    /// excluded — it is stopped after the workers finish).
    wall: f64,
    served: usize,
    delivered: usize,
    /// Epochs the churner published while the workers were serving.
    epochs: u64,
}

/// Serves the query mix once: `workers` session threads, plus a
/// background churner when `movers` is set. Every answer is asserted
/// against the service epoch invariant.
fn measured_run(
    service: &RoutingService,
    queries: &[(NodeId, NodeId)],
    workers: usize,
    movers: Option<usize>,
) -> RunMeasure {
    let stop = AtomicBool::new(false);
    let epoch_before = service.epoch();
    let mut pooled: Vec<(Vec<f64>, usize)> = Vec::with_capacity(workers);
    let mut wall = 0.0f64;
    std::thread::scope(|s| {
        let churner = movers.map(|m| {
            let stop = &stop;
            s.spawn(move || {
                let mut round = service.epoch();
                while !stop.load(Ordering::Relaxed) {
                    let moves = churn_batch(service.snapshot().value.network(), round, m);
                    service.apply_moves(&moves);
                    round += 1;
                    std::thread::sleep(CHURN_PAUSE);
                }
            })
        });
        let start = Instant::now();
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut session = service.session();
                    let mut lats = Vec::with_capacity(queries.len() / workers + 1);
                    let mut delivered = 0usize;
                    for &(src, dst) in queries.iter().skip(w).step_by(workers) {
                        let t = Instant::now();
                        let a = session.route_with(ServiceScheme::Slgf2, src, dst);
                        lats.push(t.elapsed().as_secs_f64());
                        assert!(
                            a.epoch <= service.epoch(),
                            "answer epoch {} ran ahead of the service",
                            a.epoch
                        );
                        delivered += usize::from(a.delivered());
                    }
                    (lats, delivered)
                })
            })
            .collect();
        for h in handles {
            pooled.push(h.join().expect("worker panicked"));
        }
        wall = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        if let Some(c) = churner {
            c.join().expect("churner panicked");
        }
    });
    let mut latencies = Vec::with_capacity(queries.len());
    let mut delivered = 0usize;
    for (lats, d) in pooled {
        latencies.extend(lats);
        delivered += d;
    }
    RunMeasure {
        served: latencies.len(),
        latencies,
        wall,
        delivered,
        epochs: service.epoch() - epoch_before,
    }
}

/// Serves the query mix once over **loopback TCP**: `clients` wire
/// clients against an already-running `sp-serve` server over the same
/// service, plus a background churner publishing through framed `MOVE`
/// batches when `movers` is set. Every reply is asserted against the
/// same epoch invariant the in-process rows check.
fn served_run(
    service: &RoutingService,
    addr: SocketAddr,
    queries: &[(NodeId, NodeId)],
    clients: usize,
    movers: Option<usize>,
) -> RunMeasure {
    let stop = AtomicBool::new(false);
    let epoch_before = service.epoch();
    let mut pooled: Vec<(Vec<f64>, usize)> = Vec::with_capacity(clients);
    let mut wall = 0.0f64;
    std::thread::scope(|s| {
        let churner = movers.map(|m| {
            let stop = &stop;
            s.spawn(move || {
                let mut mover = ServeClient::connect(addr).expect("churner connect");
                let mut round = service.epoch();
                let mut batch: Vec<(u32, f64, f64)> = Vec::with_capacity(m);
                while !stop.load(Ordering::Relaxed) {
                    batch.clear();
                    batch.extend(
                        churn_batch(service.snapshot().value.network(), round, m)
                            .into_iter()
                            .map(|(u, p)| (u.index() as u32, p.x, p.y)),
                    );
                    mover.move_batch(&batch).expect("wire MOVE");
                    round += 1;
                    std::thread::sleep(CHURN_PAUSE);
                }
            })
        });
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|w| {
                s.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("client connect");
                    let mut lats = Vec::with_capacity(queries.len() / clients + 1);
                    let mut delivered = 0usize;
                    for &(src, dst) in queries.iter().skip(w).step_by(clients) {
                        let t = Instant::now();
                        let reply = client
                            .query(
                                src.index() as u32,
                                dst.index() as u32,
                                ServiceScheme::Slgf2,
                                false,
                            )
                            .expect("wire QUERY");
                        lats.push(t.elapsed().as_secs_f64());
                        assert!(
                            reply.epoch <= service.epoch(),
                            "reply epoch {} ran ahead of the service",
                            reply.epoch
                        );
                        delivered += usize::from(reply.delivered());
                    }
                    (lats, delivered)
                })
            })
            .collect();
        for h in handles {
            pooled.push(h.join().expect("wire client panicked"));
        }
        wall = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        if let Some(c) = churner {
            c.join().expect("wire churner panicked");
        }
    });
    let mut latencies = Vec::with_capacity(queries.len());
    let mut delivered = 0usize;
    for (lats, d) in pooled {
        latencies.extend(lats);
        delivered += d;
    }
    RunMeasure {
        served: latencies.len(),
        latencies,
        wall,
        delivered,
        epochs: service.epoch() - epoch_before,
    }
}

/// Runs one in-process row's configuration `RUNS` times and renders
/// its JSON row.
fn service_row(
    case: &str,
    service: &RoutingService,
    queries: &[(NodeId, NodeId)],
    workers: usize,
    movers: Option<usize>,
) -> String {
    let runs: Vec<RunMeasure> = (0..RUNS)
        .map(|_| measured_run(service, queries, workers, movers))
        .collect();
    render_row(case, &runs, workers, movers)
}

/// Runs one wire-path row's configuration `RUNS` times and renders its
/// JSON row with the same key shape (so the bench gate applies the
/// same qps + latency-slack treatment).
fn serve_row(
    case: &str,
    service: &RoutingService,
    addr: SocketAddr,
    queries: &[(NodeId, NodeId)],
    clients: usize,
    movers: Option<usize>,
) -> String {
    let runs: Vec<RunMeasure> = (0..RUNS)
        .map(|_| served_run(service, addr, queries, clients, movers))
        .collect();
    render_row(case, &runs, clients, movers)
}

/// Renders a row's pooled runs into its JSON object and progress line.
fn render_row(case: &str, runs: &[RunMeasure], workers: usize, movers: Option<usize>) -> String {
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let wall = SampleStats::of(&walls);
    let all_lats: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let lat = LatencyStats::of(&all_lats);
    let served: usize = runs.iter().map(|r| r.served).sum();
    let delivered: usize = runs.iter().map(|r| r.delivered).sum();
    let epochs: u64 = runs.iter().map(|r| r.epochs).sum();
    let ratio = delivered as f64 / served.max(1) as f64;
    assert!(ratio > 0.95, "{case}: delivery collapsed to {ratio:.3}");
    if movers.is_some() {
        assert!(epochs > 0, "{case}: churner never published an epoch");
    }
    let qps = runs[0].served as f64 / wall.median.max(1e-12);
    eprintln!(
        "{case:15} x{workers} workers: {qps:.0} q/s | p50 {:.1} µs | p95 {:.1} µs | p99 {:.1} µs | {} epochs | delivery {ratio:.3}",
        lat.p50 * 1e6,
        lat.p95 * 1e6,
        lat.p99 * 1e6,
        epochs,
    );
    format!(
        "    {{\"case\": \"{case}\", \"scheme\": \"SLGF2\", \"nodes\": {NODES}, \"queries\": {}, \"threads\": {workers}, \"runs\": {RUNS}, \"movers\": {}, \"epochs_advanced\": {epochs}, \"queries_per_sec\": {qps:.0}, \"delivery_ratio\": {ratio:.4}, {}, {}}}",
        runs[0].served,
        movers.unwrap_or(0),
        wall.json_fields("run"),
        lat.json_fields("query"),
    )
}

fn service_benches(c: &mut Criterion) {
    let cfg = DeploymentConfig::paper_density(NODES);
    let net = Network::from_positions(cfg.deploy_uniform(42), cfg.radius, cfg.area);
    let queries = query_mix(&net);
    let service = Arc::new(RoutingService::new(net.clone()));
    let workers = service.threads();
    let movers = churn_movers();

    // The wire rows hit the same service through a loopback sp-serve
    // front end with a matching worker-pool size.
    let server = serve_with(
        Arc::clone(&service),
        net.clone(),
        ServeConfig::ephemeral(workers),
    )
    .expect("bind loopback server");
    let addr = server.addr();

    let rows = [
        service_row("service_steady", &service, &queries, workers, None),
        service_row("service_churn", &service, &queries, workers, Some(movers)),
        serve_row("serve_steady", &service, addr, &queries, workers, None),
        serve_row(
            "serve_churn",
            &service,
            addr,
            &queries,
            workers,
            Some(movers),
        ),
    ];
    server.shutdown();
    server.join();

    let json = format!(
        "{{\n  \"benchmark\": \"service_latency\",\n  \"unit\": \"seconds (median over samples; percentiles over all queries)\",\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(out, &json).expect("write BENCH_service.json");
    eprintln!("wrote {out}");

    let mut group = c.benchmark_group("service_latency");
    group.sample_size(10);
    group.bench_function("steady_batch", |b| {
        b.iter(|| service.run_batch(&queries).answers.len())
    });
    group.finish();
}

criterion_group!(benches, service_benches);
criterion_main!(benches);
