//! The mobility re-snapshot hot path (ROADMAP "parallel + incremental
//! SpatialIndex"): incremental topology repair versus a full rebuild
//! when a small fraction of nodes moves, row-sharded parallel bulk
//! adjacency versus the serial scan at 10⁵ nodes, and the Definition-1
//! relabeling (`SafetyMap::label`, hull pinning included) every
//! published epoch pays, at 10⁴ and 10⁵ nodes.
//!
//! Deployments keep the paper's density (radius 20 m, ~500 nodes per
//! 200 m × 200 m) while the area grows with `n`. The measured
//! repeat-sample statistics (samples / median / stddev) land in
//! `BENCH_mobility.json` at the workspace root; the committed copy is
//! the CI `bench-gate` baseline. The incremental case is timed as an
//! apply-moves round trip (forward + inverse, halved), which is exactly
//! the steady-state cost `RandomWaypoint::snapshot_incremental` pays
//! per tick without the benchmark paying a network clone per sample.
//!
//! Run with: `cargo bench -p sp-bench --bench mobility_snapshot`
//! (`SP_NET_THREADS` pins the parallel case's thread count.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sp_bench::{sample_stats, SampleStats};
use sp_core::SafetyMap;
use sp_geom::Point;
use sp_net::{DeploymentConfig, Network, NodeId, SpatialIndex};
use std::time::Instant;

/// Node count for the incremental-vs-rebuild comparison.
const SNAPSHOT_N: usize = 10_000;
/// Fraction of nodes moving per tick (the acceptance scenario: 1%).
const MOVER_FRACTION: f64 = 0.01;
/// Node count for the serial-vs-parallel adjacency comparison.
const ADJACENCY_N: usize = 100_000;
/// Node counts of the relabeling rows, with their timed run counts.
const LABEL_SIZES: [(usize, usize); 2] = [(10_000, 15), (100_000, 7)];

/// The paper's density at scale `n` (area grows with the node count).
fn deployment(n: usize) -> DeploymentConfig {
    DeploymentConfig::paper_density(n)
}

/// Every `1/MOVER_FRACTION`-th node displaced by one radio radius —
/// far enough that most movers change grid cells and rewire edges.
fn mover_batch(cfg: &DeploymentConfig, positions: &[Point]) -> Vec<(NodeId, Point)> {
    let stride = (1.0 / MOVER_FRACTION) as usize;
    positions
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, p)| {
            let x = (p.x + cfg.radius).min(cfg.area.max().x);
            let y = (p.y + 0.5 * cfg.radius).min(cfg.area.max().y);
            (NodeId::new(i), Point::new(x, y))
        })
        .collect()
}

fn snapshot_benches(c: &mut Criterion, rows: &mut Vec<String>) {
    let cfg = deployment(SNAPSHOT_N);
    let positions = cfg.deploy_uniform(13);
    let moves = mover_batch(&cfg, &positions);
    let movers = moves.len();
    let inverse: Vec<(NodeId, Point)> = moves
        .iter()
        .map(|&(id, _)| (id, positions[id.index()]))
        .collect();

    // Correctness gate before timing anything: the round trip must
    // reproduce the rebuilt topology exactly, both after the forward
    // and after the inverse batch.
    let mut net = Network::from_positions(positions.clone(), cfg.radius, cfg.area);
    let same_topology = |a: &Network, b: &Network, leg: &str| {
        for u in a.node_ids() {
            assert_eq!(a.neighbors(u), b.neighbors(u), "{leg} diverged at {u}");
        }
    };
    net.apply_moves(&moves);
    let rebuilt = Network::from_positions(net.positions_vec(), cfg.radius, cfg.area);
    same_topology(&net, &rebuilt, "forward");
    net.apply_moves(&inverse);
    let back = Network::from_positions(positions.clone(), cfg.radius, cfg.area);
    same_topology(&net, &back, "inverse");

    let runs = 7;
    let full_s = sample_stats(runs, || {
        Network::from_positions(positions.clone(), cfg.radius, cfg.area)
    });
    // Steady-state incremental tick: forward batch + inverse batch,
    // halved, so every sample does identical work on one owned network.
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            net.apply_moves(&moves);
            net.apply_moves(&inverse);
            start.elapsed().as_secs_f64() / 2.0
        })
        .collect();
    let inc_s = SampleStats::of(&samples);
    let speedup = full_s.median / inc_s.median;
    eprintln!(
        "n={SNAPSHOT_N}, movers={movers}: full {:.3} ms | incremental {:.3} ms | {speedup:.1}x",
        full_s.median * 1e3,
        inc_s.median * 1e3
    );
    rows.push(format!(
        "    {{\"case\": \"snapshot_full_rebuild\", \"n\": {}, \"movers\": {}, {}}}",
        SNAPSHOT_N,
        movers,
        full_s.json_fields("time")
    ));
    rows.push(format!(
        "    {{\"case\": \"snapshot_incremental\", \"n\": {}, \"movers\": {}, {}, \"speedup_vs_full\": {:.2}}}",
        SNAPSHOT_N,
        movers,
        inc_s.json_fields("time"),
        speedup
    ));

    let mut group = c.benchmark_group("mobility_snapshot");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("full_rebuild", SNAPSHOT_N), |b| {
        b.iter(|| Network::from_positions(positions.clone(), cfg.radius, cfg.area));
    });
    group.bench_function(BenchmarkId::new("incremental", SNAPSHOT_N), |b| {
        b.iter(|| {
            net.apply_moves(&moves);
            net.apply_moves(&inverse);
        });
    });
    group.finish();
}

fn adjacency_benches(c: &mut Criterion, rows: &mut Vec<String>) {
    let cfg = deployment(ADJACENCY_N);
    let positions = cfg.deploy_uniform(17);
    let index = SpatialIndex::build(&positions, cfg.area, cfg.radius);
    let threads = SpatialIndex::auto_threads(ADJACENCY_N);

    // Sharding must not change the output at the benchmarked scale.
    assert_eq!(
        index.adjacency_within_threaded(cfg.radius, threads),
        index.adjacency_within(cfg.radius),
        "threaded adjacency diverged at n={ADJACENCY_N}"
    );

    let runs = 5;
    let serial_s = sample_stats(runs, || index.adjacency_within(cfg.radius));
    let parallel_s = sample_stats(runs, || {
        index.adjacency_within_threaded(cfg.radius, threads)
    });
    let speedup = serial_s.median / parallel_s.median;
    eprintln!(
        "n={ADJACENCY_N}: serial {:.1} ms | {threads}-thread {:.1} ms | {speedup:.1}x",
        serial_s.median * 1e3,
        parallel_s.median * 1e3
    );
    rows.push(format!(
        "    {{\"case\": \"adjacency_serial\", \"n\": {}, \"threads\": 1, {}}}",
        ADJACENCY_N,
        serial_s.json_fields("time")
    ));
    rows.push(format!(
        "    {{\"case\": \"adjacency_parallel\", \"n\": {}, \"threads\": {}, {}, \"speedup_vs_serial\": {:.2}}}",
        ADJACENCY_N,
        threads,
        parallel_s.json_fields("time"),
        speedup
    ));

    let mut group = c.benchmark_group("bulk_adjacency");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("serial", ADJACENCY_N), |b| {
        b.iter(|| index.adjacency_within(cfg.radius));
    });
    group.bench_function(BenchmarkId::new("threaded", ADJACENCY_N), |b| {
        b.iter(|| index.adjacency_within_threaded(cfg.radius, threads));
    });
    group.finish();
}

fn labeling_benches(c: &mut Criterion, rows: &mut Vec<String>) {
    let mut group = c.benchmark_group("labeling");
    group.sample_size(10);
    for (n, runs) in LABEL_SIZES {
        let cfg = deployment(n);
        let net = Network::from_positions(cfg.deploy_uniform(0), cfg.radius, cfg.area);
        let rounds = SafetyMap::label(&net).rounds();
        let label_s = sample_stats(runs, || SafetyMap::label(&net));
        eprintln!(
            "n={n}: label {:.2} ms ({rounds} rounds)",
            label_s.median * 1e3
        );
        rows.push(format!(
            "    {{\"case\": \"label\", \"n\": {n}, \"rounds\": {rounds}, {}}}",
            label_s.json_fields("time")
        ));
        group.bench_function(BenchmarkId::new("label", n), |b| {
            b.iter(|| SafetyMap::label(&net));
        });
    }
    group.finish();
}

fn mobility_benches(c: &mut Criterion) {
    let mut rows = Vec::new();
    snapshot_benches(c, &mut rows);
    adjacency_benches(c, &mut rows);
    labeling_benches(c, &mut rows);

    let json = format!(
        "{{\n  \"benchmark\": \"mobility_snapshot\",\n  \"unit\": \"seconds (median over samples)\",\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mobility.json");
    std::fs::write(out, &json).expect("write BENCH_mobility.json");
    eprintln!("wrote {out}");
}

criterion_group!(benches, mobility_benches);
criterion_main!(benches);
