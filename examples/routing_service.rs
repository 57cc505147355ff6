//! Routing as a service: a long-lived `RoutingService` answering a
//! sustained query stream while the topology churns underneath.
//!
//! Worker threads each hold a `ServiceSession` (pinned snapshot + one
//! reused route buffer) and drain a shared query list; a churner thread
//! keeps applying mobility batches, each publishing a new epoch with
//! one `Arc` swap. The example doubles as the CI `service-smoke` step:
//! it serves ~10k queries under live churn and asserts the service
//! invariant on every single answer — the stamped epoch never exceeds
//! the epoch the service admits to (`answer.epoch <= service.epoch()`).
//!
//! ```sh
//! cargo run --release --example routing_service
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use straightpath::prelude::*;

const NODES: usize = 2_000;
const QUERIES: usize = 10_000;
const MOVERS: usize = 40;

fn main() {
    let cfg = DeploymentConfig::paper_density(NODES);
    let net = Network::from_positions(cfg.deploy_uniform(11), cfg.radius, cfg.area);
    let area = net.area();

    // Queries over the largest component of the epoch-0 deployment.
    let comp = net.largest_component();
    let queries: Vec<(NodeId, NodeId)> = (0..QUERIES)
        .map(|k| {
            (
                comp[(k * 53) % comp.len()],
                comp[(k * 101 + 17) % comp.len()],
            )
        })
        .filter(|(s, d)| s != d)
        .collect();

    let service = RoutingService::new(net);
    // At least two reader threads so the smoke test actually races the
    // churner, whatever the host's parallelism.
    let workers = service.threads().max(2);
    println!(
        "serving {} queries over n={NODES} with {workers} workers under churn ({MOVERS} movers/epoch)",
        queries.len()
    );

    let stop = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let mut delivered = 0usize;
    let mut served = 0usize;
    let mut max_seen_epoch = 0u64;
    std::thread::scope(|s| {
        let churner = s.spawn(|| {
            let mut round = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let snap = service.snapshot();
                let net = snap.value.network();
                let delta = if round.is_multiple_of(2) { 1.5 } else { -1.5 };
                let moves: Vec<(NodeId, Point)> = (0..MOVERS)
                    .map(|j| {
                        let u = NodeId::new((round * MOVERS + j) % net.len());
                        let p = net.position(u);
                        let q = Point::new(
                            (p.x + delta).clamp(0.0, area.max().x),
                            (p.y + delta * 0.5).clamp(0.0, area.max().y),
                        );
                        (u, q)
                    })
                    .collect();
                service.apply_moves(&moves);
                round += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            round
        });

        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut session = service.session();
                    let mut delivered = 0usize;
                    let mut served = 0usize;
                    let mut max_epoch = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(src, dst)) = queries.get(i) else {
                            break;
                        };
                        let a = session.route_with(ServiceScheme::Slgf2, src, dst);
                        // The invariant this smoke test exists to hold
                        // under real scheduling: an answer can never be
                        // stamped with an epoch the service has not
                        // admitted yet.
                        assert!(
                            a.epoch <= service.epoch(),
                            "query {i}: answer epoch {} > service epoch {}",
                            a.epoch,
                            service.epoch()
                        );
                        served += 1;
                        delivered += usize::from(a.delivered());
                        max_epoch = max_epoch.max(a.epoch);
                    }
                    (served, delivered, max_epoch)
                })
            })
            .collect();
        for h in handles {
            let (s, d, e) = h.join().expect("worker panicked");
            served += s;
            delivered += d;
            max_seen_epoch = max_seen_epoch.max(e);
        }
        stop.store(true, Ordering::Relaxed);
        let rounds = churner.join().expect("churner panicked");
        println!(
            "churner published {rounds} epochs; workers saw up to epoch {max_seen_epoch} (service at {})",
            service.epoch()
        );
    });

    assert_eq!(served, queries.len(), "every query must be answered");
    let ratio = delivered as f64 / served as f64;
    println!(
        "served {served} queries, delivered {delivered} ({:.1}%)",
        ratio * 100.0
    );
    assert!(ratio > 0.95, "delivery collapsed under churn: {ratio:.3}");
    println!("service smoke test passed: zero panics, epoch invariant held on every answer");
}
