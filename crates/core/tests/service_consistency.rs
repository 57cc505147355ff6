//! Snapshot-consistency properties of the epoch-versioned
//! [`RoutingService`].
//!
//! Two guarantees the serving shape stands on, both exercised with real
//! threads over random topologies and mobility schedules:
//!
//! 1. **Epoch integrity under racing publishes** — readers querying
//!    concurrently with `apply_moves` always observe a fully-formed
//!    snapshot: every answer's path is valid against **exactly** the
//!    adjacency of the epoch stamped on it (never a blend of two
//!    epochs), and no stamp ever exceeds an epoch the publisher has
//!    admitted. This is the thread-level counterpart of the
//!    schedule-exhaustive `EpochSwap` model in `sp-sync`'s
//!    interleavings suite.
//! 2. **Batch determinism for a fixed epoch schedule** — replaying the
//!    same mobility schedule, `RoutingService::run_batch` answers are
//!    bit-identical between serial and any thread count at every epoch
//!    along the way.
//! 3. **No lost writes** — concurrent `apply_moves` callers are
//!    serialized, so every batch lands in an epoch of its own.

use proptest::prelude::*;
use sp_core::{RoutingService, ServiceAnswer, ServiceScheme, ServiceSnapshot};
use sp_geom::Point;
use sp_net::{deploy::DeploymentConfig, Network, NodeId};

const NODES: usize = 150;
/// Thread counts the determinism property sweeps (the workspace's
/// usual serial / small / odd / oversubscribed set).
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn prepared(seed: u64) -> Network {
    let cfg = DeploymentConfig::paper_default(NODES);
    Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
}

/// Deterministic query pairs over the largest component of `net`.
fn queries(net: &Network, count: usize, salt: usize) -> Vec<(NodeId, NodeId)> {
    let comp = net.largest_component();
    (0..count)
        .map(|k| {
            (
                comp[(k * 53 + salt) % comp.len()],
                comp[(k * 101 + salt * 7 + 17) % comp.len()],
            )
        })
        .filter(|(s, d)| s != d)
        .collect()
}

/// One deterministic jitter batch: `movers` round-robin nodes nudged by
/// `delta`, clamped to the area.
fn jitter(net: &Network, round: usize, movers: usize, delta: f64) -> Vec<(NodeId, Point)> {
    let hi = net.area().max();
    (0..movers)
        .map(|j| {
            let u = NodeId::new((round * movers + j) % net.len());
            let p = net.position(u);
            let q = Point::new(
                (p.x + delta).clamp(0.0, hi.x),
                (p.y + delta * 0.5).clamp(0.0, hi.y),
            );
            (u, q)
        })
        .collect()
}

/// A path stamped with epoch `e` must be walkable on exactly epoch
/// `e`'s adjacency: consecutive hops are edges *of that network*, the
/// walk starts at the source, and a delivered walk ends at the
/// destination.
fn assert_path_valid_on(net: &Network, answer: &ServiceAnswer, path: &[NodeId]) {
    let (epoch, src, dst) = (answer.epoch, answer.src, answer.dst);
    assert_eq!(path.first(), Some(&src), "epoch {epoch}: wrong start");
    for w in path.windows(2) {
        assert!(
            net.has_edge(w[0], w[1]),
            "epoch {epoch}: hop {:?}->{:?} is not an edge of its stamped epoch",
            w[0],
            w[1]
        );
    }
    if answer.delivered() {
        assert_eq!(
            path.last(),
            Some(&dst),
            "epoch {epoch}: delivered but did not end at the destination"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Guarantee 1: readers racing live publishes only ever see
    /// internally consistent (epoch, path) pairs.
    #[test]
    fn racing_readers_observe_fully_formed_snapshots(
        seed in 0u64..1000,
        epochs in 1usize..4,
        movers in 5usize..30,
    ) {
        let net = prepared(seed);
        let service = RoutingService::new(net);
        let qs = queries(service.snapshot().value.network(), 24, seed as usize % 13);
        prop_assume!(qs.len() >= 4);

        // Publisher keeps each epoch's snapshot pinned so paths can be
        // validated against exactly the epoch they claim; readers
        // trace-route the query list concurrently.
        let mut traced: Vec<Vec<(ServiceAnswer, Vec<NodeId>)>> = Vec::new();
        let mut published = vec![service.snapshot()];
        std::thread::scope(|s| {
            let publisher = s.spawn(|| {
                let mut history = Vec::with_capacity(epochs);
                for round in 0..epochs {
                    let moves =
                        jitter(service.snapshot().value.network(), round, movers, 2.0);
                    let e = service.apply_moves(&moves);
                    // Single publisher: the pin taken right after the
                    // publish is the epoch just published.
                    let pin = service.snapshot();
                    assert_eq!(pin.epoch, e, "another publisher raced the test");
                    history.push(pin);
                }
                history
            });
            let readers: Vec<_> = (0..2)
                .map(|r| {
                    let qs = &qs;
                    let service = &service;
                    s.spawn(move || {
                        let mut session = service.session();
                        let mut out = Vec::with_capacity(2 * qs.len());
                        for pass in 0..2 {
                            for &(src, dst) in qs.iter().skip((r + pass) % 2) {
                                let answer =
                                    session.route_with(ServiceScheme::Slgf2, src, dst);
                                assert!(
                                    answer.epoch <= service.epoch(),
                                    "stamp ran ahead of the service epoch"
                                );
                                out.push((answer, session.last_path().to_vec()));
                            }
                        }
                        out
                    })
                })
                .collect();
            for r in readers {
                traced.push(r.join().expect("reader panicked"));
            }
            published.extend(publisher.join().expect("publisher panicked"));
        });

        prop_assert_eq!(published.len(), epochs + 1);
        for (e, pin) in published.iter().enumerate() {
            prop_assert_eq!(pin.epoch, e as u64, "publisher history has a gap");
        }
        for (answer, path) in traced.into_iter().flatten() {
            let pin = &published[answer.epoch as usize];
            assert_path_valid_on(pin.value.network(), &answer, &path);
        }
    }

    /// Guarantee 2: for a fixed mobility schedule, batched answers are
    /// bit-identical between serial and threaded execution at every
    /// epoch along the schedule.
    #[test]
    fn run_batch_is_deterministic_across_threads_per_epoch(
        seed in 0u64..1000,
        epochs in 1usize..4,
    ) {
        let net = prepared(seed);
        let qs = queries(&net, 40, 3);
        prop_assume!(qs.len() >= 8);
        let serial = RoutingService::new(net.clone()).with_threads(1);
        let threaded: Vec<RoutingService> = THREADS[1..]
            .iter()
            .map(|&t| RoutingService::new(net.clone()).with_threads(t))
            .collect();

        for round in 0..=epochs {
            let want = serial.run_batch(&qs);
            prop_assert_eq!(want.epoch, round as u64);
            prop_assert_eq!(want.answers.len(), qs.len());
            for (service, &t) in threaded.iter().zip(&THREADS[1..]) {
                let got = service.run_batch(&qs);
                prop_assert_eq!(&want, &got, "threads={} epoch={}", t, round);
            }
            if round < epochs {
                // The same epoch schedule applied to every service: the
                // deterministic jitter keeps them in lockstep.
                let moves = jitter(serial.snapshot().value.network(), round, 10, 1.5);
                prop_assert_eq!(serial.apply_moves(&moves), round as u64 + 1);
                for service in &threaded {
                    prop_assert_eq!(service.apply_moves(&moves), round as u64 + 1);
                }
            }
        }
    }
}

/// The batch path and the session path agree answer-for-answer on a
/// churned topology (not just the fresh epoch-0 deployment).
#[test]
fn session_and_batch_agree_after_churn() {
    let net = prepared(77);
    let service = RoutingService::new(net).with_threads(3);
    for round in 0..3 {
        let moves = jitter(service.snapshot().value.network(), round, 12, 2.5);
        service.apply_moves(&moves);
    }
    let qs = queries(service.snapshot().value.network(), 30, 5);
    let batch = service.run_batch(&qs);
    assert_eq!(batch.epoch, 3);
    let mut session = service.session();
    for (i, &(src, dst)) in qs.iter().enumerate() {
        assert_eq!(
            batch.answers[i],
            session.route_with(ServiceScheme::Slgf2, src, dst),
            "query {i}"
        );
    }
}

/// `ServiceSnapshot::build` + `from_snapshot` is the same service as
/// `new` — the snapshot constructor is the publish path's building
/// block, so the two entry points must agree.
#[test]
fn from_snapshot_matches_new() {
    let net = prepared(5);
    let qs = queries(&net, 12, 1);
    let a = RoutingService::new(net.clone()).with_threads(2);
    let b = RoutingService::from_snapshot(ServiceSnapshot::build(net)).with_threads(2);
    assert_eq!(a.run_batch(&qs), b.run_batch(&qs));
}

/// Guarantee 3: four writers racing disjoint 1-node batches lose none
/// of them, and each batch publishes exactly one epoch.
#[test]
fn concurrent_writers_lose_no_moves() {
    const WRITERS: usize = 4;
    const BATCHES: usize = 10;
    let service = RoutingService::new(prepared(31));
    let start_epoch = service.epoch();
    let net = service.snapshot().value.network().clone();
    let hi = net.area().max();
    // Writer w moves nodes w, w + 4, w + 8, ... by a few meters.
    let target = |k: usize| {
        let u = NodeId::new(k);
        let p = net.position(u);
        let q = Point::new((p.x + 3.0).min(hi.x), (p.y + 1.5).min(hi.y));
        (u, q)
    };
    let barrier = std::sync::Barrier::new(WRITERS);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (service, barrier, target) = (&service, &barrier, &target);
            s.spawn(move || {
                barrier.wait();
                for b in 0..BATCHES {
                    service.apply_moves(&[target(b * WRITERS + w)]);
                }
            });
        }
    });
    assert_eq!(service.epoch(), start_epoch + (WRITERS * BATCHES) as u64);
    let last = service.snapshot();
    for k in 0..WRITERS * BATCHES {
        let (u, q) = target(k);
        assert_eq!(last.value.network().position(u), q, "move of {u} was lost");
    }
}
