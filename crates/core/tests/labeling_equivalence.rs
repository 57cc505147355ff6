//! Property tests: the linear successor-counting labeler equals the
//! synchronous Jacobi iteration of Definition 1 bit for bit.
//!
//! `SafetyMap::label_with_pinned` computes the Definition-1 fixed point
//! frontier by frontier. The reference below is the round-by-round
//! sweep the paper describes, kept here only as a test oracle: every
//! round rescans every unpinned node, quadrant and neighbor against the
//! previous round's tuples. Both must agree on the tuples, the pinned
//! mask and the round count, across uniform deployments, grids whose
//! `dx == 0` / `dy == 0` ties exercise the quadrant boundary
//! convention, duplicate positions (no quadrant at all) and isolated
//! nodes.

use proptest::prelude::*;
use sp_core::{SafetyMap, SafetyTuple};
use sp_geom::{Point, Quadrant, Rect};
use sp_net::{edge_nodes::edge_node_mask, DeploymentConfig, Network};

/// Definition 1 by synchronous sweeps: the tuples and the number of
/// rounds in which some status flipped.
fn jacobi(net: &Network, pinned: &[bool]) -> (Vec<SafetyTuple>, usize) {
    let mut tuples = vec![SafetyTuple::all_safe(); net.len()];
    let mut rounds = 0;
    loop {
        let mut next = tuples.clone();
        let mut changed = false;
        for u in net.node_ids() {
            if pinned[u.index()] {
                continue;
            }
            let pu = net.position(u);
            for q in Quadrant::ALL {
                if !tuples[u.index()].is_safe(q) {
                    continue;
                }
                let has_safe_forward = net.neighbors(u).iter().any(|&v| {
                    Quadrant::of(pu, net.position(v)) == Some(q) && tuples[v.index()].is_safe(q)
                });
                if !has_safe_forward {
                    next[u.index()].mark_unsafe(q);
                    changed = true;
                }
            }
        }
        if !changed {
            return (tuples, rounds);
        }
        tuples = next;
        rounds += 1;
    }
}

/// How a case pins nodes.
#[derive(Debug, Clone, Copy)]
enum Pinning {
    None,
    Hull,
    /// Each node pinned independently with this percent probability.
    Random(u64),
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn pin_mask(net: &Network, pinning: Pinning, seed: u64) -> Vec<bool> {
    match pinning {
        Pinning::None => vec![false; net.len()],
        Pinning::Hull => edge_node_mask(net, net.radius()),
        Pinning::Random(pct) => (0..net.len() as u64)
            .map(|i| splitmix(seed ^ (i << 20)) % 100 < pct)
            .collect(),
    }
}

fn pinnings() -> Vec<Pinning> {
    vec![
        Pinning::None,
        Pinning::Hull,
        Pinning::Random(3),
        Pinning::Random(30),
    ]
}

/// The labeler agrees with the oracle and is a Definition-1 fixed point.
fn assert_matches_jacobi(net: &Network, pinned: Vec<bool>) {
    let (want, want_rounds) = jacobi(net, &pinned);
    let map = SafetyMap::label_with_pinned(net, pinned.clone());
    assert_eq!(map.tuples(), &want[..], "tuples diverge from Jacobi");
    assert_eq!(map.pinned(), &pinned[..], "pinned mask changed");
    assert_eq!(
        map.rounds(),
        want_rounds,
        "round count diverges from Jacobi"
    );
    assert_eq!(map.check_fixed_point(net), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uniform deployments at the paper's two densities.
    #[test]
    fn uniform_deployments_match_jacobi(
        seed in 0u64..10_000,
        n in 10usize..700,
        dense in prop::sample::select(vec![false, true]),
        pinning in prop::sample::select(pinnings()),
    ) {
        let cfg = if dense {
            DeploymentConfig::paper_density(n)
        } else {
            DeploymentConfig::paper_default(n)
        };
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        assert_matches_jacobi(&net, pin_mask(&net, pinning, seed));
    }

    /// Lattices with random holes: every axis-aligned neighbor sits on
    /// a quadrant boundary (`dx == 0` or `dy == 0`).
    #[test]
    fn grid_ties_match_jacobi(
        seed in 0u64..10_000,
        side in 2usize..24,
        spacing in prop::sample::select(vec![5.0, 7.0, 10.0, 14.0]),
        hole_pct in 0u64..45,
        pinning in prop::sample::select(pinnings()),
    ) {
        let positions: Vec<Point> = (0..side * side)
            .filter(|&k| splitmix(seed ^ k as u64) % 100 >= hole_pct)
            .map(|k| Point::new((k % side) as f64 * spacing, (k / side) as f64 * spacing))
            .collect();
        prop_assume!(!positions.is_empty());
        let area = Rect::from_corners(
            Point::new(0.0, 0.0),
            Point::new(side as f64 * spacing, side as f64 * spacing),
        );
        let net = Network::from_positions(positions, 10.0, area);
        assert_matches_jacobi(&net, pin_mask(&net, pinning, seed));
    }

    /// Duplicated positions (a co-located neighbor is in no forwarding
    /// zone) and far-flung isolated nodes mixed into a uniform field.
    #[test]
    fn duplicates_and_isolated_nodes_match_jacobi(
        seed in 0u64..10_000,
        n in 20usize..400,
        dup_pct in 0u64..40,
        isolated in 0usize..6,
        pinning in prop::sample::select(pinnings()),
    ) {
        let cfg = DeploymentConfig::paper_default(n);
        let mut positions = cfg.deploy_uniform(seed);
        let copies: Vec<Point> = positions
            .iter()
            .enumerate()
            .filter(|&(i, _)| splitmix(seed ^ ((i as u64) << 8)) % 100 < dup_pct)
            .map(|(_, &p)| p)
            .collect();
        positions.extend(copies);
        let hi = cfg.area.max();
        positions.extend(
            (0..isolated).map(|k| Point::new(hi.x + 100.0 * (k + 1) as f64, hi.y + 50.0)),
        );
        let net = Network::from_positions(positions, cfg.radius, cfg.area);
        assert_matches_jacobi(&net, pin_mask(&net, pinning, seed));
    }
}

#[test]
fn empty_and_single_node_networks_match_jacobi() {
    let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
    let empty = Network::from_positions(Vec::new(), 5.0, area);
    assert_matches_jacobi(&empty, Vec::new());
    let single = Network::from_positions(vec![Point::new(5.0, 5.0)], 5.0, area);
    assert_matches_jacobi(&single, vec![false]);
    assert_matches_jacobi(&single, vec![true]);
}

/// One deployment at the serving scale, where the cascade runs for many
/// rounds.
#[test]
fn serving_scale_deployment_matches_jacobi() {
    let cfg = DeploymentConfig::paper_density(4_000);
    let net = Network::from_positions(cfg.deploy_uniform(0), cfg.radius, cfg.area);
    let pinned = edge_node_mask(&net, net.radius());
    assert_matches_jacobi(&net, pinned);
    assert_matches_jacobi(&net, vec![false; net.len()]);
}
