//! Seeded workload generation: the deployment, the query pairs each
//! client cycles through, and the `MOVE` batches of the probe.
//!
//! Everything here is a pure function of the seed. The server only
//! ever sees what this module generates: node positions at set-up and
//! encoded frames afterwards.
//!
//! The deployment itself is fixed ([`DEPLOYMENT_SEED`]); the seed
//! drives the traffic. Full relabeling, which every publish and the
//! epoch-0 service pay, runs until a fixed point, and the number of
//! rounds that takes is a property of the deployment: 7 to 36 rounds
//! over deployment seeds 0–40 at this size, ~1.8 ms each. A deployment
//! drawn from the run's seed would make the publish cost, and with it
//! `setup_s` and every `move_*` figure, vary up to twofold from seed to
//! seed, far beyond any bound a regression could be judged by.

use sp_geom::{Point, Rect};
use sp_net::{deploy::DeploymentConfig, Network, NodeId};

/// Nodes in the served deployment.
pub const NODES: usize = 10_000;
/// Seed of the served deployment (`deploy_uniform` at the paper's
/// density): fixed, so the seed varies the traffic over one field. At
/// 10⁴ nodes it labels in 17 rounds.
pub const DEPLOYMENT_SEED: u64 = 0;
/// Closest Euclidean distance between the ends of a local pair (m).
pub const LOCAL_MIN_M: f64 = 25.0;
/// Farthest Euclidean distance between the ends of a local pair (m).
pub const LOCAL_MAX_M: f64 = 80.0;
/// Query pairs in each client's pool; clients cycle through it.
pub const POOL: usize = 4096;
/// Nodes moved by one `MOVE` batch.
pub const MOVE_BATCH: usize = 100;
/// Largest step of a mover along each axis (m).
pub const MOVE_STEP_M: f64 = 1.0;

/// SplitMix64: a tiny, fully specified generator, so the inputs do not
/// change when a dependency's random stream does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

const PAIR_STREAM: u64 = 1;
const MOVE_STREAM: u64 = 2;

/// The serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short pairs: the wire and the server dominate the round trip.
    Local,
    /// Field-wide pairs: the hop walk dominates.
    Crossfield,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Local, Workload::Crossfield];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Local => "wire_local",
            Workload::Crossfield => "wire_crossfield",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The deployment's parameters (area and radius).
    pub cfg: DeploymentConfig,
    /// Node positions, index-aligned with node ids.
    pub positions: Vec<Point>,
    /// One query-pair pool per client.
    pub pools: [Vec<(u32, u32)>; 2],
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed` over `nodes` nodes
    /// at the paper's density. Also returns the topology the pairs were
    /// drawn on.
    pub fn generate(workload: Workload, seed: u64, nodes: usize) -> (Inputs, Network) {
        let cfg = DeploymentConfig::paper_density(nodes);
        let positions = cfg.deploy_uniform(DEPLOYMENT_SEED);
        let net = Network::from_positions(positions.clone(), cfg.radius, cfg.area);
        let lcc = net.largest_component();
        let mut rng = Rng::new(seed, PAIR_STREAM);
        let pool = |rng: &mut Rng| -> Vec<(u32, u32)> {
            (0..POOL)
                .map(|_| match workload {
                    Workload::Local => local_pair(&net, &lcc, rng),
                    Workload::Crossfield => crossfield_pair(&lcc, rng),
                })
                .collect()
        };
        let pools = [pool(&mut rng), pool(&mut rng)];
        (
            Inputs {
                cfg,
                positions,
                pools,
            },
            net,
        )
    }
}

/// A pair of distinct largest-component nodes 25–80 m apart.
fn local_pair(net: &Network, lcc: &[NodeId], rng: &mut Rng) -> (u32, u32) {
    loop {
        let s = lcc[rng.below(lcc.len())];
        // At the paper's density ~230 nodes lie in the band around any
        // interior source; give up on a source only after many misses.
        for _ in 0..20_000 {
            let d = lcc[rng.below(lcc.len())];
            let dist = net.distance(s, d);
            if (LOCAL_MIN_M..=LOCAL_MAX_M).contains(&dist) {
                return (s.0, d.0);
            }
        }
    }
}

/// A uniformly random pair of distinct largest-component nodes.
fn crossfield_pair(lcc: &[NodeId], rng: &mut Rng) -> (u32, u32) {
    loop {
        let s = lcc[rng.below(lcc.len())];
        let d = lcc[rng.below(lcc.len())];
        if s != d {
            return (s.0, d.0);
        }
    }
}

/// The probe's `MOVE` generator and its mirror of every node's served
/// position.
///
/// Batches go out and back: an odd batch steps [`MOVE_BATCH`] seeded
/// movers away from their deployed positions, and the even batch after
/// it moves the same nodes home again. The topology a publish relabels
/// thus stays within one batch of the deployment. A random walk would
/// drift it instead, and with it the number of relabeling rounds and so
/// the cost of every publish: after 135 batches the median round count
/// ranged from 12 to 17 over five seeds.
#[derive(Debug, Clone)]
pub struct MoveGen {
    rng: Rng,
    area: Rect,
    home: Vec<Point>,
    mirror: Vec<Point>,
    away: Vec<u32>,
}

impl MoveGen {
    /// A generator for `seed`, starting from the deployed positions.
    pub fn new(seed: u64, positions: &[Point], area: Rect) -> MoveGen {
        MoveGen {
            rng: Rng::new(seed, MOVE_STREAM),
            area,
            home: positions.to_vec(),
            mirror: positions.to_vec(),
            away: Vec::new(),
        }
    }

    /// The next batch. Outbound: [`MOVE_BATCH`] distinct movers (fewer
    /// on a smaller deployment), each stepping at most [`MOVE_STEP_M`]
    /// per axis from its deployed position, clamped to the area. Return:
    /// the last outbound movers, back to their deployed positions.
    pub fn next_batch(&mut self) -> Vec<(u32, f64, f64)> {
        if !self.away.is_empty() {
            return std::mem::take(&mut self.away)
                .into_iter()
                .map(|id| {
                    let p = self.home[id as usize];
                    (id, p.x, p.y)
                })
                .collect();
        }
        let n = self.home.len();
        let want = MOVE_BATCH.min(n);
        let mut ids: Vec<usize> = Vec::with_capacity(want);
        while ids.len() < want {
            let id = self.rng.below(n);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let (lo, hi) = (self.area.min(), self.area.max());
        let batch: Vec<(u32, f64, f64)> = ids
            .into_iter()
            .map(|id| {
                let p = self.home[id];
                let x = (p.x + MOVE_STEP_M * self.rng.signed_unit()).clamp(lo.x, hi.x);
                let y = (p.y + MOVE_STEP_M * self.rng.signed_unit()).clamp(lo.y, hi.y);
                (id as u32, x, y)
            })
            .collect();
        self.away = batch.iter().map(|m| m.0).collect();
        batch
    }

    /// Records an acknowledged batch in the mirror.
    pub fn apply(&mut self, batch: &[(u32, f64, f64)]) {
        for &(id, x, y) in batch {
            self.mirror[id as usize] = Point::new(x, y);
        }
    }

    /// True when no movers are away from their deployed positions.
    pub fn at_home(&self) -> bool {
        self.away.is_empty()
    }

    /// Every node's position after the batches applied so far.
    pub fn mirror(&self) -> &[Point] {
        &self.mirror
    }
}

/// A batch as the routing service takes it.
pub fn as_moves(batch: &[(u32, f64, f64)]) -> Vec<(NodeId, Point)> {
    batch
        .iter()
        .map(|&(id, x, y)| (NodeId(id), Point::new(x, y)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_NODES: usize = 2000;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            let (a, _) = Inputs::generate(w, 11, TEST_NODES);
            let (b, _) = Inputs::generate(w, 11, TEST_NODES);
            assert_eq!(a.positions, b.positions, "{}", w.name());
            assert_eq!(a.pools, b.pools, "{}", w.name());
        }
        let (a, _) = Inputs::generate(Workload::Local, 11, TEST_NODES);
        let mut g1 = MoveGen::new(11, &a.positions, a.cfg.area);
        let mut g2 = MoveGen::new(11, &a.positions, a.cfg.area);
        for _ in 0..3 {
            let (b1, b2) = (g1.next_batch(), g2.next_batch());
            assert_eq!(b1, b2);
            g1.apply(&b1);
            g2.apply(&b2);
        }
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        for w in Workload::ALL {
            let (a, _) = Inputs::generate(w, 11, TEST_NODES);
            let (b, _) = Inputs::generate(w, 12, TEST_NODES);
            assert_eq!(a.positions, b.positions, "one field for every seed");
            assert_ne!(a.pools, b.pools, "{}", w.name());
        }
        let (a, _) = Inputs::generate(Workload::Local, 11, TEST_NODES);
        let b1 = MoveGen::new(11, &a.positions, a.cfg.area).next_batch();
        let b2 = MoveGen::new(12, &a.positions, a.cfg.area).next_batch();
        assert_ne!(b1, b2);
    }

    #[test]
    fn every_pair_lies_in_the_largest_component() {
        for w in Workload::ALL {
            let (inputs, net) = Inputs::generate(w, 5, TEST_NODES);
            let mut in_lcc = vec![false; net.len()];
            for u in net.largest_component() {
                in_lcc[u.index()] = true;
            }
            for pool in &inputs.pools {
                assert_eq!(pool.len(), POOL);
                for &(s, d) in pool {
                    assert_ne!(s, d);
                    assert!(in_lcc[s as usize] && in_lcc[d as usize], "{s}->{d}");
                }
            }
        }
    }

    #[test]
    fn local_pairs_are_25_to_80_m_apart() {
        let (local, net) = Inputs::generate(Workload::Local, 7, TEST_NODES);
        for &(s, d) in local.pools.iter().flatten() {
            let dist = net.distance(NodeId(s), NodeId(d));
            assert!((LOCAL_MIN_M..=LOCAL_MAX_M).contains(&dist), "{dist}");
        }
    }

    #[test]
    fn moves_step_at_most_a_metre_and_stay_in_the_area() {
        let (inputs, _) = Inputs::generate(Workload::Local, 3, TEST_NODES);
        let area = inputs.cfg.area;
        let mut g = MoveGen::new(3, &inputs.positions, area);
        for _ in 0..5 {
            let before = g.mirror().to_vec();
            let batch = g.next_batch();
            assert_eq!(batch.len(), MOVE_BATCH);
            let mut ids: Vec<u32> = batch.iter().map(|m| m.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), MOVE_BATCH, "movers are distinct");
            for &(id, x, y) in &batch {
                let p = before[id as usize];
                assert!((x - p.x).abs() <= MOVE_STEP_M && (y - p.y).abs() <= MOVE_STEP_M);
                assert!(area.contains(Point::new(x, y)));
            }
            g.apply(&batch);
        }
    }

    #[test]
    fn every_second_batch_moves_the_last_movers_home() {
        let (inputs, _) = Inputs::generate(Workload::Local, 4, TEST_NODES);
        let mut g = MoveGen::new(4, &inputs.positions, inputs.cfg.area);
        for _ in 0..3 {
            let out = g.next_batch();
            g.apply(&out);
            assert_ne!(g.mirror(), &inputs.positions[..]);
            let back = g.next_batch();
            let ids = |b: &[(u32, f64, f64)]| b.iter().map(|m| m.0).collect::<Vec<_>>();
            assert_eq!(ids(&out), ids(&back));
            g.apply(&back);
            assert_eq!(g.mirror(), &inputs.positions[..]);
        }
    }
}
