//! The labeling process of Definition 1 (centralized fixed point).
//!
//! > "Initially, each healthy node u sets its status `S_i(u)` to 1. Any
//! > status, say `S_i(u)`, will change to unsafe if there is no type-i
//! > safe neighbor in the type-i forwarding zone; that is,
//! > `∀v ∈ N(u) ∩ Q_i(u), S_i(v) = 0`."
//!
//! The update is monotone (bits only flip safe → unsafe), so iterating
//! from `(1,1,1,1)` everywhere converges to the *greatest* fixed point.
//! Every type-`q` step strictly increases `s_x·x + s_y·y` for the sign
//! pair of `q`, so the type-`q` zone graph is acyclic and that fixed
//! point is exactly "can reach a pinned node through type-`q` steps".
//!
//! [`SafetyMap::label_with_pinned`] computes it in one linear pass by
//! counting successors: each `(u, q)` starts with the number of
//! neighbors in `Q_q(u)`; an unpinned pair whose count is zero turns
//! unsafe, and each flip decrements the counts of the pairs that had it
//! as a successor. Flips are processed frontier by frontier, so frontier
//! `r` holds exactly the statuses the paper's synchronous round-based
//! system flips in round `r` (a status flips one round after its last
//! successor). [`SafetyMap::rounds`] is therefore the paper's round
//! count, comparable with the distributed protocol in
//! [`crate::distributed`], while the work is `O(n + |E|)` rather than
//! one full sweep per round.
//!
//! Edge nodes of the interest area are *pinned* to `(1,1,1,1)` (§3: "each
//! edge node will always keep its status tuple as (1,1,1,1)"), preventing
//! the area border from cascading unsafe labels inward.

use crate::SafetyTuple;
use sp_geom::Quadrant;
use sp_net::{edge_nodes::edge_node_mask, Network, NodeId};

/// The stabilized safety tuples of every node, plus convergence metadata.
#[derive(Debug, Clone)]
pub struct SafetyMap {
    tuples: Vec<SafetyTuple>,
    pinned: Vec<bool>,
    rounds: usize,
}

impl SafetyMap {
    /// Runs Definition 1 to its fixed point over `net`, pinning the
    /// interest-area edge nodes found with margin = radio radius.
    pub fn label(net: &Network) -> SafetyMap {
        let pinned = edge_node_mask(net, net.radius());
        SafetyMap::label_with_pinned(net, pinned)
    }

    /// Runs Definition 1 with an explicit pinned mask (exposed for tests
    /// and for studying the border-effect ablation).
    ///
    /// # Panics
    ///
    /// Panics if `pinned.len() != net.len()`.
    pub fn label_with_pinned(net: &Network, pinned: Vec<bool>) -> SafetyMap {
        assert_eq!(pinned.len(), net.len(), "pinned mask must cover all nodes");
        let n = net.len();
        let slot = |u: NodeId, q: Quadrant| 4 * u.index() + q.array_index();
        // safe_successors[slot(u, q)]: neighbors in Q_q(u) still safe in q.
        let mut safe_successors = vec![0u32; 4 * n];
        for u in net.node_ids() {
            let pu = net.position(u);
            for &v in net.neighbors(u) {
                if let Some(q) = Quadrant::of(pu, net.position(v)) {
                    safe_successors[slot(u, q)] += 1;
                }
            }
        }
        let mut tuples = vec![SafetyTuple::all_safe(); n];
        let mut frontier = Vec::new();
        for u in net.node_ids().filter(|u| !pinned[u.index()]) {
            for q in Quadrant::ALL {
                if safe_successors[slot(u, q)] == 0 {
                    tuples[u.index()].mark_unsafe(q);
                    frontier.push((u, q));
                }
            }
        }
        // Frontier r holds the statuses round r flips. The graph is
        // undirected, so the nodes that have v in a forwarding zone are
        // among v's own neighbors, and each such edge decrements a count
        // exactly once: a count reaches zero only at its last successor.
        let mut next = Vec::new();
        let mut rounds = 0;
        while !frontier.is_empty() {
            rounds += 1;
            for &(v, q) in &frontier {
                let pv = net.position(v);
                for &w in net.neighbors(v) {
                    if pinned[w.index()] || Quadrant::of(net.position(w), pv) != Some(q) {
                        continue;
                    }
                    let count = &mut safe_successors[slot(w, q)];
                    *count -= 1;
                    if *count == 0 {
                        tuples[w.index()].mark_unsafe(q);
                        next.push((w, q));
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        SafetyMap {
            tuples,
            pinned,
            rounds,
        }
    }

    /// Builds a map directly from tuples (used by the distributed
    /// protocol once it quiesces).
    pub fn from_tuples(tuples: Vec<SafetyTuple>, pinned: Vec<bool>, rounds: usize) -> SafetyMap {
        assert_eq!(tuples.len(), pinned.len());
        SafetyMap {
            tuples,
            pinned,
            rounds,
        }
    }

    /// `S_i(u)`.
    #[inline]
    pub fn is_safe(&self, u: NodeId, q: Quadrant) -> bool {
        self.tuples[u.index()].is_safe(q)
    }

    /// The whole tuple of `u`.
    #[inline]
    pub fn tuple(&self, u: NodeId) -> SafetyTuple {
        self.tuples[u.index()]
    }

    /// All tuples, indexed by node id.
    pub fn tuples(&self) -> &[SafetyTuple] {
        &self.tuples
    }

    /// Whether `u` was pinned as an interest-area edge node.
    pub fn is_pinned(&self, u: NodeId) -> bool {
        self.pinned[u.index()]
    }

    /// The pinned mask.
    pub fn pinned(&self) -> &[bool] {
        &self.pinned
    }

    /// Synchronous rounds until the fixed point stabilized.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Ids of nodes unsafe in `q`, ascending.
    pub fn unsafe_nodes(&self, q: Quadrant) -> Vec<NodeId> {
        self.tuples
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_safe(q))
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Count of nodes with at least one unsafe type.
    pub fn partially_unsafe_count(&self) -> usize {
        self.tuples.iter().filter(|t| !t.fully_safe()).count()
    }

    /// Verifies the Definition-1 fixed point (used by tests and
    /// debug assertions):
    ///
    /// * an unpinned node safe in `q` has a type-`q` safe neighbor in
    ///   `Q_q(u)`;
    /// * a node unsafe in `q` has **no** type-`q` safe neighbor in
    ///   `Q_q(u)` (i.e. flipping it back would violate Definition 1).
    ///
    /// Returns the first violating `(node, quadrant)` if any.
    pub fn check_fixed_point(&self, net: &Network) -> Option<(NodeId, Quadrant)> {
        for u in net.node_ids() {
            let pu = net.position(u);
            for q in Quadrant::ALL {
                let has_safe_forward = net
                    .neighbors(u)
                    .iter()
                    .any(|&v| Quadrant::of(pu, net.position(v)) == Some(q) && self.is_safe(v, q));
                let safe = self.is_safe(u, q);
                if self.pinned[u.index()] {
                    if !safe {
                        return Some((u, q));
                    }
                    continue;
                }
                if safe && !has_safe_forward {
                    return Some((u, q)); // should have been labeled unsafe
                }
                if !safe && has_safe_forward {
                    return Some((u, q)); // labeled too aggressively
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::{Point, Rect};

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    /// Fig. 3(a)-style scenario: a wedge of nodes whose NE quadrants are
    /// empty, so type-1 unsafety cascades backward.
    ///
    /// Layout (radius 15):
    /// ```text
    ///   u(10,10) -- u1(20,18) / u2(18,20) -- (nothing further NE)
    ///   plus a pinned far-east node so the rest of the tuple stays sane
    /// ```
    fn wedge() -> (Network, Vec<bool>) {
        let net = Network::from_positions(
            vec![
                Point::new(10.0, 10.0), // 0 = u
                Point::new(20.0, 18.0), // 1 = u1 (stuck: empty NE)
                Point::new(18.0, 20.0), // 2 = u2 (stuck: empty NE)
            ],
            15.0,
            area(),
        );
        // Nothing pinned: we want the raw cascade.
        let pinned = vec![false; 3];
        (net, pinned)
    }

    #[test]
    fn stuck_nodes_labeled_in_first_round_then_cascade() {
        let (net, pinned) = wedge();
        let map = SafetyMap::label_with_pinned(&net, pinned);
        // u1 and u2 have empty type-1 forwarding zones -> unsafe.
        assert!(!map.is_safe(NodeId(1), Quadrant::I));
        assert!(!map.is_safe(NodeId(2), Quadrant::I));
        // u's only NE neighbors are u1, u2, both type-1 unsafe -> unsafe.
        assert!(!map.is_safe(NodeId(0), Quadrant::I));
        // The cascade needed at least two rounds.
        assert!(map.rounds() >= 2, "rounds = {}", map.rounds());
        assert!(map.check_fixed_point(&net).is_none());
    }

    #[test]
    fn pinned_nodes_never_flip() {
        let (net, _) = wedge();
        let map = SafetyMap::label_with_pinned(&net, vec![true; 3]);
        for u in net.node_ids() {
            assert!(map.tuple(u).fully_safe());
            assert!(map.is_pinned(u));
        }
        assert_eq!(map.rounds(), 0);
    }

    #[test]
    fn isolated_node_is_fully_unsafe() {
        let net = Network::from_positions(vec![Point::new(50.0, 50.0)], 10.0, area());
        let map = SafetyMap::label_with_pinned(&net, vec![false]);
        assert!(map.tuple(NodeId(0)).fully_unsafe());
        assert_eq!(map.unsafe_nodes(Quadrant::II), vec![NodeId(0)]);
        assert_eq!(map.partially_unsafe_count(), 1);
    }

    #[test]
    fn default_label_pins_the_hull() {
        let cfg = sp_net::DeploymentConfig::paper_default(500);
        let net = Network::from_positions(cfg.deploy_uniform(3), cfg.radius, cfg.area);
        let map = SafetyMap::label(&net);
        assert!(map.check_fixed_point(&net).is_none());
        // In the paper's dense uniform regime most nodes are safe.
        let unsafe_frac = map.partially_unsafe_count() as f64 / net.len() as f64;
        assert!(
            unsafe_frac < 0.5,
            "IA deployment should be mostly safe, got {unsafe_frac}"
        );
    }

    #[test]
    fn safe_nodes_chain_to_destination_quadrantwise() {
        // Every safe-in-q node must have a safe-in-q successor in Q_q,
        // unless pinned: exactly the invariant behind Theorem 1.
        let cfg = sp_net::DeploymentConfig::paper_default(400);
        let net = Network::from_positions(cfg.deploy_uniform(8), cfg.radius, cfg.area);
        let map = SafetyMap::label(&net);
        for u in net.node_ids() {
            if map.is_pinned(u) {
                continue;
            }
            for q in Quadrant::ALL {
                if map.is_safe(u, q) {
                    let pu = net.position(u);
                    assert!(
                        net.neighbors(u).iter().any(|&v| {
                            Quadrant::of(pu, net.position(v)) == Some(q) && map.is_safe(v, q)
                        }),
                        "safe node {u} lacks a safe successor in {q}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pinned mask must cover all nodes")]
    fn pinned_mask_length_checked() {
        let (net, _) = wedge();
        let _ = SafetyMap::label_with_pinned(&net, vec![false; 2]);
    }
}
