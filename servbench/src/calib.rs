//! The machine-speed references that the timed metrics are scaled by.
//!
//! A shared host changes speed for minutes at a time, as other guests
//! load its cores, caches and memory. Everything a run times moves with
//! it: on a 2-vCPU virtual machine, runs of one workload made minutes
//! apart read set-up times from 31 to 41 ms, and their round trips and
//! `MOVE` acks moved with the set-up time. A median over the segments of
//! one run does not remove a slowdown that lasts the whole run.
//!
//! So a run also times two fixed pieces of work of this crate's own,
//! which no change to the program alters, between its segments, where
//! they sample the same spells of the host as the traffic:
//!
//! - a breadth-first search over the unit-disk graph of the run's
//!   deployment, a memory-bound graph walk like the program's own
//!   set-up, labeling and publishing;
//! - bare TCP round trips over loopback with the sizes of a `QUERY`
//!   frame and its reply, on two pairs of threads at once as under the
//!   live traffic: the kernel path every query round trip takes.
//!
//! Each one's median over the run, against its fixed scale
//! ([`GRAPH_REFERENCE_NS`], [`WIRE_REFERENCE_NS`]), is the run's speed
//! factor for the timings of its kind: the graph factor for set-up and
//! `MOVE` timings, the wire factor for query round trips.
//!
//! Two references, because the host does not slow all work alike. Over
//! six minutes in which that machine sped up by a half, timed in 20 s
//! windows, the set-up and a `MOVE` publish spread 37% raw and 2–3%
//! divided by the search time. In-process routing and a bare loopback
//! round trip followed the host more steeply: 57–60% raw, and still
//! 18–19% divided by the search time. Query round trips follow the
//! loopback round trip: over ten `wire_crossfield` runs across which the
//! machine left a fast spell, their raw median spread 147%, 39% times
//! the graph factor and 7% times the wire factor.

use crate::layers::{loopback_pingpong, query_frame_sizes};
use crate::stats::median;
use crate::trace::Trace;
use sp_geom::Point;
use std::time::{Duration, Instant};

/// The median graph search time that set-up and `MOVE` timings are
/// put against (ns). A run whose median search takes exactly this long
/// reports them as measured. It is a fixed scale, about the middle of
/// the 320–650 µs a 2-vCPU Intel Xeon virtual machine showed over its
/// fast and slow spells.
pub const GRAPH_REFERENCE_NS: f64 = 500_000.0;
/// The median loopback round trip that query timings are put against
/// (ns), a fixed scale like [`GRAPH_REFERENCE_NS`]: about what the same
/// machine showed outside its fast spells, which ran 4 µs.
pub const WIRE_REFERENCE_NS: f64 = 12_000.0;
/// Graph searches are timed for this long in each sample.
const GRAPH_SAMPLE: Duration = Duration::from_millis(25);
/// Loopback round trips on each thread pair in each sample.
const WIRE_EXCHANGES: usize = 1000;

/// The graph reference: breadth-first search over a unit-disk graph.
pub struct GraphSearch {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    hops: Vec<u32>,
    queue: Vec<u32>,
    next_source: usize,
}

impl GraphSearch {
    /// Builds the unit-disk graph of `positions` at `radius`.
    pub fn new(positions: &[Point], radius: f64) -> GraphSearch {
        let n = positions.len();
        let mut by_x: Vec<usize> = (0..n).collect();
        by_x.sort_by(|&a, &b| positions[a].x.total_cmp(&positions[b].x));
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (k, &a) in by_x.iter().enumerate() {
            let p = positions[a];
            for &b in by_x[k + 1..].iter() {
                let q = positions[b];
                if q.x - p.x > radius {
                    break;
                }
                if (q.x - p.x).powi(2) + (q.y - p.y).powi(2) <= radius * radius {
                    edges.push((a as u32, b as u32));
                    edges.push((b as u32, a as u32));
                }
            }
        }
        edges.sort_unstable();
        let mut offsets = vec![0u32; n + 1];
        for &(a, _) in &edges {
            offsets[a as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        GraphSearch {
            offsets,
            targets: edges.into_iter().map(|(_, b)| b).collect(),
            hops: vec![u32::MAX; n],
            queue: Vec::with_capacity(n),
            next_source: 0,
        }
    }

    /// One breadth-first search from the next source in a fixed cycle;
    /// returns the sum of hop counts to every node it reached.
    pub fn search(&mut self) -> u64 {
        let n = self.hops.len();
        let source = self.next_source;
        self.next_source = (self.next_source + 7919) % n.max(1);
        self.hops.fill(u32::MAX);
        self.queue.clear();
        self.hops[source] = 0;
        self.queue.push(source as u32);
        let mut head = 0;
        let mut total = 0u64;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let next = self.hops[u] + 1;
            for &v in &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                if self.hops[v as usize] == u32::MAX {
                    self.hops[v as usize] = next;
                    total += u64::from(next);
                    self.queue.push(v);
                }
            }
        }
        total
    }
}

/// Both references and the times they took in this run.
pub struct Speed {
    graph: GraphSearch,
    frames: (usize, usize),
    graph_ns: Vec<f64>,
    wire_ns: Vec<f64>,
}

impl Speed {
    /// The references for a run over `positions` at `radius`.
    pub fn new(positions: &[Point], radius: f64) -> Speed {
        Speed {
            graph: GraphSearch::new(positions, radius),
            frames: query_frame_sizes(),
            graph_ns: Vec::new(),
            wire_ns: Vec::new(),
        }
    }

    /// Times graph searches back to back for [`GRAPH_SAMPLE`], then
    /// [`WIRE_EXCHANGES`] loopback round trips on each of two thread
    /// pairs at once.
    pub fn sample(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        while start.elapsed() < GRAPH_SAMPLE {
            let t = Instant::now();
            std::hint::black_box(self.graph.search());
            self.graph_ns.push(t.elapsed().as_nanos() as f64);
        }
        let mut trace = Trace::new(Instant::now());
        let (request, reply) = self.frames;
        loopback_pingpong(&mut trace, None, request, reply, WIRE_EXCHANGES)?;
        self.wire_ns.extend(trace.durations_ns("loopback.rtt"));
        Ok(())
    }

    /// The median graph search so far (ns).
    pub fn graph_ns(&self) -> Option<f64> {
        median(&mut self.graph_ns.clone())
    }

    /// The median loopback round trip so far (ns).
    pub fn wire_ns(&self) -> Option<f64> {
        median(&mut self.wire_ns.clone())
    }

    /// The run's speed for graph work against its scale: above 1 when
    /// this run's host was faster. Multiply a time by it, or divide a
    /// rate by it, to put the figure on the scale.
    pub fn graph_factor(&self) -> Option<f64> {
        self.graph_ns().map(|ns| GRAPH_REFERENCE_NS / ns)
    }

    /// The run's speed for the wire against its scale, used as
    /// [`Speed::graph_factor`] is.
    pub fn wire_factor(&self) -> Option<f64> {
        self.wire_ns().map(|ns| WIRE_REFERENCE_NS / ns)
    }

    /// One line for the report: the factors and what they rest on.
    pub fn describe(&self) -> String {
        format!(
            "speed factors: graph {:.4} (median search {:.1} us of {}, scale {:.1} us), \
             wire {:.4} (median loopback round trip {:.2} us of {}, scale {:.2} us)",
            self.graph_factor().unwrap_or(f64::NAN),
            self.graph_ns().unwrap_or(f64::NAN) / 1e3,
            self.graph_ns.len(),
            GRAPH_REFERENCE_NS / 1e3,
            self.wire_factor().unwrap_or(f64::NAN),
            self.wire_ns().unwrap_or(f64::NAN) / 1e3,
            self.wire_ns.len(),
            WIRE_REFERENCE_NS / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searches_the_unit_disk_graph() {
        // A path 0 - 1 - 2 at unit spacing, and 3 out of everyone's reach.
        let pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (9.0, 9.0)].map(|(x, y)| Point { x, y });
        let mut g = GraphSearch::new(&pts, 1.0);
        assert_eq!(g.search(), 1 + 2);
        assert_eq!(g.hops, vec![0, 1, 2, u32::MAX]);
    }

    #[test]
    fn factors_need_samples() {
        let pts = [(0.0, 0.0), (1.0, 0.0)].map(|(x, y)| Point { x, y });
        let mut speed = Speed::new(&pts, 1.0);
        assert_eq!(speed.graph_factor(), None);
        assert_eq!(speed.wire_factor(), None);
        speed.sample().expect("loopback works");
        assert!(speed.graph_factor().is_some_and(|f| f > 0.0));
        assert!(speed.wire_factor().is_some_and(|f| f > 0.0));
    }
}
