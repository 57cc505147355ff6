//! `servbench`: the serving benchmark.
//!
//! It starts an `sp-serve` server in process over a 10⁴-node
//! deployment, drives it over loopback TCP with closed-loop query
//! clients, probes `MOVE` latency on a server of its own, checks every
//! answer, and reports end-to-end metrics, with timings scaled by a
//! machine-speed reference timed in the same run. A traced run adds
//! per-layer metrics from spans the benchmark records around calls into
//! each layer. See `README.md` beside this crate for the workloads and
//! the metric map.

pub mod calib;
pub mod check;
pub mod gen;
pub mod layers;
pub mod live;
pub mod procfs;
pub mod stats;
pub mod trace;
