//! Correctness checks on what the server sends back.
//!
//! Every check returns the first mismatch as a message; the benchmark
//! counts mismatches, prints the first one, reports `"correct": false`
//! and exits nonzero.

use sp_core::{RouteOutcome, ServiceAnswer};
use sp_geom::Point;
use sp_serve::{QueryReply, StatsSnapshot};

/// The in-process answer a wire reply must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// Epoch the answer was computed against.
    pub epoch: u64,
    /// Terminal route status.
    pub outcome: RouteOutcome,
    /// Hops walked.
    pub hops: u32,
    /// Bits of the Euclidean path length.
    pub length_bits: u64,
}

impl From<&ServiceAnswer> for Expected {
    fn from(a: &ServiceAnswer) -> Expected {
        Expected {
            epoch: a.epoch,
            outcome: a.outcome,
            hops: a.hops as u32,
            length_bits: a.length.to_bits(),
        }
    }
}

/// A reply to a query on a fixed snapshot must carry that snapshot's
/// epoch and the in-process answer's outcome, hop count and length
/// bits.
pub fn reply_matches(want: &Expected, got: &QueryReply) -> Result<(), String> {
    let got_bits = got.length.to_bits();
    if got.epoch != want.epoch
        || got.outcome != want.outcome
        || got.hops != want.hops
        || got_bits != want.length_bits
    {
        return Err(format!(
            "reply (epoch {}, {:?}, {} hops, length bits {:#x}) differs from the \
             in-process answer (epoch {}, {:?}, {} hops, length bits {:#x})",
            got.epoch,
            got.outcome,
            got.hops,
            got_bits,
            want.epoch,
            want.outcome,
            want.hops,
            want.length_bits
        ));
    }
    Ok(())
}

/// Per-connection epoch order: epochs never decrease from one reply to
/// the next.
#[derive(Debug, Default, Clone)]
pub struct EpochOrder {
    last: u64,
    max: u64,
}

impl EpochOrder {
    /// Admits the next reply's epoch. Each decrease is reported once:
    /// the order then continues from the lower epoch.
    pub fn admit(&mut self, epoch: u64) -> Result<(), String> {
        let last = std::mem::replace(&mut self.last, epoch);
        self.max = self.max.max(epoch);
        if epoch < last {
            return Err(format!(
                "reply epoch {epoch} after epoch {last} on one connection"
            ));
        }
        Ok(())
    }

    /// The highest epoch admitted so far.
    pub fn max(&self) -> u64 {
        self.max
    }
}

/// No reply may carry an epoch the service never reached.
pub fn epoch_within(max_seen: u64, final_epoch: u64) -> Result<(), String> {
    if max_seen > final_epoch {
        return Err(format!(
            "a reply carried epoch {max_seen}, beyond the final epoch {final_epoch}"
        ));
    }
    Ok(())
}

/// The served positions must equal the `MOVE` generator's mirror.
pub fn positions_match(served: &[Point], mirror: &[Point]) -> Result<(), String> {
    if served.len() != mirror.len() {
        return Err(format!(
            "server holds {} positions, the mirror {}",
            served.len(),
            mirror.len()
        ));
    }
    for (i, (s, m)) in served.iter().zip(mirror).enumerate() {
        if s.x.to_bits() != m.x.to_bits() || s.y.to_bits() != m.y.to_bits() {
            return Err(format!(
                "node {i} is served at ({}, {}) but was moved to ({}, {})",
                s.x, s.y, m.x, m.y
            ));
        }
    }
    Ok(())
}

/// The client side's count of everything it had answered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Queries answered with a `QUERY` reply.
    pub queries: u64,
    /// Of those, replies reporting delivery.
    pub delivered: u64,
    /// `MOVE` batches acknowledged.
    pub move_batches: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.queries += o.queries;
        self.delivered += o.delivered;
        self.move_batches += o.move_batches;
    }
}

/// `STATS` must count exactly what the clients were answered.
pub fn stats_match(stats: &StatsSnapshot, tally: &Tally) -> Result<(), String> {
    let server = Tally {
        queries: stats.queries,
        delivered: stats.delivered,
        move_batches: stats.move_batches,
    };
    if server != *tally {
        return Err(format!(
            "STATS counted {server:?}, the clients were answered {tally:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_net::NodeId;

    fn reply(epoch: u64, hops: u32, length: f64) -> QueryReply {
        QueryReply {
            epoch,
            outcome: RouteOutcome::Delivered,
            hops,
            length,
            perimeter: 0,
            backup: 0,
            path: None,
        }
    }

    fn expected() -> Expected {
        Expected {
            epoch: 0,
            outcome: RouteOutcome::Delivered,
            hops: 5,
            length_bits: 61.25f64.to_bits(),
        }
    }

    #[test]
    fn an_identical_reply_passes() {
        assert!(reply_matches(&expected(), &reply(0, 5, 61.25)).is_ok());
    }

    #[test]
    fn every_tampered_field_is_caught() {
        let want = expected();
        assert!(reply_matches(&want, &reply(1, 5, 61.25)).is_err());
        assert!(reply_matches(&want, &reply(0, 6, 61.25)).is_err());
        let one_bit = f64::from_bits(61.25f64.to_bits() ^ 1);
        assert!(reply_matches(&want, &reply(0, 5, one_bit)).is_err());
        let mut stuck = reply(0, 5, 61.25);
        stuck.outcome = RouteOutcome::Stuck(NodeId(3));
        assert!(reply_matches(&want, &stuck).is_err());
    }

    #[test]
    fn epochs_may_repeat_but_never_fall() {
        let mut order = EpochOrder::default();
        assert!(order.admit(0).is_ok());
        assert!(order.admit(2).is_ok());
        assert!(order.admit(2).is_ok());
        assert!(order.admit(1).is_err());
        assert!(order.admit(1).is_ok(), "one decrease is reported once");
        assert_eq!(order.max(), 2);
        assert!(epoch_within(2, 2).is_ok());
        assert!(epoch_within(3, 2).is_err());
    }

    #[test]
    fn a_moved_node_the_mirror_missed_is_caught() {
        let a = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let mut b = a.clone();
        assert!(positions_match(&a, &b).is_ok());
        b[1] = Point::new(3.0, 4.5);
        assert!(positions_match(&a, &b).is_err());
    }

    #[test]
    fn stats_must_match_the_tally() {
        let stats = StatsSnapshot {
            queries: 10,
            delivered: 9,
            move_batches: 2,
            ..StatsSnapshot::default()
        };
        let mut tally = Tally {
            queries: 10,
            delivered: 9,
            move_batches: 2,
        };
        assert!(stats_match(&stats, &tally).is_ok());
        tally.delivered = 8;
        assert!(stats_match(&stats, &tally).is_err());
    }
}
