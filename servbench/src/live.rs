//! The live traffic: closed-loop query clients over loopback TCP and
//! the idle-server `MOVE` probe.

use crate::check::{reply_matches, EpochOrder, Expected, Tally};
use crate::gen::MoveGen;
use crate::trace::Trace;
use sp_core::ServiceScheme;
use sp_serve::{ClientError, QueryReply, ServeClient};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Round-trip samples a client's buffer holds before it first grows:
/// a second of 10 µs round trips, well above the ~30k/s one client
/// reaches on a 2-CPU machine, so that recording does not reallocate
/// mid-window. The buffer is reused by every window, so it costs the
/// same memory (0.4 MB) however long the run is.
const SAMPLES_PER_WINDOW: usize = 100_000;
/// How long a client waits for any reply before counting a timeout.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One client connection with its pair pool and its checks.
pub struct Client<'a> {
    conn: ServeClient,
    pool: &'a [(u32, u32)],
    /// In-process answers on the served snapshot, index-aligned with
    /// `pool`, that every reply must reproduce; `None` on the probe's
    /// connections, whose answers change with every `MOVE`.
    pub expected: Option<&'a [Expected]>,
    cursor: usize,
    order: EpochOrder,
    /// Everything the server answered this client.
    pub tally: Tally,
    /// Operations sent.
    pub attempted: u64,
    /// Transport errors, timeouts and server error replies.
    pub failed: u64,
    /// Replies that failed a check.
    pub mismatches: u64,
    /// The first failed check or failed operation, for the report.
    pub first_problem: Option<String>,
    /// Tamper with the next reply before checking it (the canary).
    pub tamper_next: bool,
    dead: bool,
    /// Round-trip times of the last window's answered queries (ns).
    rtt_ns: Vec<u32>,
}

/// One acknowledged `MOVE` of the probe.
#[derive(Debug, Clone, Copy)]
pub struct MoveRecord {
    /// When the batch was sent.
    pub due: Instant,
    /// When its acknowledgement arrived.
    pub ack: Instant,
    /// When the reply to the query that followed it arrived, stamped at
    /// the batch's epoch or later.
    pub visible: Instant,
}

/// What one client saw in one measurement window, beyond the round
/// trips it keeps in [`Client::rtt_ns`].
#[derive(Debug, Default)]
pub struct WindowOut {
    /// Queries answered.
    pub queries: u64,
    /// Of those, delivered.
    pub delivered: u64,
    /// Hops over delivered queries.
    pub delivered_hops: u64,
    /// The window's wall time.
    pub elapsed: Duration,
    /// Per-query spans, when traced.
    pub trace: Option<Trace>,
}

impl<'a> Client<'a> {
    /// Connects one client that cycles through `pool`.
    pub fn connect(addr: SocketAddr, pool: &'a [(u32, u32)]) -> std::io::Result<Client<'a>> {
        let mut conn = ServeClient::connect(addr)?;
        conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            conn,
            pool,
            expected: None,
            cursor: 0,
            order: EpochOrder::default(),
            tally: Tally::default(),
            attempted: 0,
            failed: 0,
            mismatches: 0,
            first_problem: None,
            tamper_next: false,
            dead: false,
            rtt_ns: Vec::new(),
        })
    }

    /// The connection, for `STATS` after the run.
    pub fn conn(&mut self) -> &mut ServeClient {
        &mut self.conn
    }

    /// Round-trip times (ns) of the last window's answered queries.
    pub fn rtt_ns(&self) -> &[u32] {
        &self.rtt_ns
    }

    /// The highest epoch any reply on this connection carried.
    pub fn max_epoch(&self) -> u64 {
        self.order.max()
    }

    /// True once the connection failed at the transport level.
    pub fn dead(&self) -> bool {
        self.dead
    }

    fn problem(&mut self, what: String) {
        self.first_problem.get_or_insert(what);
    }

    fn fail(&mut self, err: &ClientError) {
        self.failed += 1;
        if !matches!(err, ClientError::Server { .. }) {
            self.dead = true;
        }
        self.problem(format!("operation failed: {err}"));
    }

    /// Sends the next query of the pool and checks the reply. Returns
    /// the reply and the times it was sent and answered.
    pub fn query(&mut self) -> Option<(QueryReply, Instant, Instant)> {
        let idx = self.cursor % self.pool.len();
        self.cursor += 1;
        let (src, dst) = self.pool[idx];
        self.attempted += 1;
        let sent = Instant::now();
        let result = self.conn.query(src, dst, ServiceScheme::Slgf2, false);
        let answered = Instant::now();
        let mut reply = match result {
            Ok(reply) => reply,
            Err(err) => {
                self.fail(&err);
                return None;
            }
        };
        if std::mem::take(&mut self.tamper_next) {
            // One bit of the length only: no other check looks at it,
            // so only the comparison with the in-process answer can
            // catch it.
            reply.length = f64::from_bits(reply.length.to_bits() ^ 1);
        }
        let mut verdict = self.order.admit(reply.epoch);
        if let (Ok(()), Some(expected)) = (&verdict, self.expected) {
            verdict = reply_matches(&expected[idx], &reply);
        }
        if let Err(what) = verdict {
            self.mismatches += 1;
            self.problem(format!("query {src}->{dst}: {what}"));
        }
        self.tally.queries += 1;
        if reply.delivered() {
            self.tally.delivered += 1;
        }
        Some((reply, sent, answered))
    }

    /// Sends one `MOVE` batch; returns the published epoch.
    pub fn send_move(&mut self, gen: &mut MoveGen) -> Option<u64> {
        let batch = gen.next_batch();
        self.attempted += 1;
        match self.conn.move_batch(&batch) {
            Ok((epoch, applied)) => {
                gen.apply(&batch);
                self.tally.move_batches += 1;
                if applied as usize != batch.len() {
                    self.mismatches += 1;
                    self.problem(format!(
                        "MOVE of {} nodes acknowledged {applied}",
                        batch.len()
                    ));
                }
                Some(epoch)
            }
            Err(err) => {
                self.fail(&err);
                None
            }
        }
    }

    /// Warm-up queries for `seconds`: checked and tallied, not timed.
    pub fn warm(&mut self, seconds: f64) {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        while !self.dead && Instant::now() < end {
            self.query();
        }
    }

    /// Runs the closed loop for `seconds` after every client reached
    /// `barrier`, recording a span per query when `trace_origin` is
    /// set.
    pub fn window(
        &mut self,
        seconds: f64,
        trace_origin: Option<Instant>,
        barrier: &Barrier,
    ) -> WindowOut {
        self.rtt_ns.clear();
        self.rtt_ns.reserve(SAMPLES_PER_WINDOW);
        let mut out = WindowOut {
            trace: trace_origin.map(|origin| Trace::with_capacity(origin, SAMPLES_PER_WINDOW)),
            ..WindowOut::default()
        };
        barrier.wait();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        while !self.dead && Instant::now() < end {
            let Some((reply, sent, answered)) = self.query() else {
                continue;
            };
            if let Some(trace) = out.trace.as_mut() {
                trace.record("client.query", None, sent, answered, 1);
            }
            self.rtt_ns
                .push((answered - sent).as_nanos().min(u32::MAX as u128) as u32);
            out.queries += 1;
            if reply.delivered() {
                out.delivered += 1;
                out.delivered_hops += reply.hops as u64;
            }
        }
        out.elapsed = start.elapsed();
        out
    }
}

/// A burst of the idle-server `MOVE` probe the `move_*` figures come
/// from: `count` batches back to back, each followed by one query on
/// the other connection of the same server. A batch is due when it is sent; it is visible when that
/// query's reply arrives, and the reply must carry the batch's epoch or
/// a later one.
pub fn probe_moves(
    writer: &mut Client<'_>,
    reader: &mut Client<'_>,
    gen: &mut MoveGen,
    count: usize,
) -> Vec<MoveRecord> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if writer.dead() || reader.dead() {
            break;
        }
        let due = Instant::now();
        let Some(epoch) = writer.send_move(gen) else {
            continue;
        };
        let ack = Instant::now();
        let Some((reply, _, visible)) = reader.query() else {
            continue;
        };
        if reply.epoch < epoch {
            reader.mismatches += 1;
            reader.problem(format!(
                "a query after the MOVE ack for epoch {epoch} was answered at epoch {}",
                reply.epoch
            ));
        }
        out.push(MoveRecord { due, ack, visible });
    }
    out
}
