//! Load generation: closed-loop readers and the publishing writer.
//!
//! Readers are a closed loop: each client sends its next request only
//! after the previous response arrived, as application servers and
//! dashboards that wait for their reply do. Every window ends on the
//! clock; a request in flight at the deadline is waited for, counted, and
//! the time it ran past the deadline reported as overrun.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use udi_core::{SetupReport, UdiSystem};
use udi_serve::ServeState;

use crate::host::{self, Timing};
use crate::inputs::{shuffle, Mutation, Rng};
use crate::layers::Replay;
use crate::wire::{
    add_source_line, answer_line, feedback_line, outcome, Client, Outcome, ReadReq, TENANT,
};

/// One sampled response, with the snapshot of the generation it reports,
/// on its way to the checker.
pub struct Sample {
    /// Index of the request in the workload's read list.
    pub req: usize,
    /// The whole response line.
    pub response: String,
    /// The published snapshot whose engine generation the response
    /// reports.
    pub snapshot: Arc<UdiSystem>,
}

/// What one reader client saw.
#[derive(Default)]
pub struct ReadLog {
    /// Client-observed latency of each request, in ms. A failed or shed
    /// request counts as [`ReadPlan::miss_ms`], so it misses every
    /// latency limit instead of dropping out of the quantiles.
    pub lat_ms: Vec<f64>,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with `ok: false` or unreadable.
    pub failed: u64,
    /// Requests load-shed.
    pub shed: u64,
    /// When the last response arrived.
    pub last: Option<Instant>,
}

/// How each reader walks the workload's request list.
#[derive(Debug, Clone, Copy)]
pub enum Walk {
    /// Client `c` of `n` walks the list in order from `c / n` of the way
    /// in, so no text repeats until the list is used up.
    Straight,
    /// Each client sends every request once per round, in a fresh order
    /// per round drawn from the seed, so every request is sent equally
    /// often and which requests run side by side varies from round to
    /// round.
    Rounds(u64),
}

/// What the readers of one window share.
pub struct ReadPlan<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// The served state, for the snapshots sampled responses report.
    pub state: &'a ServeState,
    /// The workload's requests.
    pub reads: &'a [ReadReq],
    /// How each reader walks them.
    pub walk: Walk,
    /// Readers in the window.
    pub clients: usize,
    /// When the window ends.
    pub deadline: Instant,
    /// Requests the readers complete together, at least: if the deadline
    /// comes first, they go on until they have, or until `hard_stop`.
    pub min_reads: usize,
    /// When the readers stop whatever their count.
    pub hard_stop: Instant,
    /// Requests the readers have completed so far.
    pub completed: AtomicUsize,
    /// Latency recorded for a failed or shed request, in ms.
    pub miss_ms: f64,
    /// Least time between two sampled responses of one reader.
    pub gap: Duration,
}

impl ReadPlan<'_> {
    /// Whether the readers should send another request.
    fn running(&self) -> bool {
        let now = Instant::now();
        now < self.deadline
            || (now < self.hard_stop && self.completed.load(Ordering::Relaxed) < self.min_reads)
    }
}

/// Runs closed-loop client `c` of `plan` until the deadline, or past it
/// until the readers have completed `plan.min_reads`. Whenever
/// `plan.gap` has passed since the last sample, a response goes to
/// `samples` for checking, together with the snapshot the state publishes
/// for the generation the response reports; a response whose generation
/// was superseded before the snapshot could be taken is passed over.
pub fn read_loop(
    plan: &ReadPlan,
    c: usize,
    samples: &Sender<Sample>,
    mut replay: Option<&mut Replay>,
) -> Result<ReadLog, String> {
    let (reads, state) = (plan.reads, plan.state);
    let mut client = Client::connect(plan.addr)?;
    let mut log = ReadLog::default();
    let mut last_sample: Option<Instant> = None;
    let n = reads.len().max(1);
    let (mut next, seed) = match plan.walk {
        Walk::Straight => (c * n / plan.clients.max(1), 0),
        Walk::Rounds(seed) => (0, seed),
    };
    let mut round: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed, 100 + c as u64);
    let mut id = (c as u64) << 32;
    while plan.running() {
        let idx = match plan.walk {
            Walk::Straight => next % n,
            Walk::Rounds(_) => {
                if next % n == 0 {
                    shuffle(&mut round, &mut rng);
                }
                round.get(next % n).copied().unwrap_or(0)
            }
        };
        next += 1;
        let Some(req) = reads.get(idx) else {
            return Err("empty read mix".to_owned());
        };
        id += 1;
        let line = answer_line(id, req);
        let t = Instant::now();
        let response = client.exchange(&line)?;
        let done = Instant::now();
        log.attempted += 1;
        log.last = Some(done);
        plan.completed.fetch_add(1, Ordering::Relaxed);
        match outcome(&response) {
            Outcome::Ok(generation) => {
                let ms = (done - t).as_secs_f64() * 1e3;
                log.lat_ms.push(ms);
                log.ok += 1;
                if let Some(r) = replay.as_deref_mut() {
                    r.replay(id, &line, req, ms)?;
                }
                if last_sample.is_none_or(|t| done - t >= plan.gap) {
                    let snapshot = state.tenant(TENANT).ok_or("tenant vanished")?.snapshot();
                    if snapshot.engine().generation() == generation {
                        last_sample = Some(done);
                        samples
                            .send(Sample {
                                req: idx,
                                response,
                                snapshot,
                            })
                            .map_err(|_| "sample checker stopped".to_owned())?;
                    }
                }
            }
            Outcome::Shed => {
                log.shed += 1;
                log.lat_ms.push(plan.miss_ms);
            }
            Outcome::Failed => {
                log.failed += 1;
                log.lat_ms.push(plan.miss_ms);
            }
        }
    }
    Ok(log)
}

/// What the writer saw.
#[derive(Default)]
pub struct WriteLog {
    /// Time from sending each mutation to its `ok` response, in ms; a
    /// failed mutation counts as the `miss_ms` given to [`write_loop`].
    pub publish_ms: Vec<Timing>,
    /// Mutations sent.
    pub attempted: u64,
    /// Mutations answered with anything but `ok`.
    pub failed: u64,
    /// The setup report of each published snapshot.
    pub reports: Vec<SetupReport>,
}

/// Publishes the first `limit` of `mutations` in order, back to back. The
/// publish generation must advance by exactly one per mutation.
pub fn write_loop(
    addr: SocketAddr,
    state: &ServeState,
    mutations: &[Mutation],
    limit: usize,
    miss_ms: f64,
) -> Result<WriteLog, String> {
    let mut client = Client::connect(addr)?;
    let mut log = WriteLog::default();
    let mut generation = state.tenant(TENANT).ok_or("tenant vanished")?.generation();
    for (n, m) in mutations.iter().take(limit).enumerate() {
        let id = 1 + n as u64;
        let line = match m {
            Mutation::AddSource(table) => add_source_line(id, table),
            Mutation::Feedback { same, different } => feedback_line(id, same, different),
        };
        let (response, took) = host::timed(|| client.exchange(&line));
        let response = response?;
        log.attempted += 1;
        match outcome(&response) {
            Outcome::Ok(published) => {
                if published != generation + 1 {
                    return Err(format!(
                        "mutation {id} published generation {published}, expected {}",
                        generation + 1
                    ));
                }
                generation = published;
                log.publish_ms.push(Timing {
                    wall: took.wall * 1e3,
                    steal_free: took.steal_free * 1e3,
                });
                let snap = state.tenant(TENANT).ok_or("tenant vanished")?.snapshot();
                log.reports.push(snap.report().clone());
            }
            _ => {
                log.failed += 1;
                log.publish_ms.push(Timing {
                    wall: miss_ms,
                    steal_free: miss_ms,
                });
            }
        }
    }
    Ok(log)
}

/// How far past `deadline` the last of `ends` came, in ms (0 if none did).
pub fn overrun_ms(deadline: Instant, ends: impl IntoIterator<Item = Option<Instant>>) -> f64 {
    ends.into_iter()
        .flatten()
        .map(|e| e.saturating_duration_since(deadline))
        .max()
        .unwrap_or(Duration::ZERO)
        .as_secs_f64()
        * 1e3
}
