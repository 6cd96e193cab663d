//! The TCP front end: thread-per-core blocking workers behind a bounded
//! admission queue.
//!
//! One detached reader thread per connection parses lines off the socket
//! and offers them to a bounded `JobQueue`. A fixed pool of worker
//! threads (default: one per core) drains the queue, dispatches through
//! [`crate::state::handle`], and writes the response line back through the
//! connection's shared writer. When the queue is full the *reader* writes
//! the load-shed response directly — admission control rejects at the edge
//! instead of letting latency collapse under unbounded buffering.
//!
//! Mutations (`add_source`, `apply_feedback`) never run on the worker
//! pool: each gets a detached thread so a multi-second snapshot rebuild
//! cannot sit ahead of reads in the queue. Readers keep answering on the
//! old snapshot for the whole rebuild and only ever see atomic publishes.
//! The mutation thread frees the superseded snapshot only after its reply
//! is written, so the client never waits for that.
//!
//! No clocks are read here: latency is the client's to measure (the bench
//! harness owns the stopwatch), and the serving path stays inside the
//! workspace's no-raw-time perimeter.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{Builder, JoinHandle};

use crate::proto::{error_response, parse_request, shed_response};
use crate::state::{handle, respond, ServeState};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks a free port; read it back via
    /// [`Server::addr`].
    pub addr: String,
    /// Worker threads. `0` means one per available core.
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it are shed.
    pub queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_cap: 256,
        }
    }
}

/// One admitted request: the raw line plus the connection's shared writer.
struct Job {
    line: String,
    out: Arc<Mutex<TcpStream>>,
}

/// Outcome of offering a job to the queue.
enum Push {
    Queued,
    Full(Job),
    Closed,
}

/// Bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`, capacity-checked at
/// push so admission control happens before any worker is involved.
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn try_push(&self, job: Job) -> Push {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Push::Closed;
        }
        if inner.jobs.len() >= self.cap {
            return Push::Full(job);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Push::Queued
    }

    /// Blocks until a job is available; `None` once sealed and drained.
    // Named `next_job` (not `pop`) for the same aliasing reason as `seal`:
    // `.pop()` is everywhere in string/vec code, and this method blocks.
    fn next_job(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    // Named `seal` (not `close`) so the workspace call graph's
    // method-name over-approximation cannot alias it with the ubiquitous
    // `udi_obs::Span::close` — the hot-path certificate would otherwise
    // pull the whole shutdown path into every span-using summary.
    fn seal(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }
}

/// A running server. Dropping it shuts the listener and workers down.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<JobQueue>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue").field("cap", &self.cap).finish()
    }
}

impl Server {
    /// Binds, spawns the accept loop and the worker pool, and returns.
    pub fn start(state: ServeState, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(JobQueue::new(config.queue_cap));
        let stop = Arc::new(AtomicBool::new(false));

        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(2)
        } else {
            config.workers
        };
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let queue = queue.clone();
            let state = state.clone();
            let handle = Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&state, &queue))?;
            workers.push(handle);
        }

        let accept = {
            let queue = queue.clone();
            let state = state.clone();
            let stop = stop.clone();
            Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &state, &queue, &stop))?
        };

        Ok(Server {
            addr,
            stop,
            queue,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the queue, and joins the worker pool.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.seal();
        // Unblock the accept loop with a throwaway connection.
        TcpStream::connect(self.addr).ok();
        if let Some(accept) = self.accept.take() {
            accept.join().ok();
        }
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &ServeState,
    queue: &Arc<JobQueue>,
    stop: &Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        state.recorder().count("serve.connections", 1);
        let state = state.clone();
        let queue = queue.clone();
        // Reader threads are detached: they exit when the client hangs up
        // or the queue closes, so shutdown need not chase them.
        Builder::new()
            .name("serve-conn".to_owned())
            .spawn(move || connection_loop(stream, &state, &queue))
            .ok();
    }
}

fn connection_loop(stream: TcpStream, state: &ServeState, queue: &Arc<JobQueue>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(write_half));
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match queue.try_push(Job {
            line,
            out: out.clone(),
        }) {
            Push::Queued => {}
            Push::Full(job) => {
                // Admission control: reject at the edge, synchronously.
                state.recorder().count("serve.shed", 1);
                if write_line(&job.out, &shed_response().render()).is_err() {
                    break;
                }
            }
            Push::Closed => break,
        }
    }
}

fn worker_loop(state: &ServeState, queue: &Arc<JobQueue>) {
    while let Some(job) = queue.next_job() {
        match parse_request(&job.line) {
            // Mutations rebuild a whole snapshot — minutes of CPU at large
            // corpus sizes. Running them on the worker pool would put a
            // refresh ahead of reads in the queue (head-of-line blocking),
            // so they get their own detached thread; the tenant's mutate
            // lock already serializes concurrent rebuilds.
            Ok(req)
                if matches!(
                    req.op,
                    crate::proto::Op::AddSource | crate::proto::Op::ApplyFeedback
                ) =>
            {
                let owned = state.clone();
                let spawned = Builder::new()
                    .name("serve-mutate".to_owned())
                    .spawn(move || {
                        let (response, superseded) = respond(&owned, &req);
                        if write_line(&job.out, &response.render()).is_err() {
                            owned.recorder().count("serve.write_error", 1);
                        }
                        drop(superseded);
                    });
                if spawned.is_err() {
                    state.recorder().count("serve.write_error", 1);
                }
            }
            Ok(req) => {
                let response = handle(state, &req).render();
                if write_line(&job.out, &response).is_err() {
                    state.recorder().count("serve.write_error", 1);
                }
            }
            Err(e) => {
                state.recorder().count("serve.bad_request", 1);
                let response = error_response(None, &e.to_string()).render();
                if write_line(&job.out, &response).is_err() {
                    state.recorder().count("serve.write_error", 1);
                }
            }
        }
    }
}

/// Parses and dispatches one request line, returning the response line
/// (without the trailing newline). Malformed lines become error responses
/// rather than dropped connections, so one bad client request cannot
/// poison a pipelined stream.
pub fn handle_line(state: &ServeState, line: &str) -> String {
    match parse_request(line) {
        Ok(req) => handle(state, &req).render(),
        Err(e) => {
            state.recorder().count("serve.bad_request", 1);
            error_response(None, &e.to_string()).render()
        }
    }
}

fn write_line(out: &Arc<Mutex<TcpStream>>, line: &str) -> io::Result<()> {
    let mut stream = out.lock().unwrap_or_else(PoisonError::into_inner);
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn tiny_state() -> ServeState {
        use udi_core::{UdiConfig, UdiSystem};
        use udi_store::{Catalog, Table};
        let mut catalog = Catalog::new();
        let mut t = Table::new("s1", ["name", "phone"]);
        t.push_raw_row(["Alice", "123"]).unwrap();
        catalog.add_source(t).unwrap();
        let state = ServeState::new();
        state.register_tenant(
            "t0",
            UdiSystem::setup(catalog, UdiConfig::default()).unwrap(),
        );
        state
    }

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for line in lines {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.flush().unwrap();
        let reader = BufReader::new(stream);
        reader
            .lines()
            .take(lines.len())
            .map(|l| l.unwrap())
            .collect()
    }

    #[test]
    fn serves_answers_over_tcp() {
        let state = tiny_state();
        let server = Server::start(state.clone(), ServerConfig::default()).unwrap();
        let replies = roundtrip(
            server.addr(),
            &[
                r#"{"op":"answer","tenant":"t0","id":1,"query":"SELECT name FROM people WHERE name = 'Alice'"}"#,
                r#"{"op":"stats","tenant":"t0","id":2}"#,
            ],
        );
        assert_eq!(replies.len(), 2);
        // Two workers may answer pipelined requests in either order; the
        // `id` ties each reply to its request.
        let by_id = |id: &str| replies.iter().find(|r| r.contains(id)).cloned();
        let answer = by_id(r#""id":1"#).expect("reply to request 1");
        assert!(answer.contains(r#""ok":true"#), "{answer}");
        assert!(by_id(r#""id":2"#).is_some(), "{replies:?}");
    }

    #[test]
    fn malformed_lines_get_error_responses_not_hangups() {
        let state = tiny_state();
        let server = Server::start(state.clone(), ServerConfig::default()).unwrap();
        let replies = roundtrip(
            server.addr(),
            &[
                "this is not json",
                r#"{"op":"answer","tenant":"t0","id":9,"query":"SELECT name FROM people"}"#,
            ],
        );
        assert!(replies[0].contains(r#""ok":false"#));
        assert!(replies[1].contains(r#""id":9"#), "{}", replies[1]);
        assert!(state.counters().get("serve.bad_request") >= 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_cleanly() {
        let state = tiny_state();
        let mut server = Server::start(state, ServerConfig::default()).unwrap();
        server.shutdown();
        server.shutdown();
    }
}
