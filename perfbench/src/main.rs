//! `udi-perfbench`: client-observed end-to-end and per-layer benchmark of
//! the UDI query server.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload car-read --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process generates the workload's inputs from the seed, sets the
//! system up several times (`setup_s` is the median), serves it in-process
//! over real TCP with the server's default worker count, checks that
//! answers over the wire are byte-identical to the library's, drives
//! closed-loop clients for the window, publishes mutations, checks sampled
//! responses against the generation they report, and prints every metric.
//! With `--trace 1` it measures the per-layer metrics instead (see
//! `layers.rs`). The last line of standard output is the result as one
//! JSON object. A failed check exits non-zero without printing a result.
//! `perfbench/NOTES.md` describes the workloads, metrics and layers.

mod check;
mod drive;
mod host;
mod inputs;
mod layers;
mod stats;
mod wire;

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::AtomicUsize;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use udi_core::{SetupReport, UdiConfig, UdiSystem};
use udi_serve::{ServeState, Server, ServerConfig};
use udi_store::Catalog;

use crate::drive::{overrun_ms, read_loop, write_loop, ReadLog, ReadPlan, Walk, WriteLog};
use crate::host::Timing;
use crate::inputs::{Inputs, Workload};
use crate::layers::{LayerSink, Replay, SinkTotals, Spans};
use crate::stats::{beyond, median, quantile, Metrics};
use crate::wire::{answer_line, outcome, Client, Outcome, TENANT};

const USAGE: &str = "usage: udi-perfbench --workload <car-read|movie-point|scale-setup> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Responses sampled for checking per window and reader, at most.
const SAMPLES_PER_WINDOW: f64 = 8.0;

/// Reads an untraced window completes at least, so that `read_p99_ms` has
/// ten samples beyond it: of `n` distinct latencies, `(n - 1) -
/// floor(0.99 (n - 1))` lie above the interpolated p99, which first
/// reaches 10 at `n = 902`.
const MIN_READS: usize = 902;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Only time this many set-ups in this process, after one untimed, and
    /// print them: how the benchmark times set-ups apart from the process
    /// that serves.
    setups: Option<usize>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut setups = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--setups" => setups = Some(value.parse().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
            setups,
        })
    }
}

/// When the process started, as far as progress lines are concerned.
fn started() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Prints a progress line stamped with the seconds since the run began.
pub fn say(msg: impl std::fmt::Display) {
    println!("[{:7.2}s] {msg}", started().elapsed().as_secs_f64());
}

fn main() -> ExitCode {
    started();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("udi-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.setups {
        return match timed_setups(&inputs::corpus(args.workload), n) {
            Ok(times) => {
                for t in times {
                    println!("setup_s {} {}", t.steal_free, t.wall);
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("udi-perfbench: FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("udi-perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// How a workload loads the server.
struct Shape {
    /// Closed-loop reader clients in the window.
    readers: usize,
    /// Mutations published after the window on the otherwise idle server.
    publishes: usize,
    /// Set-ups timed in a fresh process before serving, and as many again
    /// after it.
    setups_each_side: usize,
    /// Whether the identity check runs on a system of its own, leaving the
    /// served tenant's plan cache cold, and readers walk the request list
    /// straight so texts do not repeat. Otherwise the check runs on the
    /// served tenant and doubles as the warm-up, and readers send the mix
    /// in seeded rounds.
    cold: bool,
}

impl Shape {
    fn walk(&self, seed: u64) -> Walk {
        if self.cold {
            Walk::Straight
        } else {
            Walk::Rounds(seed)
        }
    }
}

fn shape(w: Workload) -> Shape {
    match w {
        Workload::CarRead => Shape {
            readers: 2,
            publishes: 12,
            setups_each_side: 1,
            cold: false,
        },
        Workload::MoviePoint => Shape {
            readers: 2,
            publishes: 24,
            setups_each_side: 8,
            cold: true,
        },
        Workload::ScaleSetup => Shape {
            readers: 2,
            publishes: 7,
            setups_each_side: 1,
            cold: false,
        },
    }
}

/// Sets `corpus` up with the default configuration.
fn setup(corpus: Catalog) -> Result<UdiSystem, String> {
    UdiSystem::setup(corpus, UdiConfig::default()).map_err(|e| format!("setup: {e}"))
}

/// Sets up copies of `corpus` `n + 1` times, each system dropped before the
/// next set-up starts, and returns the times of the last `n`. The first
/// set-up in a process pays for fresh memory (0.3–0.6 s more on Car, and
/// the part most exposed to slow phases of the host); the later ones reuse
/// it and start from the same heap state, so their median is steady.
fn timed_setups(corpus: &Catalog, n: usize) -> Result<Vec<Timing>, String> {
    let mut times = (0..=n)
        .map(|_| {
            let copy = corpus.clone();
            let (sys, t) = host::timed(|| setup(copy));
            sys.map(|_| t)
        })
        .collect::<Result<Vec<_>, String>>()?;
    times.remove(0);
    Ok(times)
}

/// Everything one window produced.
struct Window {
    reads: Vec<ReadLog>,
    /// Sampled responses checked against their generation.
    checked: usize,
    start: Instant,
    deadline: Instant,
    spans: Vec<Spans>,
}

impl Window {
    /// Every request's latency; failed and shed ones count as misses.
    fn latencies(&self) -> Vec<f64> {
        self.reads
            .iter()
            .flat_map(|r| r.lat_ms.iter().copied())
            .collect()
    }

    /// Successful reads.
    fn ok(&self) -> u64 {
        self.reads.iter().map(|r| r.ok).sum()
    }

    /// Seconds from the start to the last read response.
    fn elapsed(&self) -> f64 {
        self.reads
            .iter()
            .filter_map(|r| r.last)
            .max()
            .unwrap_or(self.deadline)
            .saturating_duration_since(self.start)
            .as_secs_f64()
    }
}

/// The server under load plus what the window needs to drive it.
struct Bench<'a> {
    server: &'a Server,
    state: &'a ServeState,
    inputs: &'a Inputs,
    shape: &'a Shape,
    walk: Walk,
    /// Latency a failed or shed operation counts as, in ms.
    miss_ms: f64,
}

impl Bench<'_> {
    /// Drives the readers for `secs`, and past that until they have
    /// completed `min_reads` requests (for at most `secs` more). With
    /// `replay`, each reader re-runs its requests in process on that
    /// replica's state, timing the serving layers.
    fn window(
        &self,
        secs: f64,
        min_reads: usize,
        replay: Option<&ServeState>,
    ) -> Result<Window, String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let readers = self.shape.readers;
        let mut replays: Vec<Option<Replay>> = (0..readers)
            .map(|_| replay.map(|s| Replay::new(s.clone(), start)))
            .collect();
        let plan = ReadPlan {
            addr: self.server.addr(),
            state: self.state,
            reads: &self.inputs.reads,
            walk: self.walk,
            clients: readers,
            deadline,
            min_reads,
            hard_stop: deadline + Duration::from_secs_f64(secs),
            completed: AtomicUsize::new(0),
            miss_ms: self.miss_ms,
            gap: Duration::from_secs_f64(secs / SAMPLES_PER_WINDOW),
        };
        let (samples_tx, samples_rx) = mpsc::channel::<drive::Sample>();
        let (reads, checked) = std::thread::scope(|scope| {
            // Sampled responses are checked as they arrive, so no superseded
            // snapshot outlives its check.
            let checker = scope.spawn(move || {
                let mut n = 0usize;
                for s in samples_rx {
                    check::sample(&s, &self.inputs.reads)?;
                    n += 1;
                }
                Ok::<_, String>(n)
            });
            let handles: Vec<_> = replays
                .iter_mut()
                .enumerate()
                .map(|(c, replay)| {
                    let tx = samples_tx.clone();
                    let plan = &plan;
                    scope.spawn(move || read_loop(plan, c, &tx, replay.as_mut()))
                })
                .collect();
            drop(samples_tx);
            let reads: Vec<Result<ReadLog, String>> = handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "reader panicked".to_owned())?)
                .collect();
            // A failed check stops the checker, which then fails the
            // readers' sends: report the check, not the send.
            let checked = checker
                .join()
                .map_err(|_| "checker panicked".to_owned())??;
            let reads = reads.into_iter().collect::<Result<Vec<_>, String>>()?;
            Ok::<_, String>((reads, checked))
        })?;
        Ok(Window {
            reads,
            checked,
            start,
            deadline,
            spans: replays.into_iter().flatten().map(|r| r.spans).collect(),
        })
    }

    /// Publishes the workload's mutations on the otherwise idle server.
    fn publish(&self) -> Result<WriteLog, String> {
        write_loop(
            self.server.addr(),
            self.state,
            &self.inputs.mutations,
            self.shape.publishes,
            self.miss_ms,
        )
    }

    /// Sends each distinct request once, so plan caches are warm.
    fn warm_up(&self) -> Result<(), String> {
        let mut client = Client::connect(self.server.addr())?;
        let distinct: BTreeSet<_> = self.inputs.reads.iter().collect();
        for (i, req) in distinct.into_iter().enumerate() {
            let response = client.exchange(&answer_line(i as u64, req))?;
            if !matches!(outcome(&response), Outcome::Ok(_)) {
                return Err(format!("warm-up request failed: {response:.200}"));
            }
        }
        Ok(())
    }
}

/// Runs the identity check on `state`'s tenant, served at `addr`.
fn identity(addr: SocketAddr, state: &ServeState, inputs: &mut Inputs) -> Result<usize, String> {
    let sys = state.tenant(TENANT).ok_or("tenant vanished")?.snapshot();
    check::identity(addr, &sys, &mut inputs.reads, &inputs.reserve)
}

/// Runs the identity check on `state`'s tenant behind a server of its own,
/// which stops when the check ends.
fn identity_apart(state: &ServeState, inputs: &mut Inputs) -> Result<usize, String> {
    let server = Server::start(state.clone(), ServerConfig::default())
        .map_err(|e| format!("start check server: {e}"))?;
    identity(server.addr(), state, inputs)
}

/// The steal-free times of `times`.
fn steal_free(times: &[Timing]) -> Vec<f64> {
    times.iter().map(|t| t.steal_free).collect()
}

/// Prints `times`, multiplied by `scale`: steal-free, then wall.
fn show(label: &str, times: &[Timing], scale: f64) {
    let fmt = |f: fn(&Timing) -> f64| {
        let v: Vec<String> = times
            .iter()
            .map(|t| format!("{:.3}", f(t) * scale))
            .collect();
        v.join(" ")
    };
    say(format!(
        "{label}: steal-free {}; wall {}",
        fmt(|t| t.steal_free),
        fmt(|t| t.wall)
    ));
}

/// What every run reports, whatever it measures.
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Counts the run's attempted and failed operations, and prints its
/// windows, publishes and checks.
fn tally(windows: &[&Window], publishes: &WriteLog) -> Tally {
    let checked: usize = windows.iter().map(|w| w.checked).sum();
    let reads = windows.iter().flat_map(|w| w.reads.iter());
    let attempted = reads.clone().map(|r| r.attempted).sum::<u64>() + publishes.attempted;
    let failed = reads.map(|r| r.failed + r.shed).sum::<u64>() + publishes.failed;
    show("publishes (s)", &publishes.publish_ms, 1e-3);
    for w in windows {
        let lat = w.latencies();
        say(format!(
            "window: {:.3} s, overran by {:.1} ms; {} reads, {} ok ({} beyond p99)",
            w.elapsed(),
            overrun_ms(w.deadline, w.reads.iter().map(|r| r.last)),
            lat.len(),
            w.ok(),
            beyond(&lat, 0.99),
        ));
    }
    say(format!(
        "checks: {checked} sampled responses match their generation's library answer; \
         failed share {:.6} of {attempted}",
        failed as f64 / attempted.max(1) as f64
    ));
    Tally { attempted, failed }
}

fn run(args: &Args) -> Result<String, String> {
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    // `ServerConfig::default()` runs one worker per available core.
    let workers = host_cores;
    let mut shape = shape(args.workload);
    shape.readers = shape.readers.min(host_cores);
    let clients = shape.readers;
    let mut inputs = inputs::build(args.workload, args.seed)?;
    let (sources, rows) = (inputs.corpus.source_count(), inputs.corpus.total_rows());
    say(format!(
        "udi-perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    say(format!(
        "facts: host_cores {host_cores}, server workers {workers}, clients {clients}, seed {}, \
         sources {sources}, rows {rows}, read requests {}, mutations {}",
        args.seed,
        inputs.reads.len(),
        inputs.mutations.len()
    ));
    let (metrics, tally) = if args.trace {
        traced(args, &shape, &mut inputs)?
    } else {
        untraced(args, &shape, &mut inputs)?
    };
    metrics.print_table();
    Ok(metrics.result_line(tally.attempted.max(1), tally.failed))
}

/// Times `n` set-ups of `args`'s workload in a child process of this
/// binary, and waits for it to end.
fn setups_apart(args: &Args, n: usize) -> Result<Vec<Timing>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            "0",
            "--seconds",
            "0",
        ])
        .args(["--setups", &n.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    let times: Vec<Timing> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| {
            let (steal_free, wall) = l.strip_prefix("setup_s ")?.split_once(' ')?;
            Some(Timing {
                steal_free: steal_free.parse().ok()?,
                wall: wall.parse().ok()?,
            })
        })
        .collect();
    if times.len() != n {
        return Err(format!(
            "set-up process timed {} of {n} set-ups",
            times.len()
        ));
    }
    Ok(times)
}

/// The end-to-end run: tracing off.
///
/// `setup_s` is the median steal-free time (see `host.rs`) of set-ups timed
/// in fresh child processes, half before serving and half after it, so host
/// load that drifts during the run reaches them alike, and every one starts
/// from the same heap state. (Set-ups timed in this process after serving
/// ran 15–45 % slower in the heap the server left behind, so the median
/// jumped between the two groups.) The served set-up consumes the corpus,
/// so while serving the process holds only what the program holds: the
/// served system and, while publishing, its clone. `peak_rss_mib` is
/// sampled over that phase alone.
fn untraced(args: &Args, shape: &Shape, inputs: &mut Inputs) -> Result<(Metrics, Tally), String> {
    let mut setups = setups_apart(args, shape.setups_each_side)?;
    let corpus = std::mem::replace(&mut inputs.corpus, Catalog::new());
    if shape.cold {
        // Set-up is deterministic, so this system answers like the served
        // one will; checking it leaves the served plan cache cold.
        let sys = setup(corpus.clone())?;
        let rs = ServeState::new();
        rs.register_tenant(TENANT, sys);
        identity_apart(&rs, inputs)?;
    }
    let served = setup(corpus)?;

    let state = ServeState::new();
    state.register_tenant(TENANT, served);
    let server = Server::start(state.clone(), ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    if !shape.cold {
        identity(server.addr(), &state, inputs)?;
    }
    let window_secs = args.seconds as f64;
    let bench = Bench {
        server: &server,
        state: &state,
        inputs,
        shape,
        walk: shape.walk(args.seed),
        miss_ms: window_secs * 1e3,
    };
    let (served, peak_rss) = host::peak_rss_while(|| {
        let win = bench.window(window_secs, MIN_READS, None)?;
        let publishes = bench.publish()?;
        Ok::<_, String>((win, publishes))
    });
    let (win, publishes) = served?;
    drop(server);
    drop(state);
    setups.extend(setups_apart(args, shape.setups_each_side)?);
    show("setups (s)", &setups, 1.0);
    let tally = tally(&[&win], &publishes);

    let lat = win.latencies();
    let mut m = Metrics::default();
    m.set_opt("setup_s", median(&steal_free(&setups)), "s");
    m.set("read_qps", win.ok() as f64 / win.elapsed().max(1e-9), "1/s");
    m.set_opt("read_p50_ms", quantile(&lat, 0.5), "ms");
    m.set_opt("read_p99_ms", quantile(&lat, 0.99), "ms");
    m.set_opt(
        "publish_p50_ms",
        median(&steal_free(&publishes.publish_ms)),
        "ms",
    );
    m.set(
        "ok_share",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    m.set_opt(
        "peak_rss_mib",
        peak_rss.map(|b| b as f64 / (1024.0 * 1024.0)),
        "MiB",
    );
    Ok((m, tally))
}

/// The per-layer run: an untraced half-window, then a traced one.
fn traced(args: &Args, shape: &Shape, inputs: &mut Inputs) -> Result<(Metrics, Tally), String> {
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let sink = Arc::new(LayerSink::default());
    let (observed, _) = spans.time(0, "system.setup", "", || {
        UdiSystem::setup_observed(inputs.corpus.clone(), UdiConfig::default(), sink.clone())
    });
    let observed = observed.map_err(|e| format!("setup: {e}"))?;
    let at_setup = sink.totals();
    let mut reports: Vec<SetupReport> = vec![observed.report().clone()];

    // Clones without the sink: the untraced half's served system, the
    // replica requests are replayed on, and a probe with an empty plan
    // cache for compile and answer times.
    let plain = layers::timed_clone(&observed, &mut spans);
    let replica = layers::timed_clone(&observed, &mut spans);
    let probe = layers::timed_clone(&observed, &mut spans);
    layers::compile_times(
        &probe,
        &layers::select_queries(&inputs.reads, 64),
        &mut spans,
    );
    layers::answer_paths(
        &probe,
        &layers::select_queries(&inputs.reads, 10),
        2,
        &mut spans,
    );
    drop(probe);
    let replica_state = ServeState::new();
    replica_state.register_tenant(TENANT, replica);

    let state = ServeState::new();
    state.register_tenant(TENANT, plain);
    let server = Server::start(state.clone(), ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    if shape.cold {
        identity_apart(&replica_state, inputs)?;
    } else {
        identity(server.addr(), &state, inputs)?;
        layers::warm(&replica_state, &inputs.reads)?;
    }
    let half = args.seconds as f64 / 2.0;
    let bench = Bench {
        server: &server,
        state: &state,
        inputs,
        shape,
        walk: shape.walk(args.seed),
        miss_ms: half * 1e3,
    };
    let plain_win = bench.window(half, 0, None)?;

    // The traced half: the observed system takes the tenant over, warmed
    // like the untraced one was, and each reader replays its requests.
    state.register_tenant(TENANT, observed);
    if !shape.cold {
        bench.warm_up()?;
    }
    let before = sink.totals();
    let traced_win = bench.window(half, 0, Some(&replica_state))?;
    let after = sink.totals();
    let publishes = bench.publish()?;
    let tally = tally(&[&plain_win, &traced_win], &publishes);
    let mutation_reports = publishes.reports;
    reports.extend(mutation_reports.iter().cloned());
    let (plain_p50, traced_p50) = (
        quantile(&plain_win.latencies(), 0.5),
        quantile(&traced_win.latencies(), 0.5),
    );
    for s in traced_win.spans {
        spans.recs.extend(s.recs);
    }
    let path = std::path::Path::new(".bench_trace").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    spans.write_jsonl(&path)?;
    say(format!(
        "trace: {} spans written to {}",
        spans.recs.len(),
        path.display()
    ));

    let m = layer_metrics(&LayerInputs {
        spans: &spans,
        at_setup: &at_setup,
        before: &before,
        after: &after,
        final_totals: &sink.totals(),
        reports: &reports,
        mutation_reports: &mutation_reports,
        plain_p50,
        traced_p50,
    });
    coverage(&spans);
    Ok((m, tally))
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    spans: &'a Spans,
    at_setup: &'a SinkTotals,
    before: &'a SinkTotals,
    after: &'a SinkTotals,
    final_totals: &'a SinkTotals,
    reports: &'a [SetupReport],
    mutation_reports: &'a [SetupReport],
    plain_p50: Option<f64>,
    traced_p50: Option<f64>,
}

fn layer_metrics(l: &LayerInputs) -> Metrics {
    let ms = |name: &str| l.spans.median_us(name).map(|us| us / 1e3);
    let delta = |name: &str| l.after.counter(name).saturating_sub(l.before.counter(name)) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let stage = |f: fn(&udi_core::SetupTimings) -> Duration| {
        let v: Vec<f64> = l
            .reports
            .iter()
            .filter_map(|r| r.timings.as_ref())
            .map(|t| f(t).as_secs_f64() * 1e3)
            .collect();
        median(&v)
    };
    let mut m = Metrics::default();
    m.set_opt("serve.wire_ms", ms("serve.wire"), "ms");
    m.set_opt("serve.parse_us", l.spans.median_us("serve.parse"), "us");
    m.set_opt("query.parse_us", l.spans.median_us("query.parse"), "us");
    m.set_opt("prepared.compile_ms", ms("prepared.compile"), "ms");
    let (hit, miss) = (delta("query.plan.hit"), delta("query.plan.miss"));
    m.set("prepared.hit_ratio", ratio(hit, hit + miss), "ratio");
    for (name, span) in [
        ("answer.consolidated_ms", "answer.consolidated"),
        ("answer.pmed_ms", "answer.pmed"),
        ("answer.top_mapping_ms", "answer.top_mapping"),
        ("answer.by_tuple_ms", "answer.by_tuple"),
        ("answer.aggregate_ms", "answer.aggregate"),
        ("serve.handle_ms", "serve.handle"),
        ("serve.render_ms", "serve.render"),
        ("system.clone_ms", "system.clone"),
    ] {
        m.set_opt(name, ms(span), "ms");
    }
    m.set_opt(
        "serve.response_kib",
        l.spans
            .median_us("serve.response_bytes")
            .map(|b| b / 1024.0),
        "KiB",
    );
    m.set(
        "store.scanned_per_answer",
        ratio(
            delta("query.tuples.scanned"),
            delta("query.answers.produced"),
        ),
        "ratio",
    );
    m.set_opt("engine.med_schema_ms", stage(|t| t.med_schema), "ms");
    m.set_opt("engine.pmappings_ms", stage(|t| t.pmappings), "ms");
    m.set_opt("engine.consolidate_ms", stage(|t| t.consolidation), "ms");
    let reused: usize = l.mutation_reports.iter().map(|r| r.cache.rows_reused).sum();
    let computed: usize = l
        .mutation_reports
        .iter()
        .map(|r| r.cache.rows_computed)
        .sum();
    m.set(
        "engine.rows_reused_ratio",
        ratio(reused as f64, (reused + computed) as f64),
        "ratio",
    );
    let f = l.final_totals;
    m.set(
        "maxent.solve_hit_ratio",
        f.share("maxent.solve.hit", "maxent.solve.miss")
            .unwrap_or(0.0),
        "ratio",
    );
    m.set(
        "maxent.capped_share",
        ratio(f.capped as f64, f.solves as f64),
        "ratio",
    );
    let span_ms = |name: &str| l.at_setup.span_us.get(name).copied().unwrap_or(0) as f64 / 1e3;
    m.set("similarity.block_ms", span_ms("setup.block"), "ms");
    m.set("similarity.score_ms", span_ms("setup.score"), "ms");
    m.set(
        "similarity.pruned_ratio",
        l.at_setup
            .share("engine.block.pruned", "engine.block.candidates")
            .unwrap_or(0.0),
        "ratio",
    );
    if let (Some(t), Some(p)) = (l.traced_p50, l.plain_p50) {
        m.set("obs.trace_overhead", ratio(t, p), "ratio");
    }
    m
}

/// Prints whether the per-layer medians along the request path account for
/// the median client latency.
fn coverage(spans: &Spans) {
    let us = |name: &str| spans.median_us(name).unwrap_or(0.0);
    let client = us("client.request");
    let parts = ["serve.wire", "serve.parse", "serve.handle", "serve.render"];
    let sum: f64 = parts.iter().map(|p| us(p)).sum();
    let share = if client > 0.0 { sum / client } else { 0.0 };
    let detail: Vec<String> = parts
        .iter()
        .map(|p| format!("{p} {:.3} ms", us(p) / 1e3))
        .collect();
    println!(
        "coverage: median client latency {:.3} ms; {} sum to {:.3} ms ({:.0}%): {}",
        client / 1e3,
        detail.join(" + "),
        sum / 1e3,
        share * 100.0,
        if (share - 1.0).abs() <= 0.1 {
            "accounted for"
        } else {
            "NOT accounted for"
        }
    );
    println!(
        "coverage: inside serve.handle, query.parse {:.3} ms; warm answer medians by path: \
         consolidated {:.3}, pmed {:.3}, top_mapping {:.3}, by_tuple {:.3}, aggregate {:.3} ms",
        us("query.parse") / 1e3,
        us("answer.consolidated") / 1e3,
        us("answer.pmed") / 1e3,
        us("answer.top_mapping") / 1e3,
        us("answer.by_tuple") / 1e3,
        us("answer.aggregate") / 1e3
    );
}
