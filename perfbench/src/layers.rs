//! The traced run: per-layer metrics measured from the outside.
//!
//! Spans are recorded by this benchmark around calls into each layer's
//! public functions; nothing inside the program is instrumented for it.
//! Spans of one request share the request's id, are kept in memory, and
//! are written out when the run ends. Counts and ratios come from the
//! program's existing `udi-obs` events, read through a [`LayerSink`]
//! installed with the public `setup_observed` / `set_sink`.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use udi_core::UdiSystem;
use udi_obs::{Event, EventKind, Sink};
use udi_query::{parse_aggregate_query, parse_query, Query};
use udi_serve::{handle, parse_request, AnswerPath, ServeState};

use crate::inputs::grouped_count;
use crate::stats::median;
use crate::wire::ReadReq;

/// The max-entropy solver's iteration cap (`MaxEntConfig::default`).
const SOLVER_CAP: f64 = 20_000.0;

/// Aggregates the program's own `udi-obs` events: counter totals, total
/// duration of the spans named in `SPANS`, and solver iteration counts.
#[derive(Default)]
pub struct LayerSink {
    inner: Mutex<SinkTotals>,
}

/// Totals collected by a [`LayerSink`].
#[derive(Default, Clone)]
pub struct SinkTotals {
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Total µs per span name, for the spans in `SPANS`.
    pub span_us: BTreeMap<&'static str, u64>,
    /// Fresh max-entropy solves observed.
    pub solves: u64,
    /// Fresh solves that stopped at the iteration cap.
    pub capped: u64,
}

const SPANS: [&str; 2] = ["setup.block", "setup.score"];

impl Sink for LayerSink {
    fn record(&self, event: &Event) {
        let mut t = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match event.kind {
            EventKind::Counter { delta } => *t.counters.entry(event.name).or_insert(0) += delta,
            EventKind::SpanEnd { dur_us } if SPANS.contains(&event.name) => {
                *t.span_us.entry(event.name).or_insert(0) += dur_us;
            }
            EventKind::Value { value } if event.name == "maxent.iterations" => {
                t.solves += 1;
                if value >= SOLVER_CAP {
                    t.capped += 1;
                }
            }
            _ => {}
        }
    }
}

impl LayerSink {
    /// A copy of the totals so far.
    pub fn totals(&self) -> SinkTotals {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl SinkTotals {
    /// A counter's total, 0 when never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `num ÷ (num + other)`, `None` when both are 0.
    pub fn share(&self, num: &str, other: &str) -> Option<f64> {
        let (a, b) = (self.counter(num), self.counter(other));
        (a + b > 0).then(|| a as f64 / (a + b) as f64)
    }
}

/// One recorded span.
pub struct SpanRec {
    /// Request id the span belongs to (0 for spans outside any request).
    pub req: u64,
    /// Layer call.
    pub name: &'static str,
    /// Enclosing span's name, empty at the root.
    pub parent: &'static str,
    /// Start, µs since the run's trace epoch.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
}

/// In-memory span store for one thread.
pub struct Spans {
    epoch: Instant,
    /// Spans recorded so far.
    pub recs: Vec<SpanRec>,
}

impl Spans {
    /// An empty store timing from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            recs: Vec::new(),
        }
    }

    /// Times `f` as span `name` of request `req`; returns its result and
    /// duration in µs.
    pub fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let dur_us = t.elapsed().as_secs_f64() * 1e6;
        self.recs.push(SpanRec {
            req,
            name,
            parent,
            start_us: (t - self.epoch).as_secs_f64() * 1e6,
            dur_us,
        });
        (out, dur_us)
    }

    /// Records a span whose duration was measured elsewhere.
    pub fn push(&mut self, req: u64, name: &'static str, parent: &'static str, dur_us: f64) {
        self.recs.push(SpanRec {
            req,
            name,
            parent,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us,
        });
    }

    /// Durations of every span named `name`, in µs.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Median duration of spans named `name`, in µs.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        median(&self.durations(name))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.recs {
            writeln!(
                out,
                "{{\"req\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.req, s.name, s.parent, s.start_us, s.dur_us
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Re-runs each request a reader sent, in process, on a replica of the
/// served system, timing the serving layers one by one.
pub struct Replay {
    state: ServeState,
    /// This client's spans.
    pub spans: Spans,
}

impl Replay {
    /// A replayer over `state`, whose tenant must answer like the served
    /// system.
    pub fn new(state: ServeState, epoch: Instant) -> Replay {
        Replay {
            state,
            spans: Spans::new(epoch),
        }
    }

    /// Times request `id` (`line`, for `req`) through `parse_request`,
    /// `parse_query`, `handle` and `Json::render`, and records the wire
    /// time: the client's latency minus handle and render.
    pub fn replay(
        &mut self,
        id: u64,
        line: &str,
        req: &ReadReq,
        client_ms: f64,
    ) -> Result<(), String> {
        let s = &mut self.spans;
        s.push(id, "client.request", "", client_ms * 1e3);
        let (parsed, _) = s.time(id, "serve.parse", "client.request", || {
            parse_request(line.trim_end())
        });
        let parsed = parsed.map_err(|e| format!("replay parse: {e}"))?;
        let text = req.text.as_str();
        // `handle` parses the query itself; this times the same call apart.
        let (ok, _) = if req.path.path() == AnswerPath::Aggregate {
            s.time(id, "query.parse", "serve.handle", || {
                parse_aggregate_query(text).is_ok()
            })
        } else {
            s.time(id, "query.parse", "serve.handle", || {
                parse_query(text).is_ok()
            })
        };
        if !ok {
            return Err(format!("replay: {text:?} does not parse"));
        }
        let state = &self.state;
        let (response, handle_us) = s.time(id, "serve.handle", "client.request", || {
            handle(state, &parsed)
        });
        let (line, render_us) = s.time(id, "serve.render", "client.request", || response.render());
        s.push(
            id,
            "serve.response_bytes",
            "serve.render",
            line.len() as f64,
        );
        s.push(
            id,
            "serve.wire",
            "client.request",
            client_ms * 1e3 - handle_us - render_us,
        );
        Ok(())
    }
}

/// Runs each distinct request of `reads` once through `handle` on
/// `state`, so the replica's plan cache is as warm as the served one's.
pub fn warm(state: &ServeState, reads: &[ReadReq]) -> Result<(), String> {
    let distinct: std::collections::BTreeSet<&ReadReq> = reads.iter().collect();
    for req in distinct {
        let parsed = parse_request(crate::wire::answer_line(0, req).trim_end())
            .map_err(|e| format!("warm: {e}"))?;
        std::hint::black_box(handle(state, &parsed));
    }
    Ok(())
}

/// The select queries behind a read mix: each distinct text of a select
/// path, at most `limit` of them.
pub fn select_queries(reads: &[ReadReq], limit: usize) -> Vec<Query> {
    let mut seen = std::collections::BTreeSet::new();
    reads
        .iter()
        .filter(|r| r.path.path() != AnswerPath::Aggregate)
        .filter(|r| seen.insert(r.text.as_str()))
        .filter_map(|r| parse_query(&r.text).ok())
        .take(limit)
        .collect()
}

/// Warm `UdiSystem::answer*` time per path, µs: each query runs once to
/// compile its plan, then `reps` timed calls.
pub fn answer_paths(sys: &UdiSystem, queries: &[Query], reps: usize, spans: &mut Spans) {
    for q in queries {
        let agg = grouped_count(q);
        for path in AnswerPath::ALL {
            let name = match path {
                AnswerPath::Consolidated => "answer.consolidated",
                AnswerPath::Pmed => "answer.pmed",
                AnswerPath::TopMapping => "answer.top_mapping",
                AnswerPath::ByTuple => "answer.by_tuple",
                AnswerPath::Aggregate => "answer.aggregate",
            };
            let call = || match path {
                AnswerPath::Consolidated => sys.answer(q),
                AnswerPath::Pmed => sys.answer_with_pmed(q),
                AnswerPath::TopMapping => sys.answer_top_mapping(q),
                AnswerPath::ByTuple => sys.answer_by_tuple(q),
                AnswerPath::Aggregate => sys.answer_aggregate(&agg),
            };
            std::hint::black_box(call());
            for _ in 0..reps {
                spans.time(0, name, "", call);
            }
        }
    }
}

/// `UdiSystem::prepare` on a text the plan cache has not seen, minus a
/// warm lookup of the same text, in µs. `sys` must have room in its plan
/// cache for every query.
pub fn compile_times(sys: &UdiSystem, queries: &[Query], spans: &mut Spans) {
    for q in queries {
        let t = Instant::now();
        std::hint::black_box(sys.prepare(q));
        let cold = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        std::hint::black_box(sys.prepare(q));
        let warm = t.elapsed().as_secs_f64() * 1e6;
        spans.push(0, "prepared.compile", "", cold - warm);
    }
}

/// A clone of `sys`, timed as `system.clone` (`UdiSystem::clone`), with
/// no trace sink.
pub fn timed_clone(sys: &UdiSystem, spans: &mut Spans) -> UdiSystem {
    let (mut copy, _) = spans.time(0, "system.clone", "", || sys.clone());
    copy.set_sink(None);
    copy
}
