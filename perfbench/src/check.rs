//! Correctness checks. Any failure ends the run with a non-zero exit.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;

use udi_core::UdiSystem;
use udi_serve::{execute_answer, json, Json};

use crate::drive::Sample;
use crate::wire::{answer_line, Client, PathName, ReadReq};

/// Requests in flight at once while checking; below the server's
/// admission-queue capacity, so nothing is shed.
const PIPELINE: usize = 64;

/// The library's rendering of `req` on `sys`.
fn library_answers(sys: &UdiSystem, req: &ReadReq) -> Result<String, String> {
    execute_answer(sys, req.path.path(), &req.text, 0)
        .map(|a| a.render())
        .map_err(|e| format!("library rejects {:?}: {e}", req.text))
}

/// The `answers` fragment of a response line, re-rendered.
fn wire_answers(response: &str) -> Result<(Option<i64>, String), String> {
    let parsed = json::parse(response).map_err(|e| format!("response is not JSON: {e}"))?;
    if parsed.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("request failed: {response:.200}"));
    }
    let answers = parsed
        .get("answers")
        .ok_or_else(|| format!("no answers in {response:.200}"))?;
    Ok((parsed.get("id").and_then(Json::as_i64), answers.render()))
}

/// Whether a rendered `answers` array holds at least one tuple.
fn has_tuples(answers: &str) -> bool {
    answers.contains("\"values\":")
}

/// Sends `batch` over one pipelined connection and compares each
/// response's answers with [`execute_answer`] on `sys`. Returns whether
/// each answer holds any tuple.
fn check_batch(
    client: &mut Client,
    sys: &UdiSystem,
    batch: &[&ReadReq],
) -> Result<Vec<bool>, String> {
    let mut lines = String::new();
    for (i, req) in batch.iter().enumerate() {
        lines.push_str(&answer_line(i as u64, req));
    }
    client.send(&lines)?;
    let mut got: BTreeMap<i64, String> = BTreeMap::new();
    for _ in batch {
        let (id, answers) = wire_answers(&client.recv()?)?;
        got.insert(id.ok_or("response without id")?, answers);
    }
    let mut non_empty = Vec::with_capacity(batch.len());
    for (i, req) in batch.iter().enumerate() {
        let via_wire = got
            .get(&(i as i64))
            .ok_or_else(|| format!("no response for {:?}", req.text))?;
        let via_library = library_answers(sys, req)?;
        if *via_wire != via_library {
            return Err(format!(
                "path {} diverged from the library on {:?}",
                req.path.path().name(),
                req.text
            ));
        }
        non_empty.push(has_tuples(&via_library));
    }
    Ok(non_empty)
}

/// Checks every distinct request of `reads` over the wire against
/// [`execute_answer`] on `sys`, which must be the snapshot the server at
/// `addr` serves: responses must match byte for byte. Every path the mix
/// uses must return a non-empty answer at least once; for a path where
/// none does, the first `reserve` request on that path that does is
/// checked and added to `reads`. Returns the number of requests checked.
pub fn identity(
    addr: SocketAddr,
    sys: &UdiSystem,
    reads: &mut Vec<ReadReq>,
    reserve: &[ReadReq],
) -> Result<usize, String> {
    let distinct: Vec<&ReadReq> = reads.iter().collect::<BTreeSet<_>>().into_iter().collect();
    let mut client = Client::connect(addr)?;
    let mut non_empty: BTreeMap<PathName, (usize, usize)> = BTreeMap::new();
    for batch in distinct.chunks(PIPELINE) {
        for (req, answered) in batch.iter().zip(check_batch(&mut client, sys, batch)?) {
            let slot = non_empty.entry(req.path).or_insert((0, 0));
            slot.0 += usize::from(answered);
            slot.1 += 1;
        }
    }
    let mut checked = distinct.len();
    let mut added = Vec::new();
    for (path, (answered, _)) in &non_empty {
        if *answered > 0 {
            continue;
        }
        let mut found = None;
        for r in reserve.iter().filter(|r| r.path == *path) {
            if has_tuples(&library_answers(sys, r)?) {
                found = Some(r);
                break;
            }
        }
        let Some(r) = found else {
            return Err(format!(
                "no request on path {} returns an answer; its identity check would be vacuous",
                path.path().name()
            ));
        };
        check_batch(&mut client, sys, &[r])?;
        checked += 1;
        added.push(r.clone());
    }
    let summary: Vec<String> = non_empty
        .iter()
        .map(|(p, (answered, total))| format!("{} {answered}/{total}", p.path().name()))
        .collect();
    crate::say(format!(
        "identity: {checked} distinct requests byte-identical; answered per path: {}; {} reserve request(s) added",
        summary.join(", "),
        added.len()
    ));
    reads.extend(added);
    Ok(checked)
}

/// Checks a sampled response against the library answer of the
/// generation it reports.
pub fn sample(s: &Sample, reads: &[ReadReq]) -> Result<(), String> {
    let req = reads.get(s.req).ok_or("sample outside the mix")?;
    let (_, via_wire) = wire_answers(&s.response)?;
    if via_wire != library_answers(&s.snapshot, req)? {
        return Err(format!(
            "response at generation {} diverged from that generation's library answer on {:?}",
            s.snapshot.engine().generation(),
            req.text
        ));
    }
    Ok(())
}
