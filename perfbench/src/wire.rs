//! The client side of the wire protocol, and grammar-conformant query text.
//!
//! Every request line goes out in one `write_all` on a `TCP_NODELAY`
//! socket, so a stall the client observes is the server's, not Nagle's
//! algorithm waiting on the client's own second write.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use udi_query::{parse_aggregate_query, parse_query, AggregateQuery, Query};
use udi_serve::{AnswerPath, Json};
use udi_store::{Table, Value};

/// Tenant name every workload serves under.
pub const TENANT: &str = "bench";

/// One blocking connection to the server.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Client {
    /// Connects with `TCP_NODELAY` set.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Client {
            stream,
            reader,
            line: Vec::new(),
        })
    }

    /// Sends `line` (which must end in `\n`) in one write.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        debug_assert!(line.ends_with('\n'));
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("write request: {e}"))
    }

    /// Reads one response line, without its newline.
    pub fn recv(&mut self) -> Result<String, String> {
        self.line.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.line)
            .map_err(|e| format!("read response: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        if self.line.last() == Some(&b'\n') {
            self.line.pop();
        }
        String::from_utf8(std::mem::take(&mut self.line))
            .map_err(|e| format!("response is not UTF-8: {e}"))
    }

    /// One request/response exchange.
    pub fn exchange(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// A read request of a workload: one query text on one answer path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReadReq {
    /// Answer path.
    pub path: PathName,
    /// Grammar-conformant query text.
    pub text: String,
}

/// [`AnswerPath`] with an order, so requests can key maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PathName(pub usize);

impl PathName {
    /// Wraps a path.
    pub fn of(path: AnswerPath) -> PathName {
        PathName(AnswerPath::ALL.iter().position(|p| *p == path).unwrap_or(0))
    }

    /// The wrapped path.
    pub fn path(self) -> AnswerPath {
        AnswerPath::ALL
            .get(self.0)
            .copied()
            .unwrap_or(AnswerPath::Consolidated)
    }
}

/// The `answer` request line for `req`, newline included.
pub fn answer_line(id: u64, req: &ReadReq) -> String {
    format!(
        "{{\"op\":\"answer\",\"tenant\":\"{TENANT}\",\"id\":{id},\"path\":\"{}\",\"query\":{}}}\n",
        req.path.path().name(),
        Json::Str(req.text.clone()).render()
    )
}

/// The `add_source` request line for `table`, newline included.
pub fn add_source_line(id: u64, table: &Table) -> String {
    let attrs: Vec<Json> = table
        .attributes()
        .iter()
        .map(|a| Json::Str(a.clone()))
        .collect();
    let rows: Vec<Json> = table
        .to_rows()
        .iter()
        .map(|row| Json::Arr(row.iter().map(udi_serve::proto::value_to_json).collect()))
        .collect();
    let mut t = std::collections::BTreeMap::new();
    t.insert("name".to_owned(), Json::Str(table.name().to_owned()));
    t.insert("attrs".to_owned(), Json::Arr(attrs));
    t.insert("rows".to_owned(), Json::Arr(rows));
    format!(
        "{{\"op\":\"add_source\",\"tenant\":\"{TENANT}\",\"id\":{id},\"table\":{}}}\n",
        Json::Obj(t).render()
    )
}

/// The `apply_feedback` request line, newline included.
pub fn feedback_line(id: u64, same: &[(String, String)], different: &[(String, String)]) -> String {
    let pairs = |v: &[(String, String)]| {
        Json::Arr(
            v.iter()
                .map(|(a, b)| Json::Arr(vec![Json::Str(a.clone()), Json::Str(b.clone())]))
                .collect(),
        )
        .render()
    };
    format!(
        "{{\"op\":\"apply_feedback\",\"tenant\":\"{TENANT}\",\"id\":{id},\"same\":{},\"different\":{}}}\n",
        pairs(same),
        pairs(different)
    )
}

/// Renders an identifier the parser reads back unchanged: bare when every
/// character is an identifier character and it is no keyword, otherwise
/// quoted.
fn ident(name: &str) -> Result<String, String> {
    let bare = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_alphanumeric() || "_$./#-".contains(c))
        && !["select", "from", "where", "and", "group", "by", "like"]
            .iter()
            .any(|kw| name.eq_ignore_ascii_case(kw));
    if bare {
        Ok(name.to_owned())
    } else if !name.contains('"') {
        Ok(format!("\"{name}\""))
    } else if !name.contains('`') {
        Ok(format!("`{name}`"))
    } else {
        Err(format!("identifier {name:?} cannot be quoted"))
    }
}

/// Renders a literal: text single-quoted with `'` doubled, numbers in a
/// form that parses back to the same variant.
fn literal(value: &Value) -> Result<String, String> {
    match value {
        Value::Text(s) => Ok(format!("'{}'", s.replace('\'', "''"))),
        Value::Int(i) => Ok(i.to_string()),
        Value::Float(x) if x.is_finite() => Ok(format!("{x:?}")),
        other => Err(format!("literal {other:?} has no query syntax")),
    }
}

fn where_clause(preds: &[udi_query::Predicate]) -> Result<String, String> {
    if preds.is_empty() {
        return Ok(String::new());
    }
    let parts: Result<Vec<String>, String> = preds
        .iter()
        .map(|p| {
            Ok(format!(
                "{} {} {}",
                ident(&p.attribute)?,
                p.op.symbol(),
                literal(&p.value)?
            ))
        })
        .collect();
    Ok(format!(" WHERE {}", parts?.join(" AND ")))
}

/// Query text that [`parse_query`] turns back into exactly `q`.
///
/// `Query`'s `Display` is not used: it neither quotes multi-word
/// identifiers nor escapes quotes in literals, so its text often fails to
/// parse (see `perfbench/NOTES.md`).
pub fn sql_text(q: &Query) -> Result<String, String> {
    let select: Result<Vec<String>, String> = q.select.iter().map(|a| ident(a)).collect();
    let text = format!(
        "SELECT {} FROM {}{}",
        select?.join(", "),
        ident(&q.from)?,
        where_clause(&q.predicates)?
    );
    match parse_query(&text) {
        Ok(back) if back == *q => Ok(text),
        Ok(back) => Err(format!("{text:?} parses to {back:?}, not {q:?}")),
        Err(e) => Err(format!("{text:?} does not parse: {e}")),
    }
}

/// Aggregate text that [`parse_aggregate_query`] turns back into `q`.
pub fn aggregate_text(q: &AggregateQuery) -> Result<String, String> {
    let mut items: Vec<String> = Vec::new();
    for g in &q.group_by {
        items.push(ident(g)?);
    }
    for a in &q.aggregates {
        let arg = match &a.attribute {
            Some(attr) => ident(attr)?,
            None => "*".to_owned(),
        };
        items.push(format!("{}({arg})", a.func.name()));
    }
    let mut text = format!(
        "SELECT {} FROM {}{}",
        items.join(", "),
        ident(&q.from)?,
        where_clause(&q.predicates)?
    );
    if !q.group_by.is_empty() {
        let groups: Result<Vec<String>, String> = q.group_by.iter().map(|g| ident(g)).collect();
        text.push_str(&format!(" GROUP BY {}", groups?.join(", ")));
    }
    match parse_aggregate_query(&text) {
        Ok(back) if back == *q => Ok(text),
        Ok(back) => Err(format!("{text:?} parses to {back:?}, not {q:?}")),
        Err(e) => Err(format!("{text:?} does not parse: {e}")),
    }
}

/// What a response line says, read without parsing the whole body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `ok: true`, with the generation it reports.
    Ok(u64),
    /// Load-shed by admission control.
    Shed,
    /// `ok: false` or unreadable.
    Failed,
}

/// Classifies a response line. The server renders object keys in sorted
/// order, so `generation` and `ok` sit at the top level of the line.
pub fn outcome(response: &str) -> Outcome {
    if response.contains("\"shed\":true") {
        return Outcome::Shed;
    }
    if !response.contains("\"ok\":true") {
        return Outcome::Failed;
    }
    let Some(at) = response.find("\"generation\":") else {
        return Outcome::Failed;
    };
    let digits: String = response
        .get(at + "\"generation\":".len()..)
        .unwrap_or("")
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().map_or(Outcome::Failed, Outcome::Ok)
}
