//! Request routing and endpoint handlers.
//!
//! | route | body | effect |
//! |---|---|---|
//! | `POST /load` | database text (or `{"db": text}`) | replace the loaded database |
//! | `POST /mutate` | `{"insert": [lines], "remove": [lines]}` | apply tuple-level mutations |
//! | `POST /eval` | `{"query", "threads"?, "chunk_rows"?}` | annotated evaluation |
//! | `POST /minimize` | `{"query", "strategy"?, "budget_steps"?, "budget_ms"?}` | (budgeted) minimization |
//! | `GET /stats` | — | cache/generation/latency counters |
//! | `POST /shutdown` | — | request graceful shutdown |
//!
//! `/eval` renders each output tuple exactly as the one-shot
//! `provmin eval` CLI does (`(a)  [s2·s3 + s1]`), so serving results are
//! bit-comparable against the CLI — the acceptance check the CI smoke job
//! performs. With `Accept: text/plain` the response body *is* the CLI
//! stdout, byte for byte.

use std::fmt::Write as _;
use std::sync::Arc;

use prov_core::minimize::{minimize_with, MinimizeOutcome};
use prov_engine::AnnotatedResult;
use prov_query::{parse_ucq, UnionQuery};
use prov_semiring::Annotation;
use prov_storage::textio::parse_tuple_line;
use prov_storage::{Database, RelName, Tuple};

use crate::http::{Body, Request, Response, STREAM_SEGMENT_BYTES};
use crate::json::{self, Json};
use crate::state::ServerState;
use crate::stats::Endpoint;
use crate::{budget, VERSION};

/// Result rows above which `/eval` responses are streamed as chunked
/// segments instead of one `Content-Length` body. Below it the buffered
/// path is cheaper (one write, no chunk framing); above it per-connection
/// memory must stay bounded by [`STREAM_SEGMENT_BYTES`]-sized segments no
/// matter how large the answer set is.
const STREAM_ROWS_THRESHOLD: usize = 512;

/// Routes one request, returning which endpoint it hit (for the latency
/// counters) and the response to send.
pub fn route(state: &ServerState, request: &Request) -> (Endpoint, Response) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/load") => (Endpoint::Load, handle_load(state, request)),
        ("POST", "/mutate") => (Endpoint::Mutate, handle_mutate(state, request)),
        ("POST", "/eval") => (Endpoint::Eval, handle_eval(state, request)),
        ("POST", "/minimize") => (Endpoint::Minimize, handle_minimize(request)),
        ("GET", "/stats") => (Endpoint::Stats, handle_stats(state)),
        ("POST", "/shutdown") => (Endpoint::Shutdown, handle_shutdown(state)),
        (_, "/load" | "/mutate" | "/eval" | "/minimize" | "/stats" | "/shutdown") => (
            Endpoint::Other,
            Response::error(405, format!("method {} not allowed here", request.method)),
        ),
        (_, path) => (
            Endpoint::Other,
            Response::error(404, format!("no route {path}")),
        ),
    }
}

/// The request body as a parsed JSON object (`{}` for an empty body).
fn json_body(request: &Request) -> Result<Json, Response> {
    if request.body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text = request
        .body_utf8()
        .ok_or_else(|| Response::error(400, "body is not valid utf-8"))?;
    Json::parse(text).map_err(|e| Response::error(400, e.to_string()))
}

/// Parses the CLI's query syntax (`;` joins union rules).
fn parse_query(text: &str) -> Result<UnionQuery, Response> {
    let rules = text.replace(';', "\n");
    parse_ucq(&rules).map_err(|e| Response::error(400, format!("query: {e}")))
}

fn query_field(body: &Json) -> Result<UnionQuery, Response> {
    let text = body
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| Response::error(400, "missing string field \"query\""))?;
    parse_query(text)
}

/// Builds a database from text without ever panicking: beyond per-line
/// syntax, cross-line inconsistencies — an annotation re-tagging a
/// different tuple, an arity mismatch with an earlier line — become
/// errors (via `textio::parse_database_into`'s checked inserts) where
/// `Database::insert` / `Relation::insert` would assert. Network input
/// must never be able to reach those asserts.
fn build_database(text: &str, delta_capacity: usize) -> Result<Database, String> {
    let mut db = Database::with_delta_capacity(delta_capacity);
    prov_storage::textio::parse_database_into(&mut db, text).map_err(|e| e.to_string())?;
    Ok(db)
}

fn handle_load(state: &ServerState, request: &Request) -> Response {
    let is_json = request
        .header("content-type")
        .is_some_and(|t| t.contains("json"));
    let capacity = state.delta_capacity();
    let parsed: Result<Database, Response> = if is_json {
        match json_body(request) {
            Ok(body) => match body.get("db").and_then(Json::as_str) {
                Some(text) => build_database(text, capacity).map_err(|e| Response::error(400, e)),
                None => Err(Response::error(400, "missing string field \"db\"")),
            },
            Err(resp) => Err(resp),
        }
    } else {
        match request.body_utf8() {
            Some(text) => build_database(text, capacity).map_err(|e| Response::error(400, e)),
            None => Err(Response::error(400, "body is not valid utf-8")),
        }
    };
    let db = match parsed {
        Ok(db) => db,
        Err(resp) => return resp,
    };
    let (tuples, generation) = (db.num_tuples(), db.generation());
    {
        let mut slot = state.write_db();
        *slot = db;
        // The replacement starts a fresh lineage: persist it as a full
        // snapshot (truncating the WAL — its events belong to the old
        // lineage) before acknowledging.
        if let Some(mut store) = state.durability() {
            if let Err(e) = store.snapshot(&slot) {
                return Response::error(500, format!("load applied in memory only: {e}"));
            }
        }
    }
    // Every cached result keyed into the old lineage is dead weight now;
    // free it eagerly and count the clean rebuild.
    state.session().invalidate_results();
    Response::json(
        200,
        &Json::Obj(vec![
            ("tuples".to_owned(), Json::from_u64(tuples as u64)),
            ("generation".to_owned(), Json::from_u64(generation)),
        ]),
    )
}

fn handle_mutate(state: &ServerState, request: &Request) -> Response {
    let body = match json_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    // Parse every line up front: a syntactically bad request mutates
    // nothing (parse errors are the common failure; annotation conflicts
    // are checked under the lock below).
    let mut removes = Vec::new();
    let mut inserts = Vec::new();
    for (field, out) in [("remove", &mut removes), ("insert", &mut inserts)] {
        if let Some(value) = body.get(field) {
            let Some(lines) = value.as_array() else {
                return Response::error(400, format!("\"{field}\" must be an array of strings"));
            };
            for line in lines {
                let Some(text) = line.as_str() else {
                    return Response::error(
                        400,
                        format!("\"{field}\" must be an array of strings"),
                    );
                };
                match parse_tuple_line(text) {
                    Ok(Some(entry)) => out.push(entry),
                    Ok(None) => {}
                    Err(e) => return Response::error(400, format!("{field} {text:?}: {e}")),
                }
            }
        }
    }
    if removes.is_empty() && inserts.is_empty() {
        return Response::error(400, "nothing to do: empty \"insert\" and \"remove\"");
    }

    let mut db = state.write_db();
    // Arity pre-validation under the lock, before ANY change: an insert
    // into an existing relation with the wrong arity would hit
    // `Relation::insert`'s assert — network input must never reach an
    // assert, and an arity error applies nothing (removals cannot change
    // a relation's arity, so checking first is sound). Inserts creating a
    // new relation are checked against each other.
    let mut new_arities: std::collections::BTreeMap<RelName, usize> =
        std::collections::BTreeMap::new();
    for (rel, tuple, _) in &inserts {
        let expected = db
            .relation(*rel)
            .map(|r| r.arity())
            .or_else(|| new_arities.get(rel).copied());
        match expected {
            Some(arity) if arity != tuple.arity() => {
                return Response::error(
                    400,
                    format!(
                        "insert {rel}{tuple}: {rel} has arity {arity}, got a {}-tuple \
                         (nothing was applied)",
                        tuple.arity()
                    ),
                );
            }
            Some(_) => {}
            None => {
                new_arities.insert(*rel, tuple.arity());
            }
        }
    }
    let removes: Vec<(RelName, Tuple)> = removes
        .into_iter()
        .map(|(rel, tuple, _)| (rel, tuple))
        .collect();
    // Annotation pre-validation, before ANY change: `Database::insert`
    // panics on an abstract-tagging violation, and network input must
    // never reach an assert. The check simulates the post-removal state —
    // removals run first inside `apply_mutation`, so a request may
    // legally re-tag in one round trip — and tracks annotations the
    // request itself claims, so two inserts fighting over one annotation
    // are a 409, not a panic. A conflict applies *nothing* (the whole
    // batch is atomic).
    let freed = |rel: &RelName, tuple: &Tuple| removes.iter().any(|(r, t)| r == rel && t == tuple);
    let mut claimed: std::collections::BTreeMap<Annotation, (RelName, Tuple)> =
        std::collections::BTreeMap::new();
    let mut resolved: Vec<(RelName, Tuple, Annotation)> = Vec::with_capacity(inserts.len());
    for (rel, tuple, annotation) in inserts {
        let a = match annotation {
            Some(a) => {
                if let Some((r0, t0)) = db.tuple_of(a) {
                    let same_tuple = *r0 == rel && *t0 == tuple;
                    if !same_tuple && !freed(r0, t0) {
                        return Response::error(
                            409,
                            format!("annotation {a} already tags {r0}{t0} (nothing was applied)"),
                        );
                    }
                }
                if let Some((r1, t1)) = claimed.get(&a) {
                    if !(*r1 == rel && *t1 == tuple) {
                        return Response::error(
                            409,
                            format!(
                                "annotation {a} claimed twice, for {r1}{t1} and {rel}{tuple} \
                                 (nothing was applied)"
                            ),
                        );
                    }
                }
                a
            }
            // Annotation-less inserts mint a fresh tag unless the tuple
            // survives the request's removals (then the insert is the
            // same idempotent no-op `Database::insert_fresh` performs).
            None => db
                .annotation_of(rel, &tuple)
                .filter(|_| !freed(&rel, &tuple))
                .unwrap_or_else(Annotation::fresh),
        };
        claimed.insert(a, (rel, tuple.clone()));
        resolved.push((rel, tuple, a));
    }
    let from = db.generation();
    let outcome = state.session().apply_mutation(&mut db, &removes, &resolved);
    // Durability before acknowledgement: the events are WAL-appended and
    // (per --fsync policy) on disk before the 200 goes out, still under
    // the write lock so the log order is the lock order. A batch that
    // outran the delta-log window has no event list — fold the whole
    // state into a snapshot instead.
    if let Some(mut store) = state.durability() {
        let persisted = match db.deltas_since(from) {
            Some(events) if !events.is_empty() => store.append(events, &db).map(|_| ()),
            Some(_) => Ok(()), // idempotent no-op: nothing to persist
            None => store.snapshot(&db),
        };
        if let Err(e) = persisted {
            // The mutation is live in memory but NOT durable; refusing to
            // acknowledge keeps the contract "200 ⇒ survives a crash".
            return Response::error(500, format!("mutation applied in memory only: {e}"));
        }
    }
    Response::json(
        200,
        &Json::Obj(vec![
            ("removed".to_owned(), Json::from_u64(outcome.removed as u64)),
            (
                "inserted".to_owned(),
                Json::from_u64(outcome.inserted as u64),
            ),
            ("tuples".to_owned(), Json::from_u64(db.num_tuples() as u64)),
            ("generation".to_owned(), Json::from_u64(outcome.generation)),
            ("cache".to_owned(), Json::str(outcome.cache.as_str())),
        ]),
    )
}

fn handle_eval(state: &ServerState, request: &Request) -> Response {
    let body = match json_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let query = match query_field(&body) {
        Ok(q) => q,
        Err(resp) => return resp,
    };
    let options = match budget::eval_options(&body) {
        Ok(options) => options,
        Err(e) => return Response::error(400, e),
    };
    // Read lock held across the evaluation: concurrent /eval requests all
    // enter here together and share one cached index build; a /mutate
    // waits for them, then patches the warm views and delta log so the
    // next eval reconciles incrementally instead of rebuilding.
    let db = state.read_db();
    let result = state.session().eval_ucq_with(&query, &db, options);
    let generation = db.generation();
    drop(db);
    let (format, content_type, head) = if request.wants_text() {
        (RowFormat::Text, "text/plain; charset=utf-8", String::new())
    } else {
        let mut head = Json::Obj(vec![
            ("generation".to_owned(), Json::from_u64(generation)),
            ("rows".to_owned(), Json::from_u64(result.len() as u64)),
            ("cache".to_owned(), cache_json(&state.session().stats())),
        ])
        .to_string();
        // NOT inside a debug_assert: the pop must happen in release
        // builds too, or the prefix keeps the closing brace and the wire
        // JSON is malformed.
        let closing = head.pop();
        debug_assert_eq!(closing, Some('}'));
        head.push_str(",\"results\":[");
        (RowFormat::Json, "application/json", head)
    };
    let streamed = result.len() > STREAM_ROWS_THRESHOLD;
    let mut body = EvalBody::new(result, format, head);
    if streamed {
        return Response::streamed(
            200,
            content_type,
            Box::new(move || body.next_segment(STREAM_SEGMENT_BYTES)),
        );
    }
    Response {
        status: 200,
        content_type,
        body: Body::Bytes(body.next_segment(usize::MAX).unwrap_or_default()),
    }
}

/// How an `/eval` body lays out its rows.
#[derive(Clone, Copy)]
enum RowFormat {
    /// One newline-terminated line per row: `provmin eval`'s stdout.
    Text,
    /// One escaped JSON string per row, inside the `results` array.
    Json,
}

/// The `/eval` body behind all four render paths (text or JSON, buffered
/// or streamed). Each row is rendered exactly once, as `provmin eval`
/// prints it (`(a)  [s2·s3 + s1]`), into a reused line buffer and copied
/// straight into the current segment: verbatim for text, through the
/// run-copying JSON escaper for JSON.
///
/// A segment closes once it holds `limit` bytes. The cursor — the last
/// tuple written — re-seeks into the shared `BTreeMap` result in
/// O(log n), so a streamed answer never exists whole in memory and the
/// `Arc` keeps the result alive without copying it per connection.
struct EvalBody {
    result: Arc<AnnotatedResult>,
    format: RowFormat,
    /// Bytes owed to the next segment: the JSON object head, plus the
    /// `(empty result)` row when there are no tuples.
    pending: String,
    line: String,
    cursor: Option<Tuple>,
    wrote_row: bool,
    done: bool,
}

impl EvalBody {
    fn new(result: Arc<AnnotatedResult>, format: RowFormat, head: String) -> Self {
        let mut pending = head;
        let empty = result.is_empty();
        if empty {
            push_row(format, &mut pending, "(empty result)", true);
        }
        EvalBody {
            result,
            format,
            pending,
            line: String::new(),
            cursor: None,
            wrote_row: empty,
            done: false,
        }
    }

    /// The next segment of the body, or `None` once it is complete.
    fn next_segment(&mut self, limit: usize) -> Option<Vec<u8>> {
        if self.done {
            return None;
        }
        let mut seg = std::mem::take(&mut self.pending);
        let mut last = None;
        let mut exhausted = true;
        for (tuple, p) in self.result.iter_from(self.cursor.as_ref()) {
            self.line.clear();
            write!(self.line, "{tuple}  [{p}]").expect("writing to a String cannot fail");
            push_row(self.format, &mut seg, &self.line, !self.wrote_row);
            self.wrote_row = true;
            last = Some(tuple);
            if seg.len() >= limit {
                exhausted = false;
                break;
            }
        }
        if let Some(tuple) = last.cloned() {
            self.cursor = Some(tuple);
        }
        if exhausted {
            self.done = true;
            if let RowFormat::Json = self.format {
                seg.push_str("]}");
            }
        }
        (!seg.is_empty()).then(|| seg.into_bytes())
    }
}

/// Appends one rendered row to `seg`; `first` marks the body's first row
/// (no separating comma in JSON).
fn push_row(format: RowFormat, seg: &mut String, line: &str, first: bool) {
    match format {
        RowFormat::Text => {
            seg.push_str(line);
            seg.push('\n');
        }
        RowFormat::Json => {
            if !first {
                seg.push(',');
            }
            json::write_escaped(seg, line).expect("writing to a String cannot fail");
        }
    }
}

/// The cache counters object shared by `/eval` and `/stats`: the view
/// cache's hit/miss pair plus the incremental-maintenance counters (see
/// `docs/SERVER.md`).
fn cache_json(stats: &prov_engine::SessionStats) -> Json {
    Json::Obj(vec![
        ("hits".to_owned(), Json::from_u64(stats.views.hits)),
        ("misses".to_owned(), Json::from_u64(stats.views.misses)),
        (
            "delta_applies".to_owned(),
            Json::from_u64(stats.delta_applies),
        ),
        (
            "full_rebuilds".to_owned(),
            Json::from_u64(stats.full_rebuilds),
        ),
        (
            "monomials_dropped".to_owned(),
            Json::from_u64(stats.monomials_dropped),
        ),
        (
            "invalidations".to_owned(),
            Json::from_u64(stats.invalidations),
        ),
        (
            "peak_frontier_rows".to_owned(),
            Json::from_u64(stats.peak_frontier_rows),
        ),
    ])
}

/// The `/stats` durability object: WAL/snapshot counters plus the boot
/// recovery report (see `docs/DURABILITY.md`).
fn durability_json(state: &ServerState) -> Json {
    let Some(store) = state.durability() else {
        return Json::Obj(vec![("enabled".to_owned(), Json::Bool(false))]);
    };
    let counters = store.counters();
    let recovery = store.last_recovery();
    let fsync = match store.options().fsync {
        prov_storage::FsyncPolicy::Always => "always",
        prov_storage::FsyncPolicy::Interval(_) => "interval",
    };
    Json::Obj(vec![
        ("enabled".to_owned(), Json::Bool(true)),
        (
            "data_dir".to_owned(),
            Json::Str(store.dir().display().to_string()),
        ),
        ("fsync".to_owned(), Json::str(fsync)),
        (
            "wal_appends".to_owned(),
            Json::from_u64(counters.wal_appends),
        ),
        (
            "wal_records".to_owned(),
            Json::from_u64(counters.wal_records),
        ),
        ("fsyncs".to_owned(), Json::from_u64(counters.fsyncs)),
        (
            "snapshots_written".to_owned(),
            Json::from_u64(counters.snapshots_written),
        ),
        (
            "last_recovery".to_owned(),
            Json::Obj(vec![
                (
                    "snapshot_generation".to_owned(),
                    Json::from_u64(recovery.snapshot_generation),
                ),
                (
                    "snapshot_tuples".to_owned(),
                    Json::from_u64(recovery.snapshot_tuples as u64),
                ),
                (
                    "wal_replayed".to_owned(),
                    Json::from_u64(recovery.wal_replayed),
                ),
                (
                    "wal_skipped".to_owned(),
                    Json::from_u64(recovery.wal_skipped),
                ),
                (
                    "wal_dropped_bytes".to_owned(),
                    Json::from_u64(recovery.wal_dropped_bytes),
                ),
                (
                    "corruption".to_owned(),
                    match &recovery.corruption {
                        Some(why) => Json::Str(why.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
    ])
}

fn handle_minimize(request: &Request) -> Response {
    let body = match json_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let query = match query_field(&body) {
        Ok(q) => q,
        Err(resp) => return resp,
    };
    let options = match budget::minimize_options(&body) {
        Ok(options) => options,
        Err(e) => return Response::error(400, e),
    };
    match minimize_with(&query, options) {
        Ok(MinimizeOutcome::Complete(minimal)) => Response::json(
            200,
            &Json::Obj(vec![
                ("status".to_owned(), Json::str("complete")),
                ("query".to_owned(), Json::Str(minimal.to_string())),
            ]),
        ),
        Ok(MinimizeOutcome::Partial(partial)) => Response::json(
            200,
            &Json::Obj(vec![
                ("status".to_owned(), Json::str("partial")),
                ("query".to_owned(), Json::Str(partial.best.to_string())),
                (
                    "cursor".to_owned(),
                    Json::Obj(vec![
                        (
                            "adjunct".to_owned(),
                            Json::from_u64(partial.cursor.adjunct as u64),
                        ),
                        (
                            "completion".to_owned(),
                            Json::from_u64(partial.cursor.completion as u64),
                        ),
                    ]),
                ),
                ("steps_used".to_owned(), Json::from_u64(partial.steps_used)),
            ]),
        ),
        Err(e) => Response::error(400, e.to_string()),
    }
}

fn handle_stats(state: &ServerState) -> Response {
    let (generation, tuples) = {
        let db = state.read_db();
        (db.generation(), db.num_tuples())
    };
    let stats = state.session().stats();
    Response::json(
        200,
        &Json::Obj(vec![
            ("version".to_owned(), Json::str(VERSION)),
            ("generation".to_owned(), Json::from_u64(generation)),
            ("tuples".to_owned(), Json::from_u64(tuples as u64)),
            (
                "uptime_micros".to_owned(),
                Json::from_u64(state.uptime_micros()),
            ),
            ("cache".to_owned(), cache_json(&stats)),
            ("durability".to_owned(), durability_json(state)),
            ("endpoints".to_owned(), state.stats().snapshot()),
            ("connections".to_owned(), state.conn_stats().snapshot()),
        ]),
    )
}

fn handle_shutdown(state: &ServerState) -> Response {
    state.request_shutdown();
    Response::json(
        200,
        &Json::Obj(vec![("status".to_owned(), Json::str("shutting-down"))]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_storage::textio::parse_database;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_owned(),
            path: path.to_owned(),
            minor_version: 1,
            headers: vec![("content-type".to_owned(), "application/json".to_owned())],
            body: body.as_bytes().to_vec(),
        }
    }

    /// Parses a JSON response body, checking that its bytes are exactly
    /// `Json`'s own compact serialization (the `/eval` row writer builds
    /// its bodies without going through `Json`).
    fn body_json(resp: Response) -> Json {
        let bytes = resp.into_body_bytes();
        let text = std::str::from_utf8(&bytes).expect("utf8");
        let json = Json::parse(text).expect("json body");
        assert_eq!(json.to_string(), text);
        json
    }

    fn loaded_state() -> ServerState {
        let db = parse_database("R(a, a) : s1\nR(a, b) : s2\nR(b, a) : s3\nR(b, b) : s4\n")
            .expect("table 2 parses");
        ServerState::new(db)
    }

    #[test]
    fn eval_matches_cli_rendering() {
        let state = loaded_state();
        let request = post(
            "/eval",
            r#"{"query": "ans(x) :- R(x,y), R(y,x), x != y ; ans(x) :- R(x,x)"}"#,
        );
        let (endpoint, resp) = route(&state, &request);
        assert_eq!(endpoint, Endpoint::Eval);
        assert_eq!(resp.status, 200);
        let json = body_json(resp);
        let results = json.get("results").and_then(Json::as_array).expect("array");
        let lines: Vec<&str> = results.iter().filter_map(Json::as_str).collect();
        assert_eq!(lines, ["(a)  [s1 + s2·s3]", "(b)  [s2·s3 + s4]"]);
    }

    #[test]
    fn eval_text_rendering_is_cli_stdout() {
        let state = loaded_state();
        let mut request = post("/eval", r#"{"query": "ans(x) :- R(x,x)"}"#);
        request
            .headers
            .push(("accept".to_owned(), "text/plain".to_owned()));
        let (_, resp) = route(&state, &request);
        assert_eq!(
            String::from_utf8(resp.into_body_bytes()).expect("utf8"),
            "(a)  [s1]\n(b)  [s4]\n"
        );
    }

    #[test]
    fn large_results_stream_and_match_buffered_rendering() {
        // 600 rows clears STREAM_ROWS_THRESHOLD, so both text and JSON
        // responses take the chunked path; the drained bytes must still
        // be exactly what the buffered rendering would have produced.
        let mut text = String::new();
        for i in 0..600 {
            text.push_str(&format!("S(v{i:04}) : t{i}\n"));
        }
        let state = ServerState::new(parse_database(&text).expect("parses"));
        let mut request = post("/eval", r#"{"query": "ans(x) :- S(x)"}"#);
        let (_, resp) = route(&state, &request);
        assert!(
            matches!(resp.body, crate::http::Body::Chunks(_)),
            "large JSON result must stream"
        );
        let json = body_json(resp);
        assert_eq!(json.get("rows").and_then(Json::as_u64), Some(600));
        let results = json.get("results").and_then(Json::as_array).expect("array");
        assert_eq!(results.len(), 600);
        assert_eq!(results[0].as_str(), Some("(v0000)  [t0]"));

        request
            .headers
            .push(("accept".to_owned(), "text/plain".to_owned()));
        let (_, resp) = route(&state, &request);
        assert!(matches!(resp.body, crate::http::Body::Chunks(_)));
        let body = String::from_utf8(resp.into_body_bytes()).expect("utf8");
        assert_eq!(body.lines().count(), 600);
        assert!(body.starts_with("(v0000)  [t0]\n"));
        assert!(body.ends_with("(v0599)  [t599]\n"));
    }

    #[test]
    fn stats_reports_connection_counters() {
        let state = loaded_state();
        state.conn_stats().on_accept();
        state.conn_stats().on_keepalive_reuse();
        let get_stats = Request {
            method: "GET".to_owned(),
            path: "/stats".to_owned(),
            minor_version: 1,
            headers: Vec::new(),
            body: Vec::new(),
        };
        let (_, resp) = route(&state, &get_stats);
        let conns = body_json(resp)
            .get("connections")
            .cloned()
            .expect("connections");
        assert_eq!(conns.get("accepted").and_then(Json::as_u64), Some(1));
        assert_eq!(conns.get("active").and_then(Json::as_u64), Some(1));
        assert_eq!(
            conns.get("keepalive_reuses").and_then(Json::as_u64),
            Some(1)
        );
        assert!(conns.get("requests_per_conn").is_some());
    }

    #[test]
    fn empty_result_renders_like_cli() {
        let state = loaded_state();
        let (_, resp) = route(&state, &post("/eval", r#"{"query": "ans(x) :- Zzz(x)"}"#));
        let json = body_json(resp);
        let results = json.get("results").and_then(Json::as_array).expect("array");
        assert_eq!(results, [Json::str("(empty result)")]);
        assert_eq!(json.get("rows").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn evals_share_the_cached_build() {
        let state = loaded_state();
        let request = post("/eval", r#"{"query": "ans(x) :- R(x,y), R(y,x)"}"#);
        let (_, first) = route(&state, &request);
        let (_, second) = route(&state, &request);
        assert_eq!(first.status, 200);
        let first = body_json(first);
        let second = body_json(second);
        let cache = second.get("cache").cloned().expect("cache");
        // The repeat is served straight out of the materialized result
        // store: one full evaluation total, no second touch of the view
        // cache.
        assert_eq!(cache.get("full_rebuilds").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(second.get("results"), first.get("results"));
    }

    #[test]
    fn mutate_delta_applies_instead_of_rebuilding() {
        let state = loaded_state();
        let eval = post("/eval", r#"{"query": "ans(x) :- R(x,x)"}"#);
        let (_, before) = route(&state, &eval);
        let g0 = body_json(before).get("generation").and_then(Json::as_u64);
        let (_, mutated) = route(&state, &post("/mutate", r#"{"insert": ["R(c, c) : s5"]}"#));
        assert_eq!(mutated.status, 200);
        let mutated = body_json(mutated);
        assert_eq!(mutated.get("inserted").and_then(Json::as_u64), Some(1));
        assert_ne!(mutated.get("generation").and_then(Json::as_u64), g0);
        // The mutation was absorbed by the delta log, not a cache wipe.
        assert_eq!(mutated.get("cache").and_then(Json::as_str), Some("delta"));
        let (_, after) = route(&state, &eval);
        let after = body_json(after);
        let lines: Vec<&str> = after
            .get("results")
            .and_then(Json::as_array)
            .expect("array")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(lines, ["(a)  [s1]", "(b)  [s4]", "(c)  [s5]"]);
        // The post-mutation eval reconciled incrementally: still exactly
        // one full evaluation and one index build (the warm views were
        // patched, so no extra miss either).
        let cache = after.get("cache").cloned().expect("cache");
        assert_eq!(cache.get("full_rebuilds").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("delta_applies").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        // Removal restores the original answers, again via the delta path.
        let (_, removed) = route(&state, &post("/mutate", r#"{"remove": ["R(c, c)"]}"#));
        let removed = body_json(removed);
        assert_eq!(removed.get("removed").and_then(Json::as_u64), Some(1));
        assert_eq!(removed.get("cache").and_then(Json::as_str), Some("delta"));
        let (_, restored) = route(&state, &eval);
        let restored = body_json(restored);
        let lines: Vec<&str> = restored
            .get("results")
            .and_then(Json::as_array)
            .expect("array")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(lines, ["(a)  [s1]", "(b)  [s4]"]);
        let cache = restored.get("cache").cloned().expect("cache");
        assert_eq!(cache.get("delta_applies").and_then(Json::as_u64), Some(2));
        assert!(cache.get("monomials_dropped").and_then(Json::as_u64) >= Some(1));
    }

    #[test]
    fn mutate_conflicting_annotation_is_409_not_a_panic() {
        let state = loaded_state();
        let (_, resp) = route(&state, &post("/mutate", r#"{"insert": ["R(z, z) : s1"]}"#));
        assert_eq!(resp.status, 409);
        // The lock is not poisoned: follow-up requests still serve.
        let (_, ok) = route(&state, &post("/eval", r#"{"query": "ans(x) :- R(x,x)"}"#));
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn mutate_arity_mismatch_is_400_and_applies_nothing() {
        let state = loaded_state();
        // The removal is valid on its own; the wrong-arity insert must
        // abort the whole request BEFORE the removal applies (400, not a
        // Relation::insert assert under the write lock).
        let (_, resp) = route(
            &state,
            &post(
                "/mutate",
                r#"{"remove": ["R(a, a)"], "insert": ["R(c) : s9"]}"#,
            ),
        );
        assert_eq!(resp.status, 400);
        let (_, check) = route(&state, &post("/eval", r#"{"query": "ans(x) :- R(x,x)"}"#));
        let lines: Vec<String> = body_json(check)
            .get("results")
            .and_then(Json::as_array)
            .expect("array")
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_owned)
            .collect();
        assert_eq!(
            lines,
            ["(a)  [s1]", "(b)  [s4]"],
            "an arity error must be atomic: R(a,a) still present"
        );
        // Two wrong-arity inserts into a relation the request creates.
        let (_, resp) = route(
            &state,
            &post("/mutate", r#"{"insert": ["T(x, y)", "T(z)"]}"#),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn load_rejects_cross_line_inconsistencies_as_400() {
        let state = loaded_state();
        // Annotation re-used for a different tuple: would assert inside
        // Database::insert if it reached it.
        let mut request = post("/load", "R(a, a) : s1\nR(b, b) : s1\n");
        request.headers[0].1 = "text/plain".to_owned();
        let (_, resp) = route(&state, &request);
        assert_eq!(resp.status, 400);
        // Arity mismatch between lines of one relation.
        let mut request = post("/load", "R(a)\nR(b, c)\n");
        request.headers[0].1 = "text/plain".to_owned();
        let (_, resp) = route(&state, &request);
        assert_eq!(resp.status, 400);
        // The original database is untouched and the server still serves.
        let (_, ok) = route(&state, &post("/eval", r#"{"query": "ans(x) :- R(x,x)"}"#));
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn eval_thread_count_is_bounded() {
        let state = loaded_state();
        let (_, resp) = route(
            &state,
            &post(
                "/eval",
                r#"{"query": "ans(x) :- R(x,x)", "threads": 9000000000000}"#,
            ),
        );
        assert_eq!(
            resp.status, 400,
            "unbounded thread fan-out must be rejected"
        );
        let (_, ok) = route(
            &state,
            &post("/eval", r#"{"query": "ans(x) :- R(x,x)", "threads": 4}"#),
        );
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn minimize_complete_and_partial() {
        let state = loaded_state();
        let (_, complete) = route(
            &state,
            &post("/minimize", r#"{"query": "ans(x) :- R(x,y), R(x,z)"}"#),
        );
        let complete = body_json(complete);
        assert_eq!(
            complete.get("status").and_then(Json::as_str),
            Some("complete")
        );
        // MinProv's p-minimal output is the minimized canonical rewriting
        // (a union), not the standard-minimization core.
        assert_eq!(
            complete.get("query").and_then(Json::as_str),
            Some("ans(v1) :- R(v1,v1)\n  ∪ ans(v1) :- R(v1,v2), v1 != v2")
        );
        let (_, partial) = route(
            &state,
            &post(
                "/minimize",
                r#"{"query": "ans(x) :- R(x,y), R(y,z)", "budget_steps": 1}"#,
            ),
        );
        let partial = body_json(partial);
        assert_eq!(
            partial.get("status").and_then(Json::as_str),
            Some("partial")
        );
        let cursor = partial.get("cursor").expect("cursor");
        assert!(cursor.get("adjunct").and_then(Json::as_u64).is_some());
        assert!(cursor.get("completion").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn load_replaces_database() {
        let state = loaded_state();
        let mut request = post("/load", "S(x) : t1\n");
        request.headers[0].1 = "text/plain".to_owned();
        let (_, resp) = route(&state, &request);
        let json = body_json(resp);
        assert_eq!(json.get("tuples").and_then(Json::as_u64), Some(1));
        let (_, evald) = route(&state, &post("/eval", r#"{"query": "ans(y) :- S(y)"}"#));
        let lines = body_json(evald);
        let lines: Vec<&str> = lines
            .get("results")
            .and_then(Json::as_array)
            .expect("array")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(lines, ["(x)  [t1]"]);
    }

    #[test]
    fn stats_and_routing_errors() {
        let state = loaded_state();
        let get_stats = Request {
            method: "GET".to_owned(),
            path: "/stats".to_owned(),
            minor_version: 1,
            headers: Vec::new(),
            body: Vec::new(),
        };
        let (endpoint, resp) = route(&state, &get_stats);
        assert_eq!(endpoint, Endpoint::Stats);
        let json = body_json(resp);
        assert!(json.get("generation").is_some());
        assert!(json.get("endpoints").is_some());

        let (endpoint, resp) = route(&state, &post("/nope", "{}"));
        assert_eq!((endpoint, resp.status), (Endpoint::Other, 404));
        let (endpoint, resp) = route(
            &state,
            &Request {
                method: "GET".to_owned(),
                path: "/eval".to_owned(),
                minor_version: 1,
                headers: Vec::new(),
                body: Vec::new(),
            },
        );
        assert_eq!((endpoint, resp.status), (Endpoint::Other, 405));
        let (_, resp) = route(&state, &post("/eval", "{not json"));
        assert_eq!(resp.status, 400);
        let (_, resp) = route(&state, &post("/eval", r#"{"query": "broken :-"}"#));
        assert_eq!(resp.status, 400);
        let (_, resp) = route(&state, &post("/mutate", r#"{"insert": ["broken"]}"#));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let state = loaded_state();
        assert!(!state.shutdown_requested());
        let (endpoint, resp) = route(&state, &post("/shutdown", ""));
        assert_eq!((endpoint, resp.status), (Endpoint::Shutdown, 200));
        assert!(state.shutdown_requested());
    }
}
