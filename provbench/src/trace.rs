//! The traced replay: a workload's exact seeded request stream, with the
//! same thread count, run in-process through each layer's public entry
//! points, with a span around every call into a layer.
//!
//! Spans are recorded here, around the calls, not inside the program: a
//! span's name says which crate the call enters (`server`, `query`,
//! `engine`, `semiring`, `storage`, `core`). A span's self time is its
//! duration minus its children's; per-layer shares are self time over
//! request wall time.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prov_core::minimize::{MinimizeOptions, MinimizeStats, Minimizer};
use prov_engine::{AnnotatedResult, EvalOptions, EvalSession, SessionStats};
use prov_query::canonical::{canonical_key, completions_iter};
use prov_query::parse_ucq;
use prov_server::{Json, Response, ServerState};
use prov_storage::textio::{parse_database, parse_tuple_line};
use prov_storage::wal::encode_payload;
use prov_storage::{
    DeltaEvent, DeltaKind, DurabilityCounters, DurabilityOptions, DurableStore, FsyncPolicy,
    RelName, Tuple, DELTA_LOG_CAPACITY,
};

use crate::gate::Gate;
use crate::inputs::{result_lines, Inputs, Request, Stream, Workload};

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<crate>.<stage>`, or `request` for the root.
    pub name: &'static str,
    /// Start, in ns since the replay began.
    pub start_ns: u64,
    /// End, in ns since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Which request of the thread's stream the span belongs to.
    pub request: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    children_ns: u64,
    kept: Option<usize>,
}

/// Per-thread span recorder. With tracing off only the request root is
/// timed, which is what the untraced replay compares against.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    request: u64,
    /// Self time per span name while on.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// The first spans recorded while on (bounded, for the JSON dump).
    pub kept: Vec<Span>,
    keep: usize,
}

impl Tracer {
    /// A recorder keeping at most `keep` spans for the dump.
    pub fn new(epoch: Instant, keep: usize) -> Tracer {
        Tracer {
            on: false,
            epoch,
            stack: Vec::new(),
            request: 0,
            self_ns: BTreeMap::new(),
            kept: Vec::new(),
            keep,
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let start = Instant::now();
        let kept = (self.on && self.kept.len() < self.keep).then(|| {
            self.kept.push(Span {
                name,
                start_ns: self.since_epoch(start),
                end_ns: 0,
                parent: self.stack.last().and_then(|o| o.kept),
                request: self.request,
            });
            self.kept.len() - 1
        });
        self.stack.push(Open {
            name,
            start,
            children_ns: 0,
            kept,
        });
    }

    fn close(&mut self) -> u64 {
        let end = Instant::now();
        let open = self.stack.pop().expect("spans close in order");
        let ns = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += ns;
        }
        if self.on {
            *self.self_ns.entry(open.name).or_default() += ns.saturating_sub(open.children_ns);
            if let Some(i) = open.kept {
                self.kept[i].end_ns = self.since_epoch(end);
            }
        }
        ns
    }

    /// Runs one request under a `request` root span; returns its result
    /// and wall time in ns.
    pub fn request<T>(&mut self, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        self.request = id;
        self.open("request");
        let out = f(self);
        (out, self.close())
    }

    /// Runs `f` as a child span named `name` (just runs it when off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.open(name);
        let out = f();
        self.close();
        out
    }
}

/// What one replayed request hands back for counting, outside its span.
enum Done {
    Eval {
        result: Arc<AnnotatedResult>,
        bytes: usize,
        /// The CLI path's own one-shot session counters.
        cold: Option<SessionStats>,
    },
    Mutate {
        generation: u64,
        rotated: bool,
        bytes: usize,
    },
    Minimize {
        stats: MinimizeStats,
        bytes: usize,
    },
}

fn cache_json(stats: &SessionStats) -> Json {
    let field = |k: &str, v: u64| (k.to_owned(), Json::from_u64(v));
    Json::Obj(vec![
        field("hits", stats.views.hits),
        field("misses", stats.views.misses),
        field("delta_applies", stats.delta_applies),
        field("full_rebuilds", stats.full_rebuilds),
        field("monomials_dropped", stats.monomials_dropped),
        field("invalidations", stats.invalidations),
        field("peak_frontier_rows", stats.peak_frontier_rows),
    ])
}

/// `/eval` as the server's router runs it.
fn served_eval(state: &ServerState, body: &str, tr: &mut Tracer) -> Result<Done, String> {
    let json = tr
        .span("server.json_parse", || Json::parse(body))
        .map_err(|e| e.to_string())?;
    let text = json
        .get("query")
        .and_then(Json::as_str)
        .ok_or("no query field")?;
    let q = tr
        .span("query.parse", || parse_ucq(&text.replace(';', "\n")))
        .map_err(|e| e.to_string())?;
    let db = tr.span("server.lock_wait", || state.read_db());
    let result = tr.span("engine.eval", || {
        state
            .session()
            .eval_ucq_with(&q, &db, EvalOptions::default())
    });
    let generation = db.generation();
    drop(db);
    let lines = tr.span("semiring.render", || result_lines(&result));
    let bytes = tr.span("server.json_encode", || {
        let stats = state.session().stats();
        Response::json(
            200,
            &Json::Obj(vec![
                ("generation".to_owned(), Json::from_u64(generation)),
                ("rows".to_owned(), Json::from_u64(result.len() as u64)),
                ("cache".to_owned(), cache_json(&stats)),
                (
                    "results".to_owned(),
                    Json::Arr(lines.into_iter().map(Json::Str).collect()),
                ),
            ]),
        )
        .into_body_bytes()
        .len()
    });
    Ok(Done::Eval {
        result,
        bytes,
        cold: None,
    })
}

/// `/mutate` as the server's router runs it: parse, apply under the
/// write lock, make durable, answer.
fn served_mutate(state: &ServerState, body: &str, tr: &mut Tracer) -> Result<Done, String> {
    let json = tr
        .span("server.json_parse", || Json::parse(body))
        .map_err(|e| e.to_string())?;
    type Parsed = (
        Vec<(RelName, Tuple)>,
        Vec<(RelName, Tuple, prov_semiring::Annotation)>,
    );
    let (removes, inserts) = tr.span("storage.textio_parse", || -> Result<Parsed, String> {
        let lines = |field: &str| -> Vec<String> {
            json.get(field)
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_owned)
                .collect()
        };
        let mut parsed: Parsed = (Vec::new(), Vec::new());
        for line in lines("remove") {
            let (rel, tuple, _) = parse_tuple_line(&line)?.ok_or("blank remove line")?;
            parsed.0.push((rel, tuple));
        }
        for line in lines("insert") {
            let (rel, tuple, a) = parse_tuple_line(&line)?.ok_or("blank insert line")?;
            parsed
                .1
                .push((rel, tuple, a.ok_or("pool inserts carry annotations")?));
        }
        Ok(parsed)
    })?;
    let mut db = tr.span("server.lock_wait", || state.write_db());
    let from = db.generation();
    let outcome = tr.span("engine.apply_mutation", || {
        state.session().apply_mutation(&mut db, &removes, &inserts)
    });
    let rotated = tr
        .span("storage.wal_append", || {
            let mut store = state.durability().expect("the replay state is durable");
            match db.deltas_since(from) {
                Some([]) => Ok(false),
                Some(events) => store.append(events, &db),
                None => store.snapshot(&db).map(|()| true),
            }
        })
        .map_err(|e| format!("wal: {e}"))?;
    let tuples = db.num_tuples();
    drop(db);
    if outcome.inserted + outcome.removed != 1 {
        return Err(format!("mutation applied {outcome:?}, expected one change"));
    }
    let bytes = tr.span("server.json_encode", || {
        Response::json(
            200,
            &Json::Obj(vec![
                ("removed".to_owned(), Json::from_u64(outcome.removed as u64)),
                (
                    "inserted".to_owned(),
                    Json::from_u64(outcome.inserted as u64),
                ),
                ("tuples".to_owned(), Json::from_u64(tuples as u64)),
                ("generation".to_owned(), Json::from_u64(outcome.generation)),
                ("cache".to_owned(), Json::str(outcome.cache.as_str())),
            ]),
        )
        .into_body_bytes()
        .len()
    });
    Ok(Done::Mutate {
        generation: outcome.generation,
        rotated,
        bytes,
    })
}

/// `/minimize` as the server's router runs it.
fn served_minimize(body: &str, adjuncts: usize, tr: &mut Tracer) -> Result<Done, String> {
    let json = tr
        .span("server.json_parse", || Json::parse(body))
        .map_err(|e| e.to_string())?;
    let text = json
        .get("query")
        .and_then(Json::as_str)
        .ok_or("no query field")?;
    let q = tr
        .span("query.parse", || parse_ucq(&text.replace(';', "\n")))
        .map_err(|e| e.to_string())?;
    let mut minimizer = Minimizer::new(MinimizeOptions::default());
    let outcome = tr
        .span("core.minimize", || minimizer.minimize(&q))
        .map_err(|e| e.to_string())?;
    if !outcome.is_complete() || outcome.query().len() != adjuncts {
        return Err(format!(
            "minimize gave {} adjuncts, expected {adjuncts}",
            outcome.query().len()
        ));
    }
    let text = tr.span("query.render", || outcome.query().to_string());
    let bytes = tr.span("server.json_encode", || {
        Response::json(
            200,
            &Json::Obj(vec![
                ("status".to_owned(), Json::str("complete")),
                ("query".to_owned(), Json::Str(text)),
            ]),
        )
        .into_body_bytes()
        .len()
    });
    Ok(Done::Minimize {
        stats: minimizer.stats(),
        bytes,
    })
}

/// `provmin eval <file> <query>` as the CLI runs it, minus process
/// start and stdout.
fn cli_eval(db_file: &Path, text: &str, tr: &mut Tracer) -> Result<Done, String> {
    let db = tr.span("storage.textio_parse", || {
        let file = std::fs::read_to_string(db_file).map_err(|e| e.to_string())?;
        parse_database(&file).map_err(|e| e.to_string())
    })?;
    let q = tr
        .span("query.parse", || parse_ucq(&text.replace(';', "\n")))
        .map_err(|e| e.to_string())?;
    let (result, stats) = tr.span("engine.eval", || {
        let session = EvalSession::new();
        (session.eval_ucq(&q, &db), session.stats())
    });
    let bytes = tr.span("semiring.render", || {
        let mut out = String::new();
        for line in result_lines(&result) {
            out.push_str(&line);
            out.push('\n');
        }
        out.len()
    });
    tr.span("storage.free", || drop(db));
    Ok(Done::Eval {
        result,
        bytes,
        cold: Some(stats),
    })
}

/// Counts over the measured phase.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests replayed with spans on, and their summed wall time.
    pub traced: u64,
    /// Summed wall time of the traced requests.
    pub traced_ns: u64,
    /// Requests replayed with spans off, and their summed wall time.
    pub untraced: u64,
    /// Summed wall time of the untraced requests.
    pub untraced_ns: u64,
    /// All measured requests (traced or not); the counts below cover them.
    pub requests: u64,
    /// Evaluations.
    pub evals: u64,
    /// Full evaluations by the CLI replay's per-invocation sessions.
    pub cold_rebuilds: u64,
    /// Largest frontier of those sessions.
    pub cold_peak_frontier: u64,
    /// Rows returned by evaluations.
    pub rows_out: u64,
    /// Distinct monomials returned by evaluations.
    pub monomials_out: u64,
    /// Response (or CLI output) bytes.
    pub resp_bytes: u64,
    /// Mutations, their textio bytes, and what they cost storage.
    pub mutates: u64,
    /// Bytes of the mutation lines clients sent.
    pub user_bytes: u64,
    /// WAL frame bytes written for them.
    pub wal_bytes: u64,
    /// Snapshot bytes written by rotations.
    pub snapshot_bytes: u64,
    /// Snapshot rotations.
    pub rotations: u64,
    /// Minimizations and their summed work counters.
    pub minimizes: u64,
    /// Summed minimizer counters.
    pub core: MinimizeStats,
}

impl Tally {
    fn merge(&mut self, o: &Tally) {
        self.traced += o.traced;
        self.traced_ns += o.traced_ns;
        self.untraced += o.untraced;
        self.untraced_ns += o.untraced_ns;
        self.requests += o.requests;
        self.evals += o.evals;
        self.cold_rebuilds += o.cold_rebuilds;
        self.cold_peak_frontier = self.cold_peak_frontier.max(o.cold_peak_frontier);
        self.rows_out += o.rows_out;
        self.monomials_out += o.monomials_out;
        self.resp_bytes += o.resp_bytes;
        self.mutates += o.mutates;
        self.user_bytes += o.user_bytes;
        self.wal_bytes += o.wal_bytes;
        self.snapshot_bytes += o.snapshot_bytes;
        self.rotations += o.rotations;
        self.minimizes += o.minimizes;
        self.core.steps += o.core.steps;
        self.core.memo_dedup_skips += o.core.memo_dedup_skips;
        self.core.dominance_skips += o.core.dominance_skips;
        self.core.accepted_evictions += o.core.accepted_evictions;
        self.core.hom_checks += o.core.hom_checks;
    }
}

/// Everything the replay measured.
pub struct Replay {
    /// Counts over the measured phase.
    pub tally: Tally,
    /// Self time per span name over the traced requests.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Wall times of the untraced requests, per class, in ns.
    pub off_ns: Vec<Vec<u64>>,
    /// Session counters at the start and end of the measured phase.
    pub session: (SessionStats, SessionStats),
    /// Durability counters at the start and end of the measured phase.
    pub durability: (DurabilityCounters, DurabilityCounters),
    /// Recorded spans per thread (bounded).
    pub spans: Vec<Vec<Span>>,
    /// Requests replayed (all phases) and failures.
    pub attempted: u64,
    /// Requests whose replay failed or answered wrongly.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
}

/// Spans kept per thread for the JSON dump.
const KEEP_SPANS: usize = 4_096;

/// Whether request `id` of a thread is traced: a fixed pseudo-random half,
/// so traced and untraced requests share one time window and one query
/// mix, and their difference is the tracing overhead.
fn traced(id: u64) -> bool {
    crate::inputs::Rng::new(id, 99).next_u64() & 1 == 1
}

/// Replays `inputs`' stream: an untimed warm-up, then a measured phase in
/// which half the requests (see [`traced`]) run with spans on. Each
/// thread runs the same request class as in the served run. Scratch
/// files go under `dir`.
pub fn replay(
    inputs: &Inputs,
    dir: &Path,
    warmup: Duration,
    measured: Duration,
) -> Result<Replay, String> {
    let workload = inputs.workload;
    let state = if workload.served() {
        let data = dir.join("replay-data");
        inputs.write_data_dir(&data)?;
        let (store, db) = DurableStore::open(
            &data,
            DurabilityOptions {
                fsync: FsyncPolicy::Always,
                ..DurabilityOptions::default()
            },
        )?;
        Some(ServerState::with_durability(
            db,
            Some(store),
            DELTA_LOG_CAPACITY,
        ))
    } else {
        None
    };
    let db_file = dir.join("replay-db.txt");
    if !workload.served() {
        inputs.write_db_file(&db_file)?;
    }
    let adjuncts = inputs.minimal.as_ref().map_or(0, |m| m.len());
    let threads = workload.threads();
    let classes = inputs.classes().len();
    let streams: Vec<Mutex<Stream>> = (0..classes)
        .map(|c| Mutex::new(Stream::new(inputs, c)))
        .collect();
    let gate = Gate::new(threads, vec![warmup, measured]);
    let epoch = Instant::now();
    let snapshot = |state: &Option<ServerState>| {
        state.as_ref().map_or_else(
            || (SessionStats::default(), DurabilityCounters::default()),
            |s| {
                let durability = s.durability().map(|d| d.counters()).unwrap_or_default();
                (s.session().stats(), durability)
            },
        )
    };
    let mut marks = Vec::new();

    struct Worker {
        tracer: Tracer,
        tally: Tally,
        off_ns: Vec<u64>,
        class: usize,
        attempted: u64,
        failures: Vec<String>,
        failed: u64,
    }

    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let class = t.min(classes - 1);
                let (stream, gate, state, db_file) = (&streams[class], &gate, &state, &db_file);
                s.spawn(move || {
                    let mut w = Worker {
                        tracer: Tracer::new(epoch, KEEP_SPANS),
                        tally: Tally::default(),
                        off_ns: Vec::new(),
                        class,
                        attempted: 0,
                        failures: Vec::new(),
                        failed: 0,
                    };
                    let mut id = 0u64;
                    for p in 0..gate.phases() {
                        let deadline = gate.start(p);
                        while Instant::now() < deadline {
                            let request =
                                stream.lock().expect("stream lock").next().expect("endless");
                            let body = inputs.body(request);
                            id += 1;
                            w.tracer.on = p == 1 && traced(id);
                            let (done, ns) = w.tracer.request(id, |tr| match (request, state) {
                                (Request::Eval(i), None) => {
                                    cli_eval(db_file, &inputs.queries[i].text, tr)
                                }
                                (Request::Eval(_), Some(st)) => served_eval(st, &body, tr),
                                (Request::Insert(_) | Request::Remove(_), Some(st)) => {
                                    served_mutate(st, &body, tr)
                                }
                                (Request::Minimize(_), _) => served_minimize(&body, adjuncts, tr),
                                (_, None) => Err("the CLI replay only evaluates".to_owned()),
                            });
                            w.attempted += 1;
                            let done = done.and_then(|d| check(inputs, request, d));
                            let done = match done {
                                Ok(done) => done,
                                Err(e) => {
                                    w.failed += 1;
                                    if w.failures.len() < 5 {
                                        w.failures.push(e);
                                    }
                                    continue;
                                }
                            };
                            if p == 1 {
                                if w.tracer.on {
                                    w.tally.traced += 1;
                                    w.tally.traced_ns += ns;
                                } else {
                                    w.tally.untraced += 1;
                                    w.tally.untraced_ns += ns;
                                    w.off_ns.push(ns);
                                }
                                count(&mut w.tally, inputs, request, done, state.as_ref());
                            }
                        }
                        gate.end();
                    }
                    w
                })
            })
            .collect();
        gate.control(|_| marks.push(snapshot(&state)));
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });

    let mut replay = Replay {
        tally: Tally::default(),
        self_ns: BTreeMap::new(),
        off_ns: vec![Vec::new(); classes],
        session: (marks[0].0, marks[1].0),
        durability: (marks[0].1, marks[1].1),
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for w in workers {
        replay.tally.merge(&w.tally);
        for (name, ns) in w.tracer.self_ns {
            *replay.self_ns.entry(name).or_default() += ns;
        }
        replay.off_ns[w.class].extend(w.off_ns);
        replay.spans.push(w.tracer.kept);
        replay.attempted += w.attempted;
        replay.failed += w.failed;
        replay.failures.extend(w.failures);
    }
    Ok(replay)
}

/// The replayed answer must have the reference row count (the served run
/// checks contents; the replay checks it ran the same work).
fn check(inputs: &Inputs, request: Request, done: Done) -> Result<Done, String> {
    if let (Request::Eval(i), Done::Eval { result, .. }) = (request, &done) {
        let query = &inputs.queries[i];
        if inputs.workload != Workload::WriteMix && result.len() != query.rows() {
            return Err(format!(
                "{}: {} rows, expected {}",
                query.text,
                result.len(),
                query.rows()
            ));
        }
    }
    Ok(done)
}

/// Folds one measured request into the tally (outside its spans).
fn count(
    tally: &mut Tally,
    inputs: &Inputs,
    request: Request,
    done: Done,
    state: Option<&ServerState>,
) {
    tally.requests += 1;
    match done {
        Done::Eval {
            result,
            bytes,
            cold,
        } => {
            tally.evals += 1;
            if let Some(stats) = cold {
                tally.cold_rebuilds += stats.full_rebuilds;
                tally.cold_peak_frontier = tally.cold_peak_frontier.max(stats.peak_frontier_rows);
            }
            tally.rows_out += result.len() as u64;
            tally.monomials_out += result
                .iter()
                .map(|(_, p)| p.monomials().count() as u64)
                .sum::<u64>();
            tally.resp_bytes += bytes as u64;
        }
        Done::Mutate {
            generation,
            rotated,
            bytes,
        } => {
            let (i, kind, line) = match request {
                Request::Insert(i) => (i, DeltaKind::Insert, inputs.pool[i].insert_line()),
                Request::Remove(i) => (i, DeltaKind::Remove, inputs.pool[i].remove_line()),
                _ => unreachable!("mutations come from insert/remove requests"),
            };
            let tuple = &inputs.pool[i];
            let event = DeltaEvent {
                generation,
                kind,
                rel: RelName::new("R"),
                tuple: Tuple::of(&[&tuple.values[0], &tuple.values[1]]),
                annotation: prov_semiring::Annotation::new(&tuple.annotation),
            };
            tally.mutates += 1;
            tally.user_bytes += line.len() as u64;
            // A frame is an 8-byte length+CRC header plus its payload.
            tally.wal_bytes += 8 + encode_payload(&event).len() as u64;
            if rotated {
                tally.rotations += 1;
                if let Some(store) = state.and_then(ServerState::durability) {
                    let path = prov_storage::snapshot::snapshot_path(store.dir());
                    tally.snapshot_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
                }
            }
            tally.resp_bytes += bytes as u64;
        }
        Done::Minimize { stats, bytes } => {
            tally.minimizes += 1;
            tally.core.steps += stats.steps;
            tally.core.memo_dedup_skips += stats.memo_dedup_skips;
            tally.core.dominance_skips += stats.dominance_skips;
            tally.core.accepted_evictions += stats.accepted_evictions;
            tally.core.hom_checks += stats.hom_checks;
            tally.resp_bytes += bytes as u64;
        }
    }
}

/// Mean time, in ns, to enumerate every completion of a renamed `Q_3`
/// and key each canonically — the canonicalization part of `/minimize`
/// (`query.canonicalize`), measured on its own over the first renamings.
pub fn canonicalize_ns(inputs: &Inputs) -> Result<f64, String> {
    let sample = &inputs.renamings[..inputs.renamings.len().min(8)];
    let mut total = 0u128;
    for text in sample {
        let q = parse_ucq(text).map_err(|e| e.to_string())?;
        let consts = q.constants();
        let t0 = Instant::now();
        for adj in q.adjuncts() {
            for c in completions_iter(adj, &consts) {
                std::hint::black_box(canonical_key(&c.query));
            }
        }
        total += t0.elapsed().as_nanos();
    }
    Ok(total as f64 / sample.len().max(1) as f64)
}

/// The spans as a JSON document.
pub fn spans_json(spans: &[Vec<Span>]) -> String {
    let mut out = Vec::new();
    for (thread, list) in spans.iter().enumerate() {
        for s in list {
            out.push(Json::Obj(vec![
                ("thread".to_owned(), Json::from_u64(thread as u64)),
                ("request".to_owned(), Json::from_u64(s.request)),
                ("name".to_owned(), Json::str(s.name)),
                ("start_ns".to_owned(), Json::from_u64(s.start_ns)),
                ("end_ns".to_owned(), Json::from_u64(s.end_ns)),
                (
                    "parent".to_owned(),
                    s.parent.map_or(Json::Null, |p| Json::from_u64(p as u64)),
                ),
            ]));
        }
    }
    Json::Obj(vec![("spans".to_owned(), Json::Arr(out))]).to_string()
}
