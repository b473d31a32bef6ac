//! Driving `provmin serve`: boots from a prepared data directory, the
//! closed-loop keep-alive load, per-response checks, and the workload
//! self-checks read from `/stats`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prov_engine::EvalSession;
use prov_query::containment::equivalent;
use prov_query::parse_ucq;
use prov_server::client::{self, Client};
use prov_server::{serve_durable, Json, ServeConfig, ServerHandle};
use prov_storage::{DurabilityOptions, DurableStore, FsyncPolicy};

use crate::gate::Gate;
use crate::inputs::{canonical, Inputs, Request, Stream, Workload};

/// The flags every served workload runs the server with.
pub const SERVER_FLAGS: [&str; 4] = ["--fsync", "always", "--workers", "2"];

/// Where the server runs.
#[derive(Clone, Debug)]
pub enum Boot {
    /// The real `provmin serve` process (the benchmark proper).
    Process(PathBuf),
    /// `serve_durable` inside this process (the test suite's stand-in).
    InProcess,
}

/// A running server.
pub struct Server {
    addr: String,
    kind: Running,
}

enum Running {
    Process {
        child: Child,
        drain: Option<JoinHandle<()>>,
    },
    InProcess(Option<ServerHandle>),
}

impl Server {
    /// Starts a server on `data_dir` and returns once `GET /stats`
    /// answers 200: recovery and boot compaction are done.
    pub fn boot(boot: &Boot, data_dir: &Path) -> Result<Server, String> {
        match boot {
            Boot::Process(provmin) => {
                let mut child = Command::new(provmin)
                    .args(["serve", "--addr", "127.0.0.1:0"])
                    .args(SERVER_FLAGS)
                    .arg("--data-dir")
                    .arg(data_dir)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("spawning {}: {e}", provmin.display()))?;
                let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
                let mut line = String::new();
                let addr = loop {
                    line.clear();
                    if matches!(stderr.read_line(&mut line), Ok(0) | Err(_)) {
                        let _ = child.kill();
                        let status = child.wait().map_err(|e| e.to_string())?;
                        return Err(format!("provmin serve stopped before listening ({status})"));
                    }
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        break rest
                            .split_whitespace()
                            .next()
                            .unwrap_or_default()
                            .to_owned();
                    }
                };
                // Keep reading so a chatty server never blocks on a full pipe.
                let drain = std::thread::spawn(move || {
                    let _ = std::io::copy(&mut stderr, &mut std::io::sink());
                });
                let server = Server {
                    addr,
                    kind: Running::Process {
                        child,
                        drain: Some(drain),
                    },
                };
                server.wait_ready()?;
                Ok(server)
            }
            Boot::InProcess => {
                let (store, db) = DurableStore::open(
                    data_dir,
                    DurabilityOptions {
                        fsync: FsyncPolicy::Always,
                        ..DurabilityOptions::default()
                    },
                )?;
                let handle = serve_durable(
                    ServeConfig {
                        addr: "127.0.0.1:0".to_owned(),
                        workers: 2,
                        ..ServeConfig::default()
                    },
                    db,
                    Some(store),
                )
                .map_err(|e| format!("bind: {e}"))?;
                let server = Server {
                    addr: handle.addr().to_string(),
                    kind: Running::InProcess(Some(handle)),
                };
                server.wait_ready()?;
                Ok(server)
            }
        }
    }

    fn wait_ready(&self) -> Result<(), String> {
        match client::get(&self.addr, "/stats") {
            Ok((200, _)) => Ok(()),
            Ok((status, body)) => Err(format!("GET /stats answered {status}: {body}")),
            Err(e) => Err(format!("GET /stats: {e}")),
        }
    }

    /// `host:port` the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server's peak resident memory (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = match &self.kind {
            Running::Process { child, .. } => format!("/proc/{}/status", child.id()),
            Running::InProcess(_) => "/proc/self/status".to_owned(),
        };
        let text = std::fs::read_to_string(&status).map_err(|e| format!("{status}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {status}"))
    }

    /// Graceful shutdown (`POST /shutdown`), waiting for the process to
    /// exit 0 after its final snapshot.
    pub fn stop(mut self) -> Result<(), String> {
        match &mut self.kind {
            Running::Process { child, drain } => {
                let _ = client::post_json(&self.addr, "/shutdown", "{}");
                let deadline = Instant::now() + Duration::from_secs(30);
                let status = loop {
                    if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                        break status;
                    }
                    if Instant::now() > deadline {
                        return Err("provmin serve did not exit within 30 s of /shutdown".into());
                    }
                    std::thread::sleep(Duration::from_millis(5));
                };
                if let Some(drain) = drain.take() {
                    let _ = drain.join();
                }
                if status.success() {
                    Ok(())
                } else {
                    Err(format!("provmin serve exited with {status}"))
                }
            }
            Running::InProcess(handle) => {
                if let Some(handle) = handle.take() {
                    handle.shutdown();
                }
                Ok(())
            }
        }
    }
}

impl Drop for Server {
    /// A server abandoned on an error path is killed, never left running.
    fn drop(&mut self) {
        if let Running::Process { child, drain } = &mut self.kind {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
            if let Some(drain) = drain.take() {
                let _ = drain.join();
            }
        }
    }
}

/// What the closed loop measured and checked.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Timed latencies in milliseconds, per request class.
    pub latencies_ms: Vec<Vec<f64>>,
    /// Wall time of the timed window.
    pub window: Duration,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests that failed: transport error after one reconnect,
    /// non-200 status, or a wrong answer.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Connections the server closed (its per-connection request cap)
    /// and the client reopened.
    pub reconnects: u64,
    /// Response body bytes received in the window.
    pub resp_bytes: u64,
    /// Self-check and final-state violations (each fails the run).
    pub violations: Vec<String>,
}

impl LoadReport {
    /// An empty report for `classes` request classes.
    pub fn new(classes: usize) -> LoadReport {
        LoadReport {
            latencies_ms: vec![Vec::new(); classes],
            ..LoadReport::default()
        }
    }

    /// Counts one failed request.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Folds one load thread's report into this one.
    pub fn merge(&mut self, other: LoadReport) {
        for (mine, theirs) in self.latencies_ms.iter_mut().zip(other.latencies_ms) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reconnects += other.reconnects;
        self.resp_bytes += other.resp_bytes;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
    }
}

/// Per-run response checking state shared by the load threads.
struct Checks<'a> {
    inputs: &'a Inputs,
    /// Per query: the `results` bytes of its first response, once that
    /// response matched the reference canonically. Later responses of the
    /// same server are compared byte-for-byte against it.
    verified: Vec<OnceLock<Vec<u8>>>,
    /// `/minimize` responses kept for equivalence checking after the
    /// window: the first per renaming and every 16th.
    minimize_samples: Mutex<Vec<String>>,
    seen_renaming: Vec<OnceLock<()>>,
}

/// The number following `"key":` in a compact JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The `"results":[...]` tail of an `/eval` body.
fn results_slice(body: &str) -> Option<&[u8]> {
    body.find("\"results\":").map(|at| &body.as_bytes()[at..])
}

/// The strings of an `/eval` body's `results` array, which the server
/// writes last. Split by hand rather than with `Json::parse`, whose
/// string scanning re-validates UTF-8 to the end of the input at every
/// character: quadratic, seconds on a 200 KB answer. The benchmark's
/// values and annotations are generated identifiers, so an answer never
/// needs an escape; a backslash means a malformed body.
fn result_array(body: &str) -> Result<Vec<String>, String> {
    const KEY: &str = "\"results\":[";
    let at = body.find(KEY).ok_or("no results array")? + KEY.len();
    let inner = body[at..]
        .strip_suffix("]}")
        .ok_or("results array is not last")?;
    if inner.contains('\\') {
        return Err("escaped characters in results".into());
    }
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    let quoted = inner
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or("results are not strings")?;
    Ok(quoted.split("\",\"").map(str::to_owned).collect())
}

impl Checks<'_> {
    fn check(&self, request: Request, sample: bool, status: u16, body: &str) -> Result<(), String> {
        if status != 200 {
            return Err(format!("{} answered {status}: {body}", request.path()));
        }
        match request {
            Request::Eval(i) => {
                let query = &self.inputs.queries[i];
                let rows = json_u64(body, "rows").ok_or("no rows field")? as usize;
                // write_mix answers move with the writes; its final state is
                // checked once the window is over.
                if self.inputs.workload == Workload::WriteMix {
                    return Ok(());
                }
                if rows != query.rows() {
                    return Err(format!(
                        "{}: {rows} rows, expected {}",
                        query.text,
                        query.rows()
                    ));
                }
                let results = results_slice(body).ok_or("no results field")?;
                match self.verified[i].get() {
                    Some(expected) if sample && expected.as_slice() != results => {
                        Err(format!("{}: answer changed between responses", query.text))
                    }
                    Some(_) => Ok(()),
                    None => {
                        let lines = result_array(body)?;
                        if canonical(lines.iter().map(String::as_str))? != query.reference {
                            return Err(format!(
                                "{}: answer differs from the reference",
                                query.text
                            ));
                        }
                        let _ = self.verified[i].set(results.to_vec());
                        Ok(())
                    }
                }
            }
            Request::Insert(_) | Request::Remove(_) => {
                let want = if matches!(request, Request::Insert(_)) {
                    (1, 0)
                } else {
                    (0, 1)
                };
                let got = (json_u64(body, "inserted"), json_u64(body, "removed"));
                if got != (Some(want.0), Some(want.1)) {
                    return Err(format!("mutate counted {got:?}, expected {want:?}: {body}"));
                }
                Ok(())
            }
            Request::Minimize(i) => {
                if !body.contains("\"status\":\"complete\"") {
                    return Err(format!("minimize not complete: {body}"));
                }
                if self.seen_renaming[i].set(()).is_ok() || sample {
                    self.minimize_samples
                        .lock()
                        .expect("samples lock")
                        .push(body.to_owned());
                }
                Ok(())
            }
        }
    }

    /// Equivalence of the kept `/minimize` answers to the in-process
    /// reference minimization, with the same number of adjuncts.
    fn verify_minimize(&self) -> Result<(), String> {
        let reference = self
            .inputs
            .minimal
            .as_ref()
            .expect("minimize_qn has a reference");
        let samples = std::mem::take(&mut *self.minimize_samples.lock().expect("samples lock"));
        // Renamings usually minimize to the same text; check each once.
        let distinct: BTreeSet<String> = samples.into_iter().collect();
        for body in distinct {
            let json = Json::parse(&body).map_err(|e| e.to_string())?;
            let text = json
                .get("query")
                .and_then(Json::as_str)
                .ok_or("no query field")?;
            let answer = parse_ucq(&text.replace('∪', "")).map_err(|e| format!("{text}: {e}"))?;
            if answer.adjuncts().len() != reference.adjuncts().len() {
                return Err(format!(
                    "minimize returned {} adjuncts, reference has {}",
                    answer.adjuncts().len(),
                    reference.adjuncts().len()
                ));
            }
            if !equivalent(&answer, reference) {
                return Err(format!(
                    "minimize answer not equivalent to the reference: {text}"
                ));
            }
        }
        Ok(())
    }
}

/// One `/stats` snapshot's counters the self-checks read.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    full_rebuilds: u64,
    delta_applies: u64,
    fsyncs: u64,
    snapshots: u64,
}

fn counters(addr: &str) -> Result<Counters, String> {
    let (status, body) = client::get(addr, "/stats").map_err(|e| format!("GET /stats: {e}"))?;
    if status != 200 {
        return Err(format!("GET /stats answered {status}"));
    }
    let json = Json::parse(&body).map_err(|e| e.to_string())?;
    let read = |section: &str, key: &str| {
        json.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .ok_or(format!("/stats lacks {section}.{key}"))
    };
    Ok(Counters {
        full_rebuilds: read("cache", "full_rebuilds")?,
        delta_applies: read("cache", "delta_applies")?,
        fsyncs: read("durability", "fsyncs")?,
        snapshots: read("durability", "snapshots_written")?,
    })
}

/// Mutations between snapshot rotations (the server's default
/// `--snapshot-every`).
pub const SNAPSHOT_EVERY: u64 = 256;

/// Snapshot rotations `write_mix` must see per second of window: at least
/// four in the 10 s default.
pub const MIN_ROTATIONS_PER_S: f64 = 0.4;

/// Runs the workload's closed loop against `server`: `warmup` untimed,
/// then `window` timed, one keep-alive connection per load thread.
/// Checks every response, then the workload's `/stats` properties and
/// (for `write_mix`) the final answers.
pub fn drive(server: &Server, inputs: &Inputs, warmup: Duration, window: Duration) -> LoadReport {
    let workload = inputs.workload;
    let threads = workload.threads();
    let classes = inputs.classes().len();
    let streams: Vec<Mutex<Stream>> = (0..classes)
        .map(|c| Mutex::new(Stream::new(inputs, c)))
        .collect();
    let checks = Checks {
        inputs,
        verified: inputs.queries.iter().map(|_| OnceLock::new()).collect(),
        minimize_samples: Mutex::new(Vec::new()),
        seen_renaming: inputs.renamings.iter().map(|_| OnceLock::new()).collect(),
    };
    let gate = Gate::new(threads, vec![warmup, window]);
    let addr = server.addr();
    let mut report = LoadReport::new(classes);
    let mut before = Ok(Counters::default());
    let mut after = Ok(Counters::default());

    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                // write_mix gives each class its own connection; the other
                // workloads share one stream across both.
                let class = t.min(classes - 1);
                let (stream, gate, checks) = (&streams[class], &gate, &checks);
                s.spawn(move || {
                    let mut local = LoadReport::new(classes);
                    let mut client = Client::connect(addr).ok();
                    let mut sent = 0u64;
                    for phase in 0..gate.phases() {
                        let timed = phase == 1;
                        let deadline = gate.start(phase);
                        while Instant::now() < deadline {
                            let request =
                                stream.lock().expect("stream lock").next().expect("endless");
                            let body = inputs.body(request);
                            let t0 = Instant::now();
                            let response =
                                send(&mut client, addr, request, &body, &mut local.reconnects);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            local.attempted += 1;
                            let sample = sent.is_multiple_of(16);
                            sent += 1;
                            let outcome = response.and_then(|(status, text)| {
                                if timed {
                                    local.resp_bytes += text.len() as u64;
                                }
                                checks.check(request, sample, status, &text)
                            });
                            match outcome {
                                Ok(()) if timed => local.latencies_ms[class].push(ms),
                                Ok(()) => {}
                                Err(e) => local.fail(e),
                            }
                        }
                        gate.end();
                    }
                    local
                })
            })
            .collect();

        let phases = gate.control(|p| {
            if p == 0 {
                before = counters(addr);
            } else {
                after = counters(addr);
            }
        });
        report.window = phases[1];
        for worker in workers {
            let local = worker.join().expect("load thread panicked");
            report.merge(local);
        }
    });

    if report.failed == 0 {
        let timed: Vec<u64> = report.latencies_ms.iter().map(|l| l.len() as u64).collect();
        match (before, after) {
            (Ok(b), Ok(a)) => report
                .violations
                .extend(self_check(workload, b, a, &timed, window)),
            (Err(e), _) | (_, Err(e)) => report.violations.push(e),
        }
        if workload == Workload::MinimizeQn {
            if let Err(e) = checks.verify_minimize() {
                report.violations.push(e);
            }
        }
        if workload == Workload::WriteMix {
            let present = streams[0].lock().expect("stream lock").present().to_vec();
            if let Err(e) = final_answers(addr, inputs, &present) {
                report.violations.push(e);
            }
        }
    }
    report
}

/// One round trip; a connection the server closed (after its
/// per-connection request cap) is reopened once and the request resent.
fn send(
    client: &mut Option<Client>,
    addr: &str,
    request: Request,
    body: &str,
    reconnects: &mut u64,
) -> Result<(u16, String), String> {
    if let Some(c) = client.as_mut() {
        if let Ok(response) = c.post_json(request.path(), body) {
            return Ok(response);
        }
        *reconnects += 1;
    }
    *client = None;
    let mut fresh = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = fresh
        .post_json(request.path(), body)
        .map_err(|e| format!("{}: {e}", request.path()));
    *client = Some(fresh);
    response
}

/// The workload properties `/stats` must show across the timed window;
/// a workload that lost its property would quietly measure something
/// else.
fn self_check(
    workload: Workload,
    b: Counters,
    a: Counters,
    timed: &[u64],
    window: Duration,
) -> Vec<String> {
    let rebuilds = a.full_rebuilds - b.full_rebuilds;
    let mut out = Vec::new();
    match workload {
        Workload::ReadSmall | Workload::ReadLarge if rebuilds != 0 => {
            out.push(format!(
                "{rebuilds} full rebuilds in the window; every request should hit"
            ));
        }
        Workload::ReadMiss if rebuilds != timed[0] => {
            out.push(format!(
                "{rebuilds} full rebuilds for {} requests; every request should miss",
                timed[0]
            ));
        }
        Workload::WriteMix => {
            if a.delta_applies == b.delta_applies {
                out.push("no delta applies in the window".to_owned());
            }
            if rebuilds != 0 {
                out.push(format!(
                    "{rebuilds} full rebuilds in the window; writes should apply as deltas"
                ));
            }
            if a.fsyncs - b.fsyncs < timed[0] {
                out.push(format!(
                    "{} fsyncs for {} acknowledged mutations",
                    a.fsyncs - b.fsyncs,
                    timed[0]
                ));
            }
            let rotations = a.snapshots - b.snapshots;
            let want = (timed[0] / SNAPSHOT_EVERY)
                .max((MIN_ROTATIONS_PER_S * window.as_secs_f64()) as u64);
            if rotations < want {
                out.push(format!(
                    "{rotations} snapshot rotations for {} mutations in the window, expected at least {want}",
                    timed[0]
                ));
            }
        }
        _ => {}
    }
    out
}

/// `write_mix`: every query's served answer must equal the reference
/// database after all acknowledged mutations.
fn final_answers(addr: &str, inputs: &Inputs, present: &[bool]) -> Result<(), String> {
    let db = inputs.db_with_pool(present);
    let session = EvalSession::new();
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for (i, query) in inputs.queries.iter().enumerate() {
        let (status, body) = conn
            .post_json("/eval", &inputs.body(Request::Eval(i)))
            .map_err(|e| format!("final /eval: {e}"))?;
        if status != 200 {
            return Err(format!("final /eval answered {status}"));
        }
        let q = parse_ucq(&query.text).map_err(|e| e.to_string())?;
        let want = crate::inputs::result_lines(&session.eval_ucq(&q, &db));
        let got = result_array(&body)?;
        if canonical(got.iter().map(String::as_str))? != canonical(want.iter().map(String::as_str))?
        {
            return Err(format!(
                "{}: final answer differs from the reference database",
                query.text
            ));
        }
    }
    Ok(())
}
