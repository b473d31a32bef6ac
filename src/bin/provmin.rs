//! `provmin` — command-line front end: evaluate queries with provenance,
//! minimize them, and compute core provenance.
//!
//! ```text
//! provmin eval     <db-file> '<query>'        annotated evaluation
//! provmin minimize '<query>'                  p-minimal equivalent (MinProv)
//! provmin core     <db-file> '<query>'        core provenance per tuple
//! provmin trace    '<query>'                  MinProv step-by-step
//! provmin datalog  <db-file> <program> <pred> evaluate + core a pipeline
//! provmin serve    [--addr H:P] [--db FILE]   long-running HTTP query service
//! provmin recover  --data-dir DIR [--check]   offline recovery check/compact
//! provmin fuzz     [--spec NAME] [--seed N]   differential fuzzing over DSL
//!                  [--cases N | --case K]     workloads (docs/FUZZING.md)
//! ```
//!
//! `eval` and `core` run the engine's one evaluator, the columnar batched
//! pipeline, and accept its flags anywhere on the command line (none of
//! them changes a result):
//!
//! * `--threads N` — split the first atom's frontier across up to `N`
//!   worker threads, at most 64 (⊕ is commutative, so the merged result
//!   equals the sequential one).
//! * `--chunk-rows N` — frontier chunk size of the batched pipeline
//!   (default 65536, `0` = unchunked): bounds peak evaluation memory at
//!   O(chunk × one step's fan-out) with bit-identical results (see the
//!   memory-bounded-evaluation section of `docs/PERF.md`).
//! * `--cache-stats` — print the session's cache counters to stderr, in
//!   the same schema as the server's `/stats` cache object: view-cache
//!   `hits`/`misses` plus the incremental-maintenance counters
//!   `delta_applies`/`full_rebuilds`/`monomials_dropped` and the
//!   `peak_frontier_rows` high-water mark (all disjuncts of a union
//!   share one index build via the session).
//!
//! `minimize` accepts engine flags (see `docs/MINIMIZE.md`):
//!
//! * `--strategy minprov|auto|standard|dedup` — minimization strategy
//!   (default `minprov`).
//! * `--budget-steps N` / `--budget-ms N` — step / wall-clock budget.
//!   A budget-exhausted run prints the best sound partial result plus its
//!   resume cursor and exits with code 3 (distinct from errors).
//!
//! `serve` starts the long-running HTTP/1.1 service over the shared
//! generation-keyed index cache (see `docs/SERVER.md`):
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7171`).
//! * `--workers N` — request worker threads (default 4).
//! * `--db FILE` — database to load at startup (else start empty and
//!   `POST /load`).
//! * `--data-dir DIR` — persist to a write-ahead log + snapshots and
//!   recover from them on boot (see `docs/DURABILITY.md`).
//! * `--fsync always|interval` — WAL fsync policy with `--data-dir`
//!   (default `always`: a 200 means the mutation survives a crash).
//! * `--snapshot-every N` — rotate a compacted snapshot after N WAL
//!   events (default 256; 0 = only at shutdown/`/load`).
//! * `--delta-capacity N` — delta-log window of the served database
//!   (default 64).
//!
//! It runs until SIGINT (Ctrl-C), SIGTERM, or `POST /shutdown`, then
//! drains in-flight requests, rotates a final snapshot when persistent,
//! and exits cleanly.
//!
//! `recover` opens a `--data-dir` offline, prints the recovery report
//! (snapshot generation/tuples, WAL events replayed, bytes dropped from
//! a torn tail), and — unless `--check` — compacts the directory into a
//! fresh snapshot with an empty WAL.
//!
//! `fuzz` differentially checks DSL-generated scenarios (every thread
//! count × chunk size bit-identical to the Def 2.6 oracle,
//! semiring specialization consistent, every eligible minimize strategy
//! equivalent with sound budgeted partials, MinProv adjunct-wise
//! isomorphic to the literal Algorithm 1). Exit codes: 0 = all cases
//! agree, 1 = divergence (the reproducing `(spec, seed, case)` triple is
//! printed), 2 = flag errors. `--list-specs` prints the built-in spec
//! names; `--case K` replays exactly one case. See `docs/FUZZING.md`.
//!
//! Queries use the rule syntax (unions: join rules with ';'):
//! `ans(x) :- R(x,y), R(y,x), x != y ; ans(x) :- R(x,x)`.
//! Databases use the text format: one `R(a, b) : s1` per line.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicI32, Ordering};

use provmin::core::minimize::{minimize_with, MinimizeOptions, MinimizeOutcome, Strategy};
use provmin::datalog::{core_query, evaluate, Program};
use provmin::engine::{EvalOptions, EvalSession, MAX_THREADS};
use provmin::prelude::*;
use provmin::storage::textio::parse_database;

/// Exit code for a budget-exhausted (partial but sound) minimization.
const EXIT_BUDGET_EXHAUSTED: u8 = 3;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  provmin eval [--threads N] [--chunk-rows N] [--cache-stats] <db-file> '<query>'\n  \
         provmin minimize [--strategy minprov|auto|standard|dedup] [--budget-steps N] [--budget-ms N] '<query>'\n  \
         provmin core [--threads N] [--chunk-rows N] [--cache-stats] <db-file> '<query>'\n  \
         provmin trace '<query>'\n  \
         provmin datalog <db-file> <program-file> <predicate>\n  \
         provmin serve [--addr HOST:PORT] [--workers N] [--db FILE] [--max-conns N] [--keepalive-timeout SECS]\n  \
         \u{20}             [--data-dir DIR] [--fsync always|interval] [--snapshot-every N] [--delta-capacity N]\n  \
         provmin recover --data-dir DIR [--check]\n  \
         provmin fuzz [--spec NAME] [--seed N] [--cases N | --case K] [--chunk-rows N] [--list-specs]"
    );
    ExitCode::from(2)
}

/// Extracts `--threads`/`--chunk-rows`/`--cache-stats` flags from
/// the argument list, returning the remaining positional arguments, the
/// resulting options, whether cache stats were requested, and whether any
/// flag was present (only `eval`/`core` accept them).
fn parse_eval_flags(args: &[String]) -> Result<(Vec<String>, EvalOptions, bool, bool), String> {
    let mut options = EvalOptions::default();
    let mut positional = Vec::new();
    let mut cache_stats = false;
    let mut flags_used = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                flags_used = true;
                let n: usize = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--threads must be a positive integer".to_owned());
                }
                if n > MAX_THREADS {
                    return Err(format!("--threads must be at most {MAX_THREADS}"));
                }
                options = options.with_parallelism(n);
            }
            "--chunk-rows" => {
                flags_used = true;
                let n: usize = it
                    .next()
                    .ok_or("--chunk-rows needs a value")?
                    .parse()
                    .map_err(|_| "--chunk-rows must be an integer".to_owned())?;
                // 0 disables chunking (unbounded frontier), matching the
                // engine's `effective_chunk_rows` convention.
                options = if n == 0 {
                    options.unchunked()
                } else {
                    options.with_chunk_rows(n)
                };
            }
            "--cache-stats" => {
                flags_used = true;
                cache_stats = true;
            }
            _ => positional.push(arg.clone()),
        }
    }
    Ok((positional, options, cache_stats, flags_used))
}

/// Extracts `minimize`'s engine flags, returning the remaining positional
/// arguments, the resulting options, and whether any flag was present.
fn parse_minimize_flags(args: &[String]) -> Result<(Vec<String>, MinimizeOptions, bool), String> {
    let mut options = MinimizeOptions::default();
    let mut positional = Vec::new();
    let mut flags_used = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strategy" => {
                flags_used = true;
                options.strategy = match it.next().ok_or("--strategy needs a value")?.as_str() {
                    "minprov" => Strategy::MinProv,
                    "auto" => Strategy::Auto,
                    "standard" => Strategy::Standard,
                    "dedup" => Strategy::CompleteDedup,
                    other => return Err(format!("unknown strategy {other}")),
                };
            }
            "--budget-steps" => {
                flags_used = true;
                let n: u64 = it
                    .next()
                    .ok_or("--budget-steps needs a value")?
                    .parse()
                    .map_err(|_| "--budget-steps must be an integer".to_owned())?;
                options.budget.max_steps = Some(n);
            }
            "--budget-ms" => {
                flags_used = true;
                let ms: u64 = it
                    .next()
                    .ok_or("--budget-ms needs a value")?
                    .parse()
                    .map_err(|_| "--budget-ms must be an integer".to_owned())?;
                options.budget.max_duration = Some(std::time::Duration::from_millis(ms));
            }
            _ => positional.push(arg.clone()),
        }
    }
    Ok((positional, options, flags_used))
}

fn parse_query(text: &str) -> Result<UnionQuery, String> {
    let rules = text.replace(';', "\n");
    parse_ucq(&rules).map_err(|e| e.to_string())
}

fn load_db(path: &str) -> Result<Database, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_database(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `fuzz`, `serve`, and `recover` parse their own flags from the
    // arguments after the subcommand (fuzz shares `--chunk-rows` with
    // eval/core), so the global eval/minimize flag extraction must not
    // run for them — it would consume their flags first.
    let subcommand_owns_flags = matches!(
        args.first().map(String::as_str),
        Some("fuzz" | "serve" | "recover")
    );
    let (args, options, cache_stats, eval_flags_used) = if subcommand_owns_flags {
        (args, EvalOptions::default(), false, false)
    } else {
        match parse_eval_flags(&args) {
            Ok(parsed) => parsed,
            Err(message) => {
                eprintln!("error: {message}");
                return usage();
            }
        }
    };
    if eval_flags_used && !matches!(args.first().map(String::as_str), Some("eval" | "core")) {
        eprintln!("error: --threads/--chunk-rows/--cache-stats only apply to eval and core");
        return usage();
    }
    let (args, minimize_options, minimize_flags_used) = if subcommand_owns_flags {
        (args, MinimizeOptions::default(), false)
    } else {
        match parse_minimize_flags(&args) {
            Ok(parsed) => parsed,
            Err(message) => {
                eprintln!("error: {message}");
                return usage();
            }
        }
    };
    if minimize_flags_used && args.first().map(String::as_str) != Some("minimize") {
        eprintln!("error: --strategy/--budget-* only apply to minimize");
        return usage();
    }
    let result = match args.as_slice() {
        [cmd, rest @ ..] if cmd == "fuzz" => {
            // `fuzz` has its own exit-code contract (0 agree / 1
            // divergence / 2 flag errors), so it bypasses the shared
            // Ok/Err mapping below.
            return match parse_fuzz_flags(rest) {
                Ok(FuzzCommand::ListSpecs) => {
                    for name in provmin::workload::ScenarioSpec::names() {
                        println!("{name}");
                    }
                    ExitCode::SUCCESS
                }
                Ok(FuzzCommand::Run(fuzz_options)) => run_fuzz(&fuzz_options),
                Err(message) => {
                    eprintln!("error: {message}");
                    usage()
                }
            };
        }
        [cmd, rest @ ..] if cmd == "serve" => match parse_serve_flags(rest) {
            Ok(serve_args) => run_serve(serve_args).map(|()| true),
            Err(message) => {
                // Flag-shape problems are usage errors (exit 2), like
                // every other subcommand; runtime failures (bind, db
                // load) exit 1 from run_serve.
                eprintln!("error: {message}");
                return usage();
            }
        },
        [cmd, rest @ ..] if cmd == "recover" => match parse_recover_flags(rest) {
            Ok(recover_args) => run_recover(recover_args).map(|()| true),
            Err(message) => {
                eprintln!("error: {message}");
                return usage();
            }
        },
        [cmd, db_path, query] if cmd == "eval" || cmd == "core" => {
            run_with_db(cmd, db_path, query, options, cache_stats).map(|()| true)
        }
        [cmd, query] if cmd == "minimize" => run_minimize(query, minimize_options),
        [cmd, query] if cmd == "trace" => run_trace(query).map(|()| true),
        [cmd, db_path, program_path, pred] if cmd == "datalog" => {
            run_datalog(db_path, program_path, pred).map(|()| true)
        }
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_BUDGET_EXHAUSTED),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The signal number (SIGINT or SIGTERM) received by the handler, or 0;
/// polled by the `serve` wait loop. Both signals mean the same thing:
/// drain in-flight requests, rotate a final snapshot when persistent,
/// exit 0 — so `kill <pid>` from a process supervisor is as safe as
/// Ctrl-C.
static SHUTDOWN_SIGNAL: AtomicI32 = AtomicI32::new(0);

extern "C" fn on_shutdown_signal(signum: i32) {
    // Only async-signal-safe work here: record the signal and return.
    SHUTDOWN_SIGNAL.store(signum, Ordering::SeqCst);
}

/// Routes SIGINT (Ctrl-C) and SIGTERM (supervisor stop) to
/// [`SHUTDOWN_SIGNAL`] so the serve loop can drain and exit cleanly
/// instead of being killed mid-request.
#[cfg(unix)]
fn install_shutdown_handlers() {
    extern "C" {
        // libc's simplified signal registration; the handler pointer has
        // the exact C signature, so no cast is involved.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal);
        signal(SIGTERM, on_shutdown_signal);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handlers() {}

/// Human-readable name for the signals [`install_shutdown_handlers`]
/// registers.
fn signal_name(signum: i32) -> &'static str {
    match signum {
        2 => "SIGINT",
        15 => "SIGTERM",
        _ => "signal",
    }
}

/// Parsed `provmin fuzz` invocation.
enum FuzzCommand {
    /// `--list-specs`: print the built-in spec names and exit 0.
    ListSpecs,
    /// A fuzzing run.
    Run(provmin::fuzz::FuzzOptions),
}

/// Extracts `fuzz`'s flags; errors (including an unknown `--spec`) are
/// usage errors (exit 2).
fn parse_fuzz_flags(args: &[String]) -> Result<FuzzCommand, String> {
    let mut options = provmin::fuzz::FuzzOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--list-specs" => return Ok(FuzzCommand::ListSpecs),
            "--spec" => {
                let name = value("--spec")?;
                if !provmin::workload::ScenarioSpec::names().contains(&name.as_str()) {
                    return Err(format!(
                        "unknown spec {name} (one of: {})",
                        provmin::workload::ScenarioSpec::names().join(", ")
                    ));
                }
                options.spec = name;
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_owned())?;
            }
            "--cases" => {
                let n: u64 = value("--cases")?
                    .parse()
                    .map_err(|_| "--cases must be a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--cases must be a positive integer".to_owned());
                }
                options.cases = n;
            }
            "--case" => {
                options.start = value("--case")?
                    .parse()
                    .map_err(|_| "--case must be an integer".to_owned())?;
                options.cases = 1;
            }
            "--chunk-rows" => {
                let n: usize = value("--chunk-rows")?
                    .parse()
                    .map_err(|_| "--chunk-rows must be an integer".to_owned())?;
                options.chunk_rows = Some(n);
            }
            other => return Err(format!("unknown fuzz flag {other}")),
        }
    }
    Ok(FuzzCommand::Run(options))
}

/// `provmin fuzz`: exit 0 on agreement, 1 on divergence (with the
/// reproducing triple printed), 1 on setup failures.
fn run_fuzz(options: &provmin::fuzz::FuzzOptions) -> ExitCode {
    use provmin::fuzz::FuzzVerdict;
    match provmin::fuzz::run(options) {
        Ok(FuzzVerdict::Agreement {
            cases,
            eval_configs,
        }) => {
            println!(
                "fuzz: OK — {cases} case(s) of spec={} seed={} agree across {} eval configs, \
                 semiring specialization, and every eligible minimize strategy \
                 (MinProv against the literal Algorithm 1)",
                options.spec, options.seed, eval_configs
            );
            ExitCode::SUCCESS
        }
        Ok(FuzzVerdict::Diverged(divergence)) => {
            println!("fuzz: DIVERGENCE {}", divergence.replay);
            println!("  {}", divergence.detail);
            println!(
                "replay: provmin fuzz --spec {} --seed {} --case {}",
                divergence.spec, divergence.seed, divergence.case
            );
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `provmin serve` arguments.
struct ServeArgs {
    config: provmin::server::ServeConfig,
    db_path: Option<String>,
    data_dir: Option<String>,
    durability: provmin::storage::DurabilityOptions,
}

/// Extracts `serve`'s flags; errors here are usage errors (exit 2).
fn parse_serve_flags(args: &[String]) -> Result<ServeArgs, String> {
    let mut config = provmin::server::ServeConfig::default();
    let mut db_path: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut durability = provmin::storage::DurabilityOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--workers must be a positive integer".to_owned());
                }
                config.workers = n;
            }
            "--db" => db_path = Some(value("--db")?),
            "--max-conns" => {
                let n: usize = value("--max-conns")?
                    .parse()
                    .map_err(|_| "--max-conns must be a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--max-conns must be a positive integer".to_owned());
                }
                config.max_conns = n;
            }
            "--keepalive-timeout" => {
                let secs: u64 = value("--keepalive-timeout")?
                    .parse()
                    .map_err(|_| "--keepalive-timeout must be whole seconds".to_owned())?;
                if secs == 0 {
                    return Err("--keepalive-timeout must be whole seconds".to_owned());
                }
                config.keepalive_timeout = std::time::Duration::from_secs(secs);
            }
            "--data-dir" => data_dir = Some(value("--data-dir")?),
            "--fsync" => {
                durability.fsync = provmin::storage::FsyncPolicy::parse(&value("--fsync")?)?;
            }
            "--snapshot-every" => {
                durability.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|_| "--snapshot-every must be an integer".to_owned())?;
            }
            "--delta-capacity" => {
                let n: usize = value("--delta-capacity")?
                    .parse()
                    .map_err(|_| "--delta-capacity must be an integer".to_owned())?;
                config.delta_capacity = n;
                durability.delta_capacity = n;
            }
            other => return Err(format!("unknown serve flag {other}")),
        }
    }
    if data_dir.is_none()
        && args
            .iter()
            .any(|a| a == "--fsync" || a == "--snapshot-every")
    {
        return Err("--fsync/--snapshot-every need --data-dir".to_owned());
    }
    Ok(ServeArgs {
        config,
        db_path,
        data_dir,
        durability,
    })
}

/// `provmin serve`: bind, serve until SIGINT/SIGTERM or `POST /shutdown`,
/// drain (rotating a final snapshot when persistent).
fn run_serve(args: ServeArgs) -> Result<(), String> {
    let ServeArgs {
        config,
        db_path,
        data_dir,
        durability,
    } = args;
    // Open the data directory before building any other database:
    // recovery raises the process generation floor above everything
    // persisted, which must happen before new stamps are minted.
    let (mut store, recovered) = match &data_dir {
        Some(dir) => {
            let (store, db) =
                provmin::storage::DurableStore::open(std::path::Path::new(dir), durability)?;
            let r = store.last_recovery();
            eprintln!(
                "provmin serve: recovered {dir} — snapshot gen {} ({} tuple(s)), \
                 wal {} replayed / {} stale / {} byte(s) dropped",
                r.snapshot_generation,
                r.snapshot_tuples,
                r.wal_replayed,
                r.wal_skipped,
                r.wal_dropped_bytes
            );
            if let Some(why) = &r.corruption {
                eprintln!("provmin serve: recovery truncated the wal tail: {why}");
            }
            (Some(store), Some(db))
        }
        None => (None, None),
    };
    let db = match &db_path {
        Some(path) => {
            // An explicit `--db` starts a new lineage: it replaces
            // whatever the data directory held and is persisted as the
            // fresh snapshot before the first request is served.
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let mut db = Database::with_delta_capacity(config.delta_capacity);
            provmin::storage::textio::parse_database_into(&mut db, &text)
                .map_err(|e| format!("{path}: {e}"))?;
            if let Some(store) = store.as_mut() {
                store
                    .snapshot(&db)
                    .map_err(|e| format!("persisting {path}: {e}"))?;
            }
            db
        }
        None => recovered.unwrap_or_else(|| Database::with_delta_capacity(config.delta_capacity)),
    };
    let tuples = db.num_tuples();
    let handle = provmin::server::serve_durable(config.clone(), db, store)
        .map_err(|e| format!("bind {}: {e}", config.addr))?;
    install_shutdown_handlers();
    eprintln!(
        "provmin serve: listening on http://{} ({} worker(s), {} tuple(s) loaded{})",
        handle.addr(),
        config.workers,
        tuples,
        match &data_dir {
            Some(dir) => format!(", persisting to {dir}"),
            None => String::new(),
        }
    );
    loop {
        let signum = SHUTDOWN_SIGNAL.load(Ordering::SeqCst);
        if signum != 0 {
            eprintln!("provmin serve: {} — draining", signal_name(signum));
            handle.state().request_shutdown();
        }
        if handle.state().shutdown_requested() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.shutdown();
    eprintln!("provmin serve: shutdown complete");
    Ok(())
}

/// Parsed `provmin recover` arguments.
struct RecoverArgs {
    data_dir: String,
    check: bool,
}

/// Extracts `recover`'s flags; errors here are usage errors (exit 2).
fn parse_recover_flags(args: &[String]) -> Result<RecoverArgs, String> {
    let mut data_dir: Option<String> = None;
    let mut check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data-dir" => {
                data_dir = Some(it.next().cloned().ok_or("--data-dir needs a value")?);
            }
            "--check" => check = true,
            other => return Err(format!("unknown recover flag {other}")),
        }
    }
    Ok(RecoverArgs {
        data_dir: data_dir.ok_or("recover needs --data-dir")?,
        check,
    })
}

/// `provmin recover`: offline recovery of a data directory. `--check`
/// only reads and reports; the default additionally compacts the
/// directory into a fresh snapshot with an empty WAL. A torn tail is
/// reported, not fatal (exit 0) — an unreadable snapshot is fatal
/// (exit 1).
fn run_recover(args: RecoverArgs) -> Result<(), String> {
    let dir = std::path::Path::new(&args.data_dir);
    let report = if args.check {
        let (db, report) =
            provmin::storage::recover_readonly(dir, provmin::storage::DELTA_LOG_CAPACITY)?;
        println!(
            "recover --check: {} tuple(s) recoverable from {}",
            db.num_tuples(),
            args.data_dir
        );
        report
    } else {
        let (store, db) = provmin::storage::DurableStore::open(
            dir,
            provmin::storage::DurabilityOptions::default(),
        )?;
        println!(
            "recover: compacted {} into a fresh snapshot ({} tuple(s))",
            args.data_dir,
            db.num_tuples()
        );
        store.last_recovery().clone()
    };
    println!(
        "  snapshot: generation {} ({} tuple(s))",
        report.snapshot_generation, report.snapshot_tuples
    );
    println!(
        "  wal: {} replayed, {} stale, {} byte(s) dropped",
        report.wal_replayed, report.wal_skipped, report.wal_dropped_bytes
    );
    if let Some(why) = &report.corruption {
        println!("  corruption: {why}");
    }
    Ok(())
}

fn run_with_db(
    cmd: &str,
    db_path: &str,
    query: &str,
    options: EvalOptions,
    cache_stats: bool,
) -> Result<(), String> {
    let db = load_db(db_path)?;
    let q = parse_query(query)?;
    // One session per invocation: every disjunct of the union shares a
    // single index/columnar build and one materialized result.
    // (`exact_core` below works on the polynomial directly and takes no
    // index.)
    let session = EvalSession::with_options(options);
    let result = session.eval_ucq(&q, &db);
    if cache_stats {
        // Same counter schema as the server's `/stats` cache object.
        let stats = session.stats();
        eprintln!(
            "cache: hits={} misses={} delta_applies={} full_rebuilds={} monomials_dropped={} peak_frontier_rows={}",
            stats.views.hits,
            stats.views.misses,
            stats.delta_applies,
            stats.full_rebuilds,
            stats.monomials_dropped,
            stats.peak_frontier_rows
        );
    }
    // Rows rendered before a failing core still reach stdout, as they
    // did when each row was printed on its own; the core's error is the
    // one reported.
    let mut rows = Ok(());
    let written = write_stdout(|out| {
        rows = write_rows(out, cmd, &result, &q, &db)?;
        Ok(())
    });
    rows.and(written)
}

/// Writes `eval`/`core` output rows, one per tuple. A core that cannot be
/// computed ends the rows early and comes back as the inner error.
fn write_rows(
    out: &mut dyn Write,
    cmd: &str,
    result: &provmin::engine::AnnotatedResult,
    q: &UnionQuery,
    db: &Database,
) -> std::io::Result<Result<(), String>> {
    if result.is_empty() {
        writeln!(out, "(empty result)")?;
        return Ok(Ok(()));
    }
    for (tuple, p) in result.iter() {
        match cmd {
            "eval" => writeln!(out, "{tuple}  [{p}]")?,
            _core => {
                let consts = q.constants();
                let core = match exact_core(p, db, tuple, &consts) {
                    Ok(core) => core,
                    Err(e) => return Ok(Err(format!("core of {tuple}: {e}"))),
                };
                writeln!(out, "{tuple}  [{core}]   (from [{p}])")?;
            }
        }
    }
    Ok(Ok(()))
}

/// Runs `write` against one locked, buffered stdout and flushes it: one
/// write(2) per buffer, not per line as `println!` on line-buffered
/// stdout. A failed write (a closed pipe, a full disk) comes back as
/// `stdout: …`, which `main` prints as an `error:` line and exit 1, never
/// a panic.
fn write_stdout(write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    write(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// Runs the minimization engine; returns `Ok(false)` when the budget was
/// exhausted (the caller maps that to exit code 3).
fn run_minimize(query: &str, options: MinimizeOptions) -> Result<bool, String> {
    let q = parse_query(query)?;
    match minimize_with(&q, options).map_err(|e| e.to_string())? {
        MinimizeOutcome::Complete(minimal) => {
            write_stdout(|out| writeln!(out, "{minimal}"))?;
            Ok(true)
        }
        MinimizeOutcome::Partial(partial) => {
            // The cursor goes to *stdout* so callers capturing the result
            // can resume mechanically; the human-facing note stays on
            // stderr.
            write_stdout(|out| {
                writeln!(out, "{}", partial.best)?;
                writeln!(
                    out,
                    "resume-cursor: adjunct {} completion {}",
                    partial.cursor.adjunct, partial.cursor.completion
                )
            })?;
            eprintln!(
                "budget exhausted after {} steps (sound partial result above)",
                partial.steps_used
            );
            Ok(false)
        }
    }
}

fn run_trace(query: &str) -> Result<(), String> {
    let q = parse_query(query)?;
    let trace = minprov_trace(&q);
    write_stdout(|out| {
        writeln!(
            out,
            "input ({} adjuncts):\n{}\n",
            trace.input.len(),
            trace.input
        )?;
        writeln!(
            out,
            "step I — canonical rewriting ({} adjuncts):\n{}\n",
            trace.canonical.len(),
            trace.canonical
        )?;
        writeln!(
            out,
            "step II — per-adjunct minimization ({} adjuncts):\n{}\n",
            trace.minimized.len(),
            trace.minimized
        )?;
        writeln!(
            out,
            "step III — containment pruning ({} adjuncts):\n{}",
            trace.output.len(),
            trace.output
        )
    })
}

fn run_datalog(db_path: &str, program_path: &str, pred: &str) -> Result<(), String> {
    let db = load_db(db_path)?;
    let text = std::fs::read_to_string(program_path).map_err(|e| format!("{program_path}: {e}"))?;
    let program = Program::parse(&text).map_err(|e| e.to_string())?;
    let predicate = RelName::new(pred);
    if program.is_edb(predicate) {
        return Err(format!("{pred} is not defined by the program"));
    }
    let result = evaluate(&program, &db);
    let core = core_query(&program, predicate);
    write_stdout(|out| {
        writeln!(out, "{pred} with provenance over source annotations:")?;
        for (tuple, p) in result.tuples(predicate) {
            writeln!(out, "  {tuple}  [{p}]")?;
        }
        match core {
            Some(core) => writeln!(
                out,
                "\np-minimal unfolded definition ({} adjuncts):\n{core}",
                core.len()
            ),
            None => writeln!(out, "\n{pred} is unsatisfiable"),
        }
    })
}
