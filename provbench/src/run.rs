//! One benchmark run: set up, measure, check, and turn the measurements
//! into the metrics of `report::END_TO_END` or `report::PER_LAYER`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use prov_engine::EvalViews;
use prov_storage::textio::{format_database, parse_database};
use prov_storage::{recover_readonly, DurabilityOptions, DurableStore, DELTA_LOG_CAPACITY};

use crate::inputs::Inputs;
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::served::{Boot, LoadReport, Server};
use crate::stats::{median, median_ms, Summary};
use crate::{cli, served, trace};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// How long to measure and where scratch files go.
#[derive(Clone, Debug)]
pub struct Config {
    /// Untimed warm-up before the window (caches fill, lazy builds run).
    pub warmup: Duration,
    /// The timed window.
    pub window: Duration,
    /// Scratch directory (data directories, database files).
    pub dir: PathBuf,
}

/// Sets up a served workload [`SETUPS`] times (a fresh data directory
/// each time, written off the clock; the clock runs from spawn until
/// `GET /stats` answers), keeping the last server. Returns it with the
/// setup times in seconds.
fn boot_served(inputs: &Inputs, boot: &Boot, dir: &Path) -> Result<(Server, Vec<f64>), String> {
    let data = dir.join("data");
    let mut times = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            previous.stop()?;
        }
        inputs.write_data_dir(&data)?;
        let t0 = Instant::now();
        server = Some(Server::boot(boot, &data)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((server.expect("SETUPS > 0"), times))
}

/// Sets up `cli_cold` [`SETUPS`] times: write the database file, then run
/// the first query to completion (the CLI has no set-up beyond its first
/// invocation). Returns the setup times in seconds.
fn setup_cli(inputs: &Inputs, provmin: &Path, db_file: &Path) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let mut verified = vec![None; inputs.queries.len()];
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inputs.write_db_file(db_file)?;
        let exit = cli::run(
            provmin,
            &["eval", &db_file.to_string_lossy(), &inputs.queries[0].text],
        )?;
        times.push(t0.elapsed().as_secs_f64());
        cli::check(inputs, &mut verified, 0, exit)?;
    }
    Ok(times)
}

/// Per-class latency lines for the human-readable output.
fn class_notes(inputs: &Inputs, load: &LoadReport) -> Vec<String> {
    inputs
        .classes()
        .iter()
        .zip(&load.latencies_ms)
        .map(|(name, lat)| match Summary::of(lat) {
            Some(s) => format!(
                "class {name}: n={} p50={:.4} ms p{}={:.4} ms mean={:.4} ms",
                s.n, s.p50, s.tail_p, s.tail, s.mean
            ),
            None => format!("class {name}: no successful timed requests"),
        })
        .collect()
}

fn load_problems(load: &LoadReport) -> Vec<String> {
    load.failures
        .iter()
        .chain(&load.violations)
        .cloned()
        .collect()
}

/// Sets up, warms up, and measures the workload against the program:
/// the load report, the set-up times (s), and the peak memory (MiB).
fn measure(
    inputs: &Inputs,
    boot: &Boot,
    cfg: &Config,
) -> Result<(LoadReport, Vec<f64>, f64), String> {
    if inputs.workload.served() {
        let (server, setups) = boot_served(inputs, boot, &cfg.dir)?;
        let load = served::drive(&server, inputs, cfg.warmup, cfg.window);
        let rss = server.peak_rss_mib()?;
        server.stop()?;
        Ok((load, setups, rss))
    } else {
        let Boot::Process(provmin) = boot else {
            return Err("cli_cold needs the provmin binary".into());
        };
        let db_file = cfg.dir.join("db_main.txt");
        let setups = setup_cli(inputs, provmin, &db_file)?;
        let report = cli::drive(provmin, inputs, &db_file, cfg.warmup, cfg.window);
        Ok((report.load, setups, report.peak_rss_mib))
    }
}

/// An untimed-then-timed run of the workload against the real program;
/// reports [`END_TO_END`].
pub fn end_to_end(inputs: &Inputs, boot: &Boot, cfg: &Config) -> Result<Outcome, String> {
    let (load, setups, rss) = measure(inputs, boot, cfg)?;
    let mut out = Outcome {
        attempted: load.attempted,
        failed: load.failed,
        problems: load_problems(&load),
        notes: class_notes(inputs, &load),
        ..Outcome::default()
    };
    let window_s = load.window.as_secs_f64();
    let primary = Summary::of(&load.latencies_ms[0]);
    let second = Summary::of(load.latencies_ms.last().expect("one class at least"));
    if primary.is_none() || second.is_none() {
        out.problems
            .push("a request class completed no timed request".into());
    }
    let (primary, second) = (primary.unwrap_or(NO_SAMPLES), second.unwrap_or(NO_SAMPLES));
    out.notes.push(format!("setup_s samples: {setups:?}"));
    out.push_all(&END_TO_END, |name| match name {
        "p50_ms" => primary.p50,
        "ops_per_s" => primary.n as f64 / window_s,
        "second_p50_ms" => second.p50,
        "second_ops_per_s" => second.n as f64 / window_s,
        "setup_s" => median(&setups),
        "peak_rss_mib" => rss,
        other => unreachable!("unknown end-to-end metric {other}"),
    });
    Ok(out)
}

/// Stands in for a class without samples (the run is failed then; its
/// metrics print as `null`).
const NO_SAMPLES: Summary = Summary {
    n: 0,
    p50: f64::NAN,
    tail_p: 0.0,
    tail: f64::NAN,
    mean: f64::NAN,
};

/// Set-up costs of this seed's database in each layer, median of
/// [`SETUPS`]: text parse, snapshot write, recovery of the data
/// directory, and the engine's index/columnar build.
fn setup_probes(inputs: &Inputs, dir: &Path) -> Result<[(&'static str, f64); 4], String> {
    let text = format_database(&inputs.db);
    let textio = median_ms(SETUPS, || {
        parse_database(&text).map(drop).map_err(|e| e.to_string())
    })?;
    let scratch = dir.join("probe-snapshot");
    let _ = std::fs::remove_dir_all(&scratch);
    let (mut store, _) = DurableStore::open(&scratch, DurabilityOptions::default())?;
    let snapshot = median_ms(SETUPS, || {
        store.snapshot(&inputs.db).map_err(|e| e.to_string())
    })?;
    drop(store);
    let data = dir.join("probe-data");
    inputs.write_data_dir(&data)?;
    let recover = median_ms(SETUPS, || {
        recover_readonly(&data, DELTA_LOG_CAPACITY).map(drop)
    })?;
    let views = median_ms(SETUPS, || {
        let views = EvalViews::new(&inputs.db);
        std::hint::black_box(views.database_index(&inputs.db));
        std::hint::black_box(views.columnar(&inputs.db));
        Ok::<(), String>(())
    })?;
    Ok([
        ("storage.textio_parse_ms", textio),
        ("storage.snapshot_ms", snapshot),
        ("storage.recover_ms", recover),
        ("engine.view_build_ms", views),
    ])
}

/// Stage self-times must account for at least this share of replayed
/// request wall time (the rest is bookkeeping between spans).
pub const MIN_COVERAGE: f64 = 0.9;

/// A traced run: a short end-to-end window (for what the wire or process
/// adds), then the in-process replay, half its requests traced; reports
/// [`PER_LAYER`]. The window is split a third end-to-end, two thirds
/// replay.
pub fn traced(inputs: &Inputs, boot: &Boot, cfg: &Config) -> Result<Outcome, String> {
    let third = cfg.window / 3;
    let probes = setup_probes(inputs, &cfg.dir)?;
    // `provmin` with no arguments prints usage and exits: process start,
    // loading, and exit. The in-process stand-in has no binary to start.
    let startup = match boot {
        Boot::Process(provmin) => median_ms(SETUPS, || cli::run(provmin, &[]).map(drop))?,
        Boot::InProcess => f64::NAN,
    };

    // End-to-end p50 of the primary class, tracing off.
    let short = Config {
        window: third,
        ..cfg.clone()
    };
    let (load, _, _) = measure(inputs, boot, &short)?;
    let e2e_p50_us = Summary::of(&load.latencies_ms[0]).map_or(f64::NAN, |s| s.p50 * 1e3);

    let replay = trace::replay(
        inputs,
        &cfg.dir,
        cfg.warmup.min(Duration::from_secs(1)),
        2 * third,
    )?;
    let mut out = Outcome {
        attempted: load.attempted + replay.attempted,
        failed: load.failed + replay.failed,
        problems: load_problems(&load),
        notes: class_notes(inputs, &load),
        ..Outcome::default()
    };
    out.problems.extend(replay.failures.iter().cloned());
    let t = &replay.tally;
    let traced = t.traced.max(1) as f64;
    let traced_ns = t.traced_ns.max(1) as f64;
    // Self time of the spans whose name passes `pick`, as a share of
    // traced request time.
    let share = |pick: &dyn Fn(&str) -> bool| {
        replay
            .self_ns
            .iter()
            .filter(|(name, _)| pick(name))
            .fold(0.0, |sum, (_, ns)| sum + *ns as f64)
            / traced_ns
    };
    let layer = |prefix: &str| share(&|name| name.split('.').next() == Some(prefix));
    let stage = |name: &str| replay.self_ns.get(name).copied().unwrap_or(0) as f64;
    let covered = share(&|name| name != "request");
    if covered < MIN_COVERAGE {
        out.problems.push(format!(
            "stage self-times cover {:.1}% of replayed request time, below {:.0}%",
            covered * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let on_mean = per(t.traced_ns, t.traced);
    let off_mean = per(t.untraced_ns, t.untraced);
    let off_primary: Vec<f64> = replay.off_ns[0].iter().map(|&ns| ns as f64 / 1e3).collect();
    let replay_p50_us = Summary::of(&off_primary).map_or(f64::NAN, |s| s.p50);
    // Every request of minimize_qn is a minimization.
    let canonicalize = if t.minimizes > 0 {
        trace::canonicalize_ns(inputs)? / (stage("core.minimize") / traced)
    } else {
        0.0
    };
    let (s0, s1) = replay.session;
    let (d0, d1) = replay.durability;
    let rebuilds = s1.full_rebuilds - s0.full_rebuilds + t.cold_rebuilds;
    let deltas = s1.delta_applies - s0.delta_applies;
    out.notes.push(format!(
        "replay: {} traced / {} untraced requests, mean {:.2} / {:.2} us; stage self ns: {:?}",
        t.traced,
        t.untraced,
        on_mean / 1e3,
        off_mean / 1e3,
        replay.self_ns
    ));
    out.push_all(&PER_LAYER, |name| match name {
        "trace.request_us" => on_mean / 1e3,
        "trace.overhead_frac" => on_mean / off_mean - 1.0,
        "trace.self_time_coverage" => covered,
        "e2e.outside_replay_us" => e2e_p50_us - replay_p50_us,
        "query.parse_us" => stage("query.parse") / traced / 1e3,
        "server.share" => layer("server"),
        "server.lock_wait_share" => stage("server.lock_wait") / traced_ns,
        "query.share" => layer("query"),
        "engine.share" => layer("engine"),
        "semiring.share" => layer("semiring"),
        "storage.share" => layer("storage"),
        "core.share" => layer("core"),
        "query.canonicalize_share" => canonicalize,
        "cli.startup_ms" => startup,
        "server.resp_bytes" => per(t.resp_bytes, t.requests),
        "server.reconnects" => load.reconnects as f64,
        "engine.result_hit_ratio" => {
            if t.evals == 0 {
                0.0
            } else {
                1.0 - per(rebuilds + deltas, t.evals)
            }
        }
        "engine.full_rebuilds" => rebuilds as f64,
        "engine.delta_applies" => deltas as f64,
        "engine.peak_frontier_rows" => s1.peak_frontier_rows.max(t.cold_peak_frontier) as f64,
        "engine.rows_out" => per(t.rows_out, t.evals),
        "engine.monomials_out" => per(t.monomials_out, t.evals),
        "core.steps" => per(t.core.steps, t.minimizes),
        "core.hom_checks" => per(t.core.hom_checks, t.minimizes),
        "core.memo_dedup_skips" => per(t.core.memo_dedup_skips, t.minimizes),
        "core.dominance_skips" => per(t.core.dominance_skips, t.minimizes),
        "core.memo_skip_ratio" => per(t.core.memo_dedup_skips, t.core.steps),
        "storage.fsyncs_per_mutate" => per(d1.fsyncs - d0.fsyncs, t.mutates),
        "storage.snapshots_per_1k_mutates" => per(1000 * t.rotations, t.mutates),
        "storage.wal_bytes_per_user_byte" => per(t.wal_bytes, t.user_bytes),
        "storage.bytes_written_per_user_byte" => per(t.wal_bytes + t.snapshot_bytes, t.user_bytes),
        probe => probes
            .iter()
            .find(|(n, _)| *n == probe)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| unreachable!("unknown per-layer metric {probe}")),
    });
    std::fs::write(cfg.dir.join("spans.json"), trace::spans_json(&replay.spans))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(out)
}
