//! The benchmark's own checks: every served workload runs clean against
//! an in-process server, `BENCHMARK.json` names what the runs emit, the
//! percentile rules, and seed determinism of the request streams.

use std::path::PathBuf;
use std::time::Duration;

use prov_server::Json;
use provbench::inputs::{Inputs, Stream, Workload};
use provbench::report::{END_TO_END, PER_LAYER};
use provbench::run::{end_to_end, Config};
use provbench::served::Boot;
use provbench::stats::{nearest_rank, tail_percentile, Summary};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("provbench_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(json: &Json, key: &str) -> Vec<String> {
    json.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("named entry")
                .to_owned()
        })
        .collect()
}

/// Each served workload, 300 ms against `serve_durable` in this process:
/// no failed request, no failed self-check, every end-to-end metric.
#[test]
fn served_workloads_run_clean_in_process() {
    let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    for workload in Workload::ALL.into_iter().filter(|w| w.served()) {
        let inputs = Inputs::generate(workload, 7).expect("inputs");
        let dir = scratch(workload.name());
        let cfg = Config {
            warmup: Duration::from_millis(300),
            window: Duration::from_millis(300),
            dir: dir.clone(),
        };
        let outcome = end_to_end(&inputs, &Boot::InProcess, &cfg).expect("run sets up");
        assert!(
            outcome.correct(),
            "{}: {} of {} failed; {:?}",
            workload.name(),
            outcome.failed,
            outcome.attempted,
            outcome.problems
        );
        let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(emitted, expected, "{}", workload.name());
        for m in &outcome.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn benchmark_json_names_are_well_formed_and_match_the_runs() {
    let json = benchmark_json();
    let well_formed = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut all = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&json, key) {
            assert!(well_formed(&name), "{key}: bad name {name:?}");
            all.push(name);
        }
    }
    let distinct: std::collections::BTreeSet<&String> = all.iter().collect();
    assert_eq!(distinct.len(), all.len(), "a name is used twice");

    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&json, "workloads"), workloads);
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("metric field")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
}

#[test]
fn nearest_rank_percentiles() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&ten, 50.0), 5.0);
    assert_eq!(nearest_rank(&ten, 90.0), 9.0);
    assert_eq!(nearest_rank(&ten, 91.0), 10.0);
    assert_eq!(nearest_rank(&ten, 99.0), 10.0);
    assert_eq!(nearest_rank(&ten, 100.0), 10.0);
    assert_eq!(nearest_rank(&ten, 1.0), 1.0);
    assert_eq!(nearest_rank(&[4.0], 50.0), 4.0);
    let s = Summary::of(&[3.0, 1.0, 2.0]).expect("samples");
    assert_eq!((s.n, s.p50, s.mean), (3, 2.0, 2.0));
    assert!(Summary::of(&[]).is_none());
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(100_000), 99.0);
    assert_eq!(tail_percentile(1_000), 99.0);
    assert_eq!(tail_percentile(999), 90.0);
    assert_eq!(tail_percentile(180), 90.0);
    assert_eq!(tail_percentile(100), 90.0);
    assert_eq!(tail_percentile(99), 50.0);
    assert_eq!(tail_percentile(1), 50.0);
    // With n samples, at least ten lie strictly above the chosen rank.
    for n in [100usize, 150, 999, 1_000, 5_000] {
        let p = tail_percentile(n);
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        assert!(n - rank >= 10, "n={n} p={p}");
    }
}

fn stream_bodies(inputs: &Inputs) -> Vec<String> {
    (0..inputs.classes().len())
        .flat_map(|class| {
            Stream::new(inputs, class)
                .take(300)
                .map(|request| format!("{} {}", request.path(), inputs.body(request)))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn a_seed_fixes_the_request_stream() {
    for workload in [
        Workload::ReadSmall,
        Workload::WriteMix,
        Workload::MinimizeQn,
    ] {
        let a = stream_bodies(&Inputs::generate(workload, 11).expect("inputs"));
        let b = stream_bodies(&Inputs::generate(workload, 11).expect("inputs"));
        let c = stream_bodies(&Inputs::generate(workload, 12).expect("inputs"));
        assert_eq!(a, b, "{}: same seed, different stream", workload.name());
        assert_ne!(a, c, "{}: different seeds, same stream", workload.name());
    }
}
