//! Metric names and units, the run-provenance header, and the result
//! line.

use std::path::Path;
use std::process::Command;

use prov_server::Json;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
/// Tail latencies are printed per class but not listed: their
/// run-to-run spread on a shared 2-vCPU host exceeds any usable bound.
pub const END_TO_END: [(&str, &str); 6] = [
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("second_p50_ms", "ms"),
    ("second_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("trace.request_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_time_coverage", "ratio"),
    ("e2e.outside_replay_us", "us"),
    ("query.parse_us", "us"),
    ("server.share", "ratio"),
    ("server.lock_wait_share", "ratio"),
    ("query.share", "ratio"),
    ("engine.share", "ratio"),
    ("semiring.share", "ratio"),
    ("storage.share", "ratio"),
    ("core.share", "ratio"),
    ("query.canonicalize_share", "ratio"),
    ("storage.textio_parse_ms", "ms"),
    ("storage.snapshot_ms", "ms"),
    ("storage.recover_ms", "ms"),
    ("engine.view_build_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("server.resp_bytes", "B"),
    ("server.reconnects", "count"),
    ("engine.result_hit_ratio", "ratio"),
    ("engine.full_rebuilds", "count"),
    ("engine.delta_applies", "count"),
    ("engine.peak_frontier_rows", "count"),
    ("engine.rows_out", "count"),
    ("engine.monomials_out", "count"),
    ("core.steps", "count"),
    ("core.hom_checks", "count"),
    ("core.memo_dedup_skips", "count"),
    ("core.dominance_skips", "count"),
    ("core.memo_skip_ratio", "ratio"),
    ("storage.fsyncs_per_mutate", "count"),
    ("storage.snapshots_per_1k_mutates", "count"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.bytes_written_per_user_byte", "ratio"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric of the run's kind, in list order.
    pub metrics: Vec<Metric>,
    /// Requests (or processes) attempted.
    pub attempted: u64,
    /// Of those, failed: transport errors, non-200s, wrong answers.
    pub failed: u64,
    /// Failed checks: the first few failures, workload self-checks,
    /// final-state mismatches.
    pub problems: Vec<String>,
    /// Human-readable detail lines (per-class summaries).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every answer was right and every self-check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Appends the metrics of `list` in order; `value(name)` supplies each.
    pub fn push_all(
        &mut self,
        list: &[(&'static str, &'static str)],
        mut value: impl FnMut(&str) -> f64,
    ) {
        for &(name, unit) in list {
            self.metrics.push(Metric {
                name,
                value: value(name),
                unit,
            });
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// `metrics` as `{name: {value, unit}}`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    Json::Num(m.value)
                } else {
                    Json::Null
                };
                (
                    m.name.to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), value),
                        ("unit".to_owned(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct())),
            ("attempted".to_owned(), Json::from_u64(self.attempted)),
            ("failed".to_owned(), Json::from_u64(self.failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

fn first_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_owned)
}

/// The run-provenance header: where and how the numbers were taken.
pub fn provenance(repo: &Path, fields: &[(&str, String)]) -> Vec<String> {
    let unknown = || "unknown".to_owned();
    let commit = first_line("git", &["rev-parse", "HEAD"], repo)
        .unwrap_or_else(|| "unknown (no git checkout)".into());
    let rustc = first_line("rustc", &["-V"], repo).unwrap_or_else(unknown);
    let date = first_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"], repo).unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut lines = vec![
        format!("commit: {commit}"),
        format!("rustc: {rustc}"),
        format!("nproc: {nproc}"),
        format!("date: {date}"),
    ];
    lines.extend(fields.iter().map(|(k, v)| format!("{k}: {v}")));
    lines
}
