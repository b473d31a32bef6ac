//! `provbench`: run one benchmark workload and print its metrics.
//!
//! ```text
//! provbench run   --workload W --seed N [--seconds S] [--trace 0|1] [--provmin PATH]
//! provbench trace --workload W --seed N [--seconds S] [--provmin PATH]
//! ```
//!
//! `run` drives the release `provmin` binary (built into this program's
//! own target directory unless `--provmin` names one) and prints every
//! end-to-end metric; `trace` (or `run --trace 1`) prints the per-layer
//! metrics of the traced replay. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. The exit
//! code is 0 only when every answer was right and every self-check held;
//! a run that could not be set up prints no result and exits 2.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use provbench::inputs::{Inputs, Workload, DOMAIN, R_TUPLES, S_TUPLES, WAL_TAIL};
use provbench::report::provenance;
use provbench::run::{end_to_end, traced, Config};
use provbench::served::{Boot, SERVER_FLAGS};

/// Untimed warm-up before every timed window.
const WARMUP: Duration = Duration::from_secs(2);

struct Args {
    trace: bool,
    workload: Workload,
    seed: u64,
    seconds: u64,
    provmin: Option<PathBuf>,
}

const USAGE: &str = "usage: provbench run|trace --workload NAME --seed N [--seconds S] [--trace 0|1] [--provmin PATH]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (trace, rest) = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => (false, rest),
        Some((cmd, rest)) if cmd == "trace" => (true, rest),
        _ => return Err(USAGE.to_owned()),
    };
    let mut parsed = Args {
        trace,
        workload: Workload::ReadSmall,
        seed: 1,
        seconds: 10,
        provmin: None,
    };
    let mut workload = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace |= number()? != 0,
            "--provmin" => parsed.provmin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    parsed.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(parsed)
}

/// Builds the release `provmin` from the repository this package sits in,
/// into `target`, so it lands next to this executable.
fn build_provmin(repo: &Path, target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--bin",
            "provmin",
            "--manifest-path",
        ])
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building provmin failed ({status})"));
    }
    Ok(target.join("release").join("provmin"))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    // <target>/release/provbench
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("this executable has no target directory")?
        .to_owned();
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository");
    let provmin = match args.provmin {
        Some(p) => p,
        None => build_provmin(repo, &target)?,
    };
    let w = args.workload;
    let dir = target.join("provbench").join(w.name());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let inputs = Inputs::generate(w, args.seed)?;
    let program = if w.served() {
        format!(
            "provmin serve {} --data-dir <snapshot + {WAL_TAIL}-frame wal>",
            SERVER_FLAGS.join(" ")
        )
    } else {
        "provmin eval <db file> <query>".to_owned()
    };
    let header = provenance(
        repo,
        &[
            ("mode", if args.trace { "trace" } else { "run" }.to_owned()),
            ("workload", w.name().to_owned()),
            ("seed", args.seed.to_string()),
            (
                "window",
                format!("{} s after a {} s warm-up", args.seconds, WARMUP.as_secs()),
            ),
            (
                "database",
                format!(
                    "R {R_TUPLES} + S {S_TUPLES} tuples over {DOMAIN} values ({} tuples)",
                    inputs.db.num_tuples()
                ),
            ),
            ("program", program),
            ("load", format!("closed loop, {} thread(s)", w.threads())),
        ],
    );
    for line in &header {
        println!("# {line}");
    }

    let cfg = Config {
        warmup: WARMUP,
        window: Duration::from_secs(args.seconds),
        dir: dir.clone(),
    };
    let boot = Boot::Process(provmin);
    let outcome = if args.trace {
        traced(&inputs, &boot, &cfg)?
    } else {
        end_to_end(&inputs, &boot, &cfg)?
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# FAILED: {problem}");
    }
    if args.trace {
        println!("# spans: {}", dir.join("spans.json").display());
    }
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("provbench: {e}");
            ExitCode::from(2)
        }
    }
}
