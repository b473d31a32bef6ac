//! Driving one-shot `provmin eval` processes, one at a time.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::gate::Gate;
use crate::inputs::{canonical, Inputs, Request, Stream};
use crate::served::LoadReport;

/// Resource usage of one reaped child (the `struct rusage` layout of
/// 64-bit Linux: two `timeval`s, then fourteen `long`s).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One finished `provmin` process.
pub struct Exit {
    /// Whether it exited with code 0.
    pub success: bool,
    /// Its standard output.
    pub stdout: Vec<u8>,
    /// Its peak resident memory in KiB.
    pub maxrss_kib: i64,
}

/// Runs `provmin` with `args` to completion, reaping it with `wait4` so
/// its own peak memory is known (a `RUSAGE_CHILDREN` total would mix in
/// every other child).
pub fn run(provmin: &Path, args: &[&str]) -> Result<Exit, String> {
    let mut child = Command::new(provmin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", provmin.display()))?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)
        .map_err(|e| format!("reading provmin output: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child (spawned above and never
        // waited on through `child`), and both out-pointers are valid,
        // exclusively borrowed locals of the layout `wait4` writes.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    Ok(Exit {
        // Exited normally with code 0 (`WIFEXITED && WEXITSTATUS == 0`).
        success: status == 0,
        stdout,
        maxrss_kib: usage.maxrss_kib,
    })
}

/// What the CLI loop measured, plus the largest child's peak memory.
pub struct CliReport {
    /// Latencies, failures, and counts.
    pub load: LoadReport,
    /// Largest peak resident memory of any `provmin eval`, in MiB.
    pub peak_rss_mib: f64,
}

/// Runs `provmin eval <db_file> <query>` back to back, cycling the
/// workload's queries: `warmup` untimed, then `window` timed. Every
/// output must equal the verified output of the same query; the first
/// output of each query is verified against the reference canonically.
pub fn drive(
    provmin: &Path,
    inputs: &Inputs,
    db_file: &Path,
    warmup: Duration,
    window: Duration,
) -> CliReport {
    let gate = Gate::new(1, vec![warmup, window]);
    let db_arg = db_file.to_string_lossy().into_owned();
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let mut verified: Vec<Option<Vec<u8>>> = vec![None; inputs.queries.len()];
            let mut load = LoadReport::new(1);
            let mut peak_kib = 0i64;
            let mut stream = Stream::new(inputs, 0);
            for phase in 0..gate.phases() {
                let deadline = gate.start(phase);
                while Instant::now() < deadline {
                    let Some(Request::Eval(i)) = stream.next() else {
                        unreachable!("cli_cold streams evals")
                    };
                    let t0 = Instant::now();
                    let exit = run(provmin, &["eval", &db_arg, &inputs.queries[i].text]);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    load.attempted += 1;
                    match exit.and_then(|exit| {
                        peak_kib = peak_kib.max(exit.maxrss_kib);
                        check(inputs, &mut verified, i, exit)
                    }) {
                        Ok(()) if phase == 1 => load.latencies_ms[0].push(ms),
                        Ok(()) => {}
                        Err(e) => load.fail(e),
                    }
                }
                gate.end();
            }
            (load, peak_kib)
        });
        let phases = gate.control(|_| {});
        let (mut load, peak_kib) = worker.join().expect("cli loop panicked");
        load.window = phases[1];
        CliReport {
            load,
            peak_rss_mib: peak_kib as f64 / 1024.0,
        }
    })
}

/// A `provmin eval` run must exit 0 and print the reference answer.
pub fn check(
    inputs: &Inputs,
    verified: &mut [Option<Vec<u8>>],
    i: usize,
    exit: Exit,
) -> Result<(), String> {
    let query = &inputs.queries[i];
    if !exit.success {
        return Err(format!("provmin eval {:?} failed", query.text));
    }
    match &verified[i] {
        Some(expected) if *expected == exit.stdout => Ok(()),
        Some(_) => Err(format!("{}: output changed between runs", query.text)),
        None => {
            let text = String::from_utf8(exit.stdout).map_err(|_| "non-utf8 output")?;
            if canonical(text.lines())? != query.reference {
                return Err(format!("{}: output differs from the reference", query.text));
            }
            verified[i] = Some(text.into_bytes());
            Ok(())
        }
    }
}
