//! `provbench`: the repository benchmark. It runs seeded workloads
//! against the real `provmin` (the `serve` process or the one-shot CLI),
//! checks every answer, and reports end-to-end metrics; with tracing on
//! it replays the same request stream in-process and reports per-layer
//! metrics. See `README.md` in this package.

pub mod cli;
pub mod gate;
pub mod inputs;
pub mod report;
pub mod run;
pub mod served;
pub mod stats;
pub mod trace;
