//! Everything a run derives from its seed: the database, each workload's
//! queries and request stream, and the files the program reads.
//!
//! The program under test only ever sees these generated inputs: a data
//! directory or database file, and request bodies. The seed stays here.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::path::Path;

use prov_core::minimize::{minimize_with, MinimizeOptions, MinimizeOutcome};
use prov_engine::{AnnotatedResult, EvalSession};
use prov_query::generate::qn_family;
use prov_query::{parse_ucq, UnionQuery};
use prov_semiring::{Annotation, Polynomial};
use prov_server::Json;
use prov_storage::durability::WAL_FILE;
use prov_storage::generator::{random_database, DatabaseSpec};
use prov_storage::wal::WalWriter;
use prov_storage::{
    Database, DeltaEvent, DeltaKind, DurabilityOptions, DurableStore, FsyncPolicy, RelName, Tuple,
};

/// Values tuples draw from (`d0` … `d999`).
pub const DOMAIN: usize = 1_000;
/// Tuples of the binary relation `R`.
pub const R_TUPLES: usize = 20_000;
/// Tuples of the binary relation `S`.
pub const S_TUPLES: usize = 4_000;
/// WAL frames a served workload's data directory carries past its
/// snapshot (half inserts, then the matching removes, so the recovered
/// state is exactly the database).
pub const WAL_TAIL: usize = 1_000;
/// Distinct `R` tuples `write_mix` toggles in and out.
pub const MUTATION_POOL: usize = 256;
/// Isomorphic renamings of `Q_3` that `minimize_qn` draws from.
pub const RENAMINGS: usize = 64;
/// The server's result-cache capacity (`prov_engine` keeps 32 results);
/// `read_miss` cycles three times as many queries so every request misses.
pub const RESULT_CACHE: usize = 32;

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same stream on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The benchmark's workloads. Names are part of the benchmark's contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 16 cached small `/eval`s: transport, JSON, query parse, small render.
    ReadSmall,
    /// 4 cached `/eval`s of ≥512 rows: the streamed render path.
    ReadLarge,
    /// 96 distinct join `/eval`s: every request misses the result cache.
    ReadMiss,
    /// `/mutate` on one connection, cached `/eval`s on the other.
    WriteMix,
    /// `/minimize` of renamed `Q_3`.
    MinimizeQn,
    /// One `provmin eval` process at a time.
    CliCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 6] = [
        Workload::ReadSmall,
        Workload::ReadLarge,
        Workload::ReadMiss,
        Workload::WriteMix,
        Workload::MinimizeQn,
        Workload::CliCold,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSmall => "read_small",
            Workload::ReadLarge => "read_large",
            Workload::ReadMiss => "read_miss",
            Workload::WriteMix => "write_mix",
            Workload::MinimizeQn => "minimize_qn",
            Workload::CliCold => "cli_cold",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives `provmin serve` (else the CLI).
    pub fn served(self) -> bool {
        self != Workload::CliCold
    }

    /// Load-generating threads (and keep-alive connections): 2 on a
    /// 2-vCPU host; the CLI runs one process at a time.
    pub fn threads(self) -> usize {
        if self.served() {
            2
        } else {
            1
        }
    }
}

/// One request of a workload's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// `/eval` (or `provmin eval`) of query `i`.
    Eval(usize),
    /// `/mutate` inserting pool tuple `i`.
    Insert(usize),
    /// `/mutate` removing pool tuple `i`.
    Remove(usize),
    /// `/minimize` of renaming `i`.
    Minimize(usize),
}

impl Request {
    /// The HTTP path the request goes to.
    pub fn path(self) -> &'static str {
        match self {
            Request::Eval(_) => "/eval",
            Request::Insert(_) | Request::Remove(_) => "/mutate",
            Request::Minimize(_) => "/minimize",
        }
    }
}

/// An `/eval` query with its in-process reference answer.
#[derive(Clone, Debug)]
pub struct EvalQuery {
    /// Query text in the CLI/wire syntax.
    pub text: String,
    /// Reference answer: rendered tuple → polynomial.
    pub reference: Canonical,
}

impl EvalQuery {
    /// Reference row count.
    pub fn rows(&self) -> usize {
        self.reference.len()
    }
}

/// A result in process-independent form: rendered tuple → polynomial
/// re-interned in this process. Row order and monomial order in rendered
/// output follow each process's intern order, so two processes' correct
/// answers can differ byte-wise; they never differ in this form.
pub type Canonical = BTreeMap<String, Polynomial>;

/// Parses result lines (`(a, b)  [s1·s2 + s3]`, or `(empty result)`)
/// into [`Canonical`] form.
pub fn canonical<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Canonical, String> {
    let mut rows = Canonical::new();
    for line in lines {
        if line == "(empty result)" {
            continue;
        }
        let parts = line
            .split_once("  [")
            .and_then(|(tuple, rest)| Some((tuple, rest.strip_suffix(']')?)));
        let Some((tuple, poly)) = parts else {
            return Err(format!("unparseable result line {line:?}"));
        };
        rows.insert(tuple.to_owned(), Polynomial::parse(poly));
    }
    Ok(rows)
}

/// Renders a result exactly as `provmin eval` prints it, one line each.
pub fn result_lines(result: &AnnotatedResult) -> Vec<String> {
    if result.is_empty() {
        return vec!["(empty result)".to_owned()];
    }
    result
        .iter()
        .map(|(tuple, p)| format!("{tuple}  [{p}]"))
        .collect()
}

/// One tuple `write_mix` toggles: `R(a, b) : wm<i>`.
#[derive(Clone, Debug)]
pub struct PoolTuple {
    /// The tuple's two values.
    pub values: [String; 2],
    /// Its annotation name.
    pub annotation: String,
}

impl PoolTuple {
    /// The textio line inserting it.
    pub fn insert_line(&self) -> String {
        format!(
            "R({}, {}) : {}",
            self.values[0], self.values[1], self.annotation
        )
    }

    /// The textio line removing it.
    pub fn remove_line(&self) -> String {
        format!("R({}, {})", self.values[0], self.values[1])
    }
}

/// Query shapes, by workload. `K`/`J` are seeded constants.
fn query_text(workload: Workload, rng: &mut Rng, i: usize) -> String {
    let k = rng.below(DOMAIN);
    match workload {
        // Small answers (tens of rows), two shapes so parse and plan vary.
        Workload::ReadSmall | Workload::CliCold if i.is_multiple_of(2) => {
            format!("ans(x) :- R('d{k}', x), S(x, y)")
        }
        Workload::ReadSmall | Workload::CliCold => format!("ans(y) :- S('d{k}', x), S(x, y)"),
        // ~1,000 rows of ~8 degree-3 monomials: the streamed path.
        Workload::ReadLarge => format!("ans(z) :- R('d{k}', x), R(x, y), R(y, z)"),
        // ~8,000 three-step paths filtered to a few dozen answers: the
        // engine's join does the work, the answer stays small.
        Workload::ReadMiss => {
            let j = rng.below(DOMAIN);
            format!("ans(x, z) :- R('d{k}', x), R(x, y), R(y, z), S(z, 'd{j}')")
        }
        // Answers the write pool's tuples join into.
        Workload::WriteMix => format!("ans(x, y) :- R('d{k}', x), S(x, y)"),
        Workload::MinimizeQn => unreachable!("minimize_qn issues no /eval"),
    }
}

/// How many queries a workload draws, and the answer size each must have.
/// The bands keep the work per request alike across seeds, so a seed
/// changes which queries run, not how much they cost.
struct Band {
    count: usize,
    rows: RangeInclusive<usize>,
    monomials: RangeInclusive<usize>,
}

fn query_band(workload: Workload) -> Band {
    const ANY: RangeInclusive<usize> = 0..=usize::MAX;
    let band = |count, rows, monomials| Band {
        count,
        rows,
        monomials,
    };
    match workload {
        Workload::ReadSmall => band(16, 12..=28, ANY),
        Workload::CliCold => band(8, 12..=28, ANY),
        // Above the server's 512-row streaming threshold.
        Workload::ReadLarge => band(4, 512..=usize::MAX, 7_600..=8_400),
        Workload::ReadMiss => band(3 * RESULT_CACHE, 1..=256, ANY),
        Workload::WriteMix => band(8, 1..=256, ANY),
        Workload::MinimizeQn => band(0, ANY, ANY),
    }
}

/// A seeded renaming of `Q_3`: fresh variable names, atoms shuffled.
fn renaming(rng: &mut Rng) -> String {
    let q = qn_family(3);
    let vars: Vec<String> = q.variables().iter().map(|v| v.to_string()).collect();
    let mut names: BTreeMap<String, String> = BTreeMap::new();
    let mut used = BTreeSet::new();
    for v in &vars {
        let name = loop {
            let candidate = format!("v{}", rng.below(100_000));
            if used.insert(candidate.clone()) {
                break candidate;
            }
        };
        names.insert(v.clone(), name);
    }
    let mut atoms: Vec<String> = q
        .atoms()
        .iter()
        .map(|a| {
            let args: Vec<&str> = a
                .args
                .iter()
                .map(|t| names[&t.to_string()].as_str())
                .collect();
            format!("{}({})", a.relation, args.join(", "))
        })
        .collect();
    for i in (1..atoms.len()).rev() {
        atoms.swap(i, rng.below(i + 1));
    }
    format!("ans() :- {}", atoms.join(", "))
}

/// Everything one run of one workload needs, derived from its seed.
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The seed everything below derives from.
    pub seed: u64,
    /// The database (`R` 20,000 and `S` 4,000 tuples over 1,000 values).
    pub db: Database,
    /// `/eval` queries (empty for `minimize_qn`).
    pub queries: Vec<EvalQuery>,
    /// `write_mix`'s mutation pool.
    pub pool: Vec<PoolTuple>,
    /// `minimize_qn`'s query texts.
    pub renamings: Vec<String>,
    /// Reference minimization of `Q_3` (`minimize_qn` only).
    pub minimal: Option<UnionQuery>,
}

impl Inputs {
    /// Derives the inputs of `workload` from `seed`: generates the
    /// database, draws queries until each is inside its workload's
    /// answer-size band, and computes every reference answer in process.
    pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
        let db = random_database(
            &DatabaseSpec {
                relations: vec![("R".to_owned(), 2, R_TUPLES), ("S".to_owned(), 2, S_TUPLES)],
                domain_size: DOMAIN,
                value_prefix: "d".to_owned(),
            },
            seed,
        );
        let session = EvalSession::new();
        let band = query_band(workload);
        let mut rng = Rng::new(seed, 1);
        let mut queries: Vec<EvalQuery> = Vec::with_capacity(band.count);
        let mut seen = BTreeSet::new();
        let mut attempts = 0;
        while queries.len() < band.count {
            attempts += 1;
            if attempts > 100 * band.count {
                return Err(format!(
                    "seed {seed}: only {} of {} {} queries fall in their answer-size band",
                    queries.len(),
                    band.count,
                    workload.name()
                ));
            }
            let text = query_text(workload, &mut rng, queries.len());
            if !seen.insert(text.clone()) {
                continue;
            }
            let q = parse_ucq(&text).map_err(|e| format!("{text}: {e}"))?;
            let result = session.eval_ucq(&q, &db);
            let monomials: usize = result.iter().map(|(_, p)| p.monomials().count()).sum();
            if band.rows.contains(&result.len()) && band.monomials.contains(&monomials) {
                let lines = result_lines(&result);
                let reference = canonical(lines.iter().map(String::as_str))?;
                queries.push(EvalQuery { text, reference });
            }
        }

        let mut pool = Vec::new();
        if workload == Workload::WriteMix {
            let mut rng = Rng::new(seed, 2);
            let r = RelName::new("R");
            let mut taken = BTreeSet::new();
            while pool.len() < MUTATION_POOL {
                // Each pool tuple extends one query's answer: its first
                // value is that query's constant.
                let k = queries[pool.len() % queries.len()]
                    .text
                    .split('\'')
                    .nth(1)
                    .expect("write_mix queries carry a constant")
                    .to_owned();
                let b = format!("d{}", rng.below(DOMAIN));
                let tuple = Tuple::of(&[&k, &b]);
                if db.annotation_of(r, &tuple).is_some() || !taken.insert((k.clone(), b.clone())) {
                    continue;
                }
                pool.push(PoolTuple {
                    values: [k, b],
                    annotation: format!("wm{}", pool.len()),
                });
            }
        }

        let (renamings, minimal) = if workload == Workload::MinimizeQn {
            let mut rng = Rng::new(seed, 3);
            let renamings = (0..RENAMINGS).map(|_| renaming(&mut rng)).collect();
            let minimal = match minimize_with(
                &UnionQuery::single(qn_family(3)),
                MinimizeOptions::default(),
            )
            .map_err(|e| e.to_string())?
            {
                MinimizeOutcome::Complete(q) => q,
                MinimizeOutcome::Partial(_) => {
                    return Err("unbudgeted minimization was partial".into())
                }
            };
            (renamings, Some(minimal))
        } else {
            (Vec::new(), None)
        };

        Ok(Inputs {
            workload,
            seed,
            db,
            queries,
            pool,
            renamings,
            minimal,
        })
    }

    /// Names of the timed request classes. Class 0 is the workload's
    /// primary operation; `write_mix` adds its concurrent readers as class
    /// 1. Single-class workloads report class 0 for both.
    pub fn classes(&self) -> &'static [&'static str] {
        match self.workload {
            Workload::WriteMix => &["mutate", "eval"],
            Workload::MinimizeQn => &["minimize"],
            Workload::CliCold => &["cli_eval"],
            _ => &["eval"],
        }
    }

    /// The request body `request` sends.
    pub fn body(&self, request: Request) -> String {
        let field = |key: &str, value: Json| Json::Obj(vec![(key.to_owned(), value)]).to_string();
        match request {
            Request::Eval(i) => field("query", Json::str(self.queries[i].text.clone())),
            Request::Minimize(i) => field("query", Json::str(self.renamings[i].clone())),
            Request::Insert(i) => field(
                "insert",
                Json::Arr(vec![Json::Str(self.pool[i].insert_line())]),
            ),
            Request::Remove(i) => field(
                "remove",
                Json::Arr(vec![Json::Str(self.pool[i].remove_line())]),
            ),
        }
    }

    /// The database `write_mix` should hold once `present` pool tuples
    /// are in (the reference for its final check).
    pub fn db_with_pool(&self, present: &[bool]) -> Database {
        let mut db = self.db.clone();
        for (tuple, _) in self.pool.iter().zip(present).filter(|(_, &p)| p) {
            db.add(
                "R",
                &[&tuple.values[0], &tuple.values[1]],
                &tuple.annotation,
            );
        }
        db
    }

    /// Writes a served workload's data directory: a snapshot of the
    /// database plus a [`WAL_TAIL`]-frame log past it, through the
    /// program's own `DurableStore`/`WalWriter`. Replaces `dir`.
    pub fn write_data_dir(&self, dir: &Path) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(dir);
        let (mut store, _) = DurableStore::open(dir, DurabilityOptions::default())?;
        store
            .snapshot(&self.db)
            .map_err(|e| format!("snapshot: {e}"))?;
        drop(store);
        let base = self.db.generation();
        let r = RelName::new("R");
        let half = WAL_TAIL / 2;
        let tail: Vec<DeltaEvent> = (0..WAL_TAIL)
            .map(|i| {
                let j = i % half;
                DeltaEvent {
                    generation: base + 1 + i as u64,
                    kind: if i < half {
                        DeltaKind::Insert
                    } else {
                        DeltaKind::Remove
                    },
                    rel: r,
                    tuple: Tuple::of(&[&format!("wal{j}"), &format!("wal{j}")]),
                    annotation: Annotation::new(&format!("wal{j}")),
                }
            })
            .collect();
        let mut wal = WalWriter::open(&dir.join(WAL_FILE), FsyncPolicy::Always)
            .map_err(|e| format!("wal: {e}"))?;
        wal.append(&tail).map_err(|e| format!("wal tail: {e}"))
    }

    /// Writes the database as a text file (what `provmin eval` reads).
    pub fn write_db_file(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, prov_storage::textio::format_database(&self.db))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The request stream of one class of one workload. The same seed always
/// yields the same sequence; threads of one class share one stream.
pub struct Stream {
    workload: Workload,
    class: usize,
    k: u64,
    rng: Rng,
    /// `write_mix`: which pool tuples the stream has inserted.
    present: Vec<bool>,
    queries: usize,
}

impl Stream {
    /// Class `class`'s stream for `inputs`.
    pub fn new(inputs: &Inputs, class: usize) -> Stream {
        Stream {
            workload: inputs.workload,
            class,
            k: 0,
            rng: Rng::new(inputs.seed, 10 + class as u64),
            present: vec![false; inputs.pool.len()],
            queries: inputs.queries.len(),
        }
    }

    /// Pool tuples present after every request issued so far.
    pub fn present(&self) -> &[bool] {
        &self.present
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let k = self.k as usize;
        self.k += 1;
        Some(match (self.workload, self.class) {
            (Workload::MinimizeQn, _) => Request::Minimize(self.rng.below(RENAMINGS)),
            (Workload::WriteMix, 0) => {
                let i = self.rng.below(self.present.len());
                self.present[i] = !self.present[i];
                if self.present[i] {
                    Request::Insert(i)
                } else {
                    Request::Remove(i)
                }
            }
            // Cycling in a fixed order: for read_miss each query recurs only
            // after the other 95, so the 32-entry result cache never holds it.
            _ => Request::Eval(k % self.queries),
        })
    }
}
