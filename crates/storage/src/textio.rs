//! A plain-text database format, for the CLI and for shipping instances
//! between tools.
//!
//! One tuple per line:
//!
//! ```text
//! # comment
//! R(a, b) : s2        -- explicit annotation
//! R(b, c)             -- fresh abstract annotation
//! ```
//!
//! A whole file has one loader, [`parse_database`] (with
//! [`parse_database_with_delta_capacity`] to pick the delta-log window):
//! the CLI, `provmin serve --db`, the server's `/load` and boot recovery's
//! snapshot all go through it. It builds a new lineage in one pass, under
//! one holding of the symbol interners' locks per batch of lines. Single
//! events applied to a live database — a `/mutate` line, a write-ahead-log
//! frame — go through [`parse_tuple_line`] and [`checked_insert`].

use std::collections::HashMap;
use std::fmt;

use prov_semiring::Annotation;

use crate::database::{arity_mismatch, retagged, BulkLoad, Database, DELTA_LOG_CAPACITY};
use crate::tuple::Tuple;
use crate::value::{RelName, SymbolBatch, Value};

/// Errors from parsing the text database format.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TextFormatError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TextFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextFormatError {}

/// The syntax of one line: `Ok(None)` for blank and comment lines, else
/// the relation name and the annotation, with the values pushed onto
/// `values`. On an `empty value` error, `values` holds the ones before
/// it.
fn scan_line<'t>(
    raw: &'t str,
    values: &mut Vec<&'t str>,
) -> Result<Option<(&'t str, Option<&'t str>)>, String> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with("--") {
        return Ok(None);
    }
    let (atom_part, annotation) = match line.split_once(':') {
        Some((a, ann)) => {
            let ann = ann.trim();
            if ann.is_empty() {
                return Err("empty annotation after ':'".to_owned());
            }
            (a.trim(), Some(ann))
        }
        None => (line, None),
    };
    let open = atom_part
        .find('(')
        .ok_or_else(|| format!("expected '(' in tuple: {atom_part}"))?;
    if !atom_part.ends_with(')') {
        return Err(format!("expected ')' at end of tuple: {atom_part}"));
    }
    let rel_name = atom_part[..open].trim();
    if rel_name.is_empty() {
        return Err("missing relation name".to_owned());
    }
    let inner = &atom_part[open + 1..atom_part.len() - 1];
    if !inner.trim().is_empty() {
        for v in inner.split(',') {
            let v = v.trim().trim_matches('\'');
            if v.is_empty() {
                return Err("empty value".to_owned());
            }
            values.push(v);
        }
    }
    Ok(Some((rel_name, annotation)))
}

/// Parses one line of the text format: `R(a, b) : s1` (or `R(a, b)` for a
/// fresh abstract annotation). Returns `None` for blank and comment lines.
///
/// The single-tuple entry point: mutation front ends (the `provmin
/// serve` `/mutate` endpoint, write-ahead-log replay) use it to validate
/// and apply individual insert/remove lines without constructing a
/// throwaway database.
pub fn parse_tuple_line(raw: &str) -> Result<Option<(RelName, Tuple, Option<Annotation>)>, String> {
    let mut names = Vec::new();
    let scanned = scan_line(raw, &mut names);
    let tuple: Tuple = names.into_iter().map(Value::new).collect();
    let Some((rel, annotation)) = scanned? else {
        return Ok(None);
    };
    Ok(Some((
        RelName::new(rel),
        tuple,
        annotation.map(Annotation::new),
    )))
}

/// Lines per holding of the interners' locks: a load on a live server
/// delays another thread's interning (a query parse) by one batch, not
/// by the whole file.
const LOAD_BATCH_LINES: usize = 4096;

/// Parses a database from the text format, with the default delta-log
/// window ([`DELTA_LOG_CAPACITY`]).
///
/// Never panics: beyond per-line syntax, cross-line inconsistencies — an
/// annotation re-tagging a different tuple, an arity mismatch with an
/// earlier line — are reported as errors where `Database::insert` /
/// `Relation::insert` would assert. Untrusted input (network bodies,
/// on-disk snapshots after a crash) must never be able to reach those
/// asserts. A repeated tuple is idempotent. The first error wins, with
/// its 1-based line.
pub fn parse_database(text: &str) -> Result<Database, TextFormatError> {
    parse_database_with_delta_capacity(text, DELTA_LOG_CAPACITY)
}

/// How many lines open with each relation name: a capacity hint, so that
/// each relation's rows and index are allocated once. Malformed lines
/// count too; an over-estimate costs only spare capacity.
fn rows_per_relation(text: &str) -> HashMap<&str, usize> {
    let mut rows: HashMap<&str, usize> = HashMap::new();
    // Files list a relation's lines together: count runs, hash once per run.
    let mut run = ("", 0);
    for line in text.lines() {
        if let Some((name, _)) = line.split_once('(') {
            let name = name.trim();
            if name == run.0 {
                run.1 += 1;
            } else {
                *rows.entry(run.0).or_default() += run.1;
                run = (name, 1);
            }
        }
    }
    *rows.entry(run.0).or_default() += run.1;
    rows
}

/// [`parse_database`] into a database whose delta log keeps
/// `delta_capacity` events (`Database::with_delta_capacity`).
///
/// The result is one new lineage: it carries one fresh generation stamp
/// (stamp 0 if no tuple went in) and an empty delta log. Symbols are
/// interned in line order — values, then the relation name, then the
/// annotation, then a fresh `@k` for an unannotated new tuple — so ids,
/// and with them row order and rendered bytes, are those of inserting the
/// lines one at a time.
pub fn parse_database_with_delta_capacity(
    text: &str,
    delta_capacity: usize,
) -> Result<Database, TextFormatError> {
    let mut load = BulkLoad::new(delta_capacity, rows_per_relation(text));
    let mut lines = text.lines().enumerate().peekable();
    let mut names = Vec::new();
    while lines.peek().is_some() {
        // Lock order: values, relation names, annotations.
        let mut symbols = SymbolBatch::new();
        let mut annotations = Annotation::batch();
        let mut last_rel: Option<(&str, RelName)> = None;
        for (idx, raw) in lines.by_ref().take(LOAD_BATCH_LINES) {
            let line = idx + 1;
            let err = |message| TextFormatError { line, message };
            names.clear();
            let scanned = scan_line(raw, &mut names);
            let tuple: Tuple = names.iter().map(|v| symbols.value(v)).collect();
            let Some((rel_name, annotation)) = scanned.map_err(err)? else {
                continue;
            };
            let rel = match last_rel {
                Some((name, rel)) if name == rel_name => rel,
                _ => {
                    let rel = symbols.rel(rel_name);
                    last_rel = Some((rel_name, rel));
                    rel
                }
            };
            let annotation = annotation.map(|a| annotations.intern(a));
            load.insert(rel, tuple, annotation, || annotations.fresh())
                .map_err(err)?;
        }
    }
    Ok(load.finish())
}

/// The line-at-a-time loader the bulk load replaced: every line through
/// [`parse_tuple_line`] and [`checked_insert`]. The test oracle for
/// [`parse_database_with_delta_capacity`].
#[cfg(test)]
fn parse_database_per_line(text: &str, delta_capacity: usize) -> Result<Database, TextFormatError> {
    let mut db = Database::with_delta_capacity(delta_capacity);
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let parsed = parse_tuple_line(raw).map_err(|message| TextFormatError { line, message })?;
        let Some((rel, tuple, annotation)) = parsed else {
            continue;
        };
        checked_insert(&mut db, rel, tuple, annotation)
            .map_err(|message| TextFormatError { line, message })?;
    }
    Ok(db)
}

/// Inserts one parsed tuple, converting the panics `Database::insert` /
/// `Relation::insert` reserve for programming errors into `Err`s — the
/// validation layer for every path that feeds *untrusted* single events
/// into a live database (`/mutate` bodies, WAL replay after a crash).
pub fn checked_insert(
    db: &mut Database,
    rel: RelName,
    tuple: Tuple,
    annotation: Option<Annotation>,
) -> Result<(), String> {
    if let Some(existing) = db.relation(rel) {
        if existing.arity() != tuple.arity() {
            return Err(arity_mismatch(rel, existing.arity(), &tuple));
        }
    }
    match annotation {
        Some(a) => {
            if let Some((r0, t0)) = db.tuple_of(a) {
                if !(*r0 == rel && *t0 == tuple) {
                    return Err(retagged(a, *r0, t0));
                }
            }
            db.insert(rel, tuple, a);
        }
        None => {
            db.insert_fresh(rel, tuple);
        }
    }
    Ok(())
}

/// Renders one tuple as a text-format line (no trailing newline):
/// `R(a, b) : s1`. The single-tuple inverse of [`parse_tuple_line`], and
/// the record payload format of the write-ahead log.
pub fn render_tuple_line(rel: RelName, tuple: &Tuple, annotation: Annotation) -> String {
    let mut out = String::new();
    out.push_str(rel.name());
    out.push('(');
    for (i, v) in tuple.values().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(v.name());
    }
    out.push_str(") : ");
    out.push_str(annotation.name());
    out
}

/// Serializes a database to the text format (round-trips through
/// [`parse_database`]).
pub fn format_database(db: &Database) -> String {
    let mut out = String::new();
    for rel in db.relations() {
        for (tuple, annotation) in rel.iter() {
            out.push_str(&render_tuple_line(rel.name(), tuple, *annotation));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_table_2() {
        let db = parse_database(
            "# Table 2\n\
             R(a, a) : s1\n\
             R(a, b) : s2\n\
             R(b, a) : s3\n\
             R(b, b) : s4\n",
        )
        .unwrap();
        assert_eq!(db.num_tuples(), 4);
        assert_eq!(
            db.annotation_of(RelName::new("R"), &Tuple::of(&["a", "b"])),
            Some(Annotation::new("s2"))
        );
    }

    #[test]
    fn fresh_annotations_when_omitted() {
        let db = parse_database("U(x1)\nU(x2)\n").unwrap();
        assert_eq!(db.num_tuples(), 2);
        let rel = db.relation(RelName::new("U")).unwrap();
        let tags: Vec<_> = rel.iter().map(|(_, a)| *a).collect();
        assert_ne!(tags[0], tags[1]);
    }

    #[test]
    fn round_trip() {
        let original = parse_database("R(a, b) : rt1\nS(c) : rt2\n").unwrap();
        let text = format_database(&original);
        let reparsed = parse_database(&text).unwrap();
        assert_eq!(reparsed.num_tuples(), original.num_tuples());
        assert_eq!(
            reparsed.annotation_of(RelName::new("S"), &Tuple::of(&["c"])),
            Some(Annotation::new("rt2"))
        );
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let db = parse_database("\n# hi\n-- also a comment\nR(a) : c1\n\n").unwrap();
        assert_eq!(db.num_tuples(), 1);
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = parse_database("R(a) : e1\nnot a tuple\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_database("R(a) :\n").unwrap_err();
        assert!(err.message.contains("empty annotation"));
        let err = parse_database("R(a\n").unwrap_err();
        assert!(err.message.contains("')'"));
        let err = parse_database("(a)\n").unwrap_err();
        assert!(err.message.contains("relation name"));
        let err = parse_database("R(a,,b)\n").unwrap_err();
        assert!(err.message.contains("empty value"));
    }

    #[test]
    fn quoted_values_accepted() {
        let db = parse_database("R('a', b) : q1\n").unwrap();
        assert!(db
            .annotation_of(RelName::new("R"), &Tuple::of(&["a", "b"]))
            .is_some());
    }

    #[test]
    fn cross_line_inconsistencies_are_errors_not_panics() {
        // Annotation re-used for a different tuple: would assert inside
        // Database::insert if it reached it.
        let err = parse_database("R(a, a) : s1\nR(b, b) : s1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("abstractly tagged"));
        // Arity mismatch between lines of one relation.
        let err = parse_database("R(a)\nR(b, c)\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("arity"));
        // Re-asserting the same (tuple, annotation) pair is idempotent.
        let db = parse_database("R(a) : s1\nR(a) : s1\n").unwrap();
        assert_eq!(db.num_tuples(), 1);
    }

    #[test]
    fn a_load_is_one_new_lineage() {
        let db = parse_database_with_delta_capacity("R(a, b) : pi1\nR(c, d) : pi3\n", 7).unwrap();
        assert_eq!(db.delta_capacity(), 7);
        assert_eq!(db.num_tuples(), 2);
        assert_ne!(db.generation(), 0);
        assert_eq!(db.deltas_since(db.generation()), Some(&[][..]));
        assert_eq!(db.deltas_since(0), None);
        let err = parse_database("R(a, b) : pi1\nR(c) : pi2\n").unwrap_err();
        assert!(err.message.contains("arity"));
        let err = parse_database("R(a, b) : pi1\nS(z) : pi1\n").unwrap_err();
        assert!(err.message.contains("already tags"));
        // Nothing inserted: the shared stamp of empty databases.
        let empty = parse_database("# only a comment\n\n").unwrap();
        assert_eq!(empty.generation(), 0);
        assert_eq!(empty.deltas_since(0), Some(&[][..]));
    }

    /// A random text of `lines` lines from `seed`: comments, blank lines,
    /// quoted values, fresh and named annotations, repeated tuples,
    /// re-tagged annotations, arity clashes and malformed lines.
    fn random_text(seed: u64, lines: usize) -> String {
        let mut state = seed;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut text = String::new();
        for _ in 0..lines {
            let line = match next(20) {
                0 => String::new(),
                1 => "   ".to_owned(),
                2 => "# R(a, b) : s1".to_owned(),
                3 => "-- comment".to_owned(),
                4 => [
                    "R(a", "R a)", "(a)", "R(a,,b)", "R(a) :", "garbage", "R(a, )",
                ][next(7) as usize]
                    .to_owned(),
                _ => {
                    let rel = ["R", "S", "T"][next(3) as usize];
                    // Mostly each relation's own arity, sometimes a clash.
                    let arity = match next(12) {
                        0 => next(4) as usize,
                        _ => rel.len() + (rel == "S") as usize,
                    };
                    let values: Vec<String> = (0..arity)
                        .map(|_| {
                            let v = ["a", "b", "c"][next(3) as usize];
                            if next(4) == 0 {
                                format!("'{v}'")
                            } else {
                                v.to_owned()
                            }
                        })
                        .collect();
                    let mut line = format!("{rel}({})", values.join(", "));
                    if next(3) != 0 {
                        line.push_str(&format!(" : s{}", next(8)));
                    }
                    if next(5) == 0 {
                        line = format!("  {line} ");
                    }
                    line
                }
            };
            text.push_str(&line);
            text.push('\n');
        }
        text
    }

    /// A database's rows, relation by relation in row order, each
    /// annotation named as in the text or, when minted fresh, by its rank
    /// among the database's fresh annotations (both loaders run in one
    /// process, so they mint different `@k` names).
    fn rows_of(db: &Database) -> Vec<(RelName, Tuple, String)> {
        let mut fresh: Vec<Annotation> = db
            .relations()
            .flat_map(|r| r.iter().map(|(_, a)| *a))
            .filter(|a| a.name().starts_with('@'))
            .collect();
        fresh.sort();
        db.relations()
            .flat_map(|r| r.iter().map(move |(t, a)| (r.name(), t.clone(), *a)))
            .map(|(rel, tuple, a)| {
                let name = match fresh.binary_search(&a) {
                    Ok(rank) => format!("fresh#{rank}"),
                    Err(_) => a.name().to_owned(),
                };
                (rel, tuple, name)
            })
            .collect()
    }

    /// The bulk load agrees with the line-at-a-time oracle on `text`.
    fn agrees_with_oracle(text: &str) -> Result<(), String> {
        let oracle = parse_database_per_line(text, 9);
        let bulk = parse_database_with_delta_capacity(text, 9);
        let (oracle, bulk) = match (oracle, bulk) {
            (Err(o), Err(b)) if o == b => return Ok(()),
            (Ok(o), Ok(b)) => (o, b),
            (o, b) => return Err(format!("oracle {o:?}, bulk {b:?}")),
        };
        let rows = rows_of(&bulk);
        if rows != rows_of(&oracle) {
            return Err(format!("rows differ: {rows:?} vs {:?}", rows_of(&oracle)));
        }
        for r in bulk.relations() {
            for (tuple, a) in r.iter() {
                if bulk.tuple_of(*a) != Some(&(r.name(), tuple.clone())) {
                    return Err(format!("tuple_of({a}) is not {}{tuple}", r.name()));
                }
            }
        }
        for k in 0..8 {
            let a = Annotation::new(&format!("s{k}"));
            if bulk.tuple_of(a) != oracle.tuple_of(a) {
                return Err(format!("tuple_of({a}) differs"));
            }
        }
        if (bulk.generation() == 0) != (oracle.num_tuples() == 0) {
            return Err(format!(
                "generation {} for {} rows",
                bulk.generation(),
                rows.len()
            ));
        }
        if bulk.num_tuples() > 0 && bulk.deltas_since(0).is_some() {
            return Err("a non-empty load must not replay from stamp 0".to_owned());
        }
        if bulk.delta_capacity() != 9 {
            return Err("delta capacity lost".to_owned());
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn bulk_load_matches_the_per_line_oracle(seed in 0u64..1 << 40, lines in 0usize..40) {
            agrees_with_oracle(&random_text(seed, lines))
                .map_err(proptest::prelude::TestCaseError::fail)?;
        }
    }

    #[test]
    fn bulk_load_matches_the_oracle_across_batches() {
        // Well-formed lines past the first interning batch, then an error.
        let mut text = String::new();
        for i in 0..LOAD_BATCH_LINES + 300 {
            match i % 3 {
                0 => text.push_str(&format!("R(v{i}, v{})\n", i / 2)),
                1 => text.push_str(&format!("R(v{i}, w) : big{i}\n")),
                _ => text.push_str(&format!("S(v{})\n", i % 50)),
            }
        }
        agrees_with_oracle(&text).unwrap();
        assert_eq!(
            parse_database(&text).unwrap().num_tuples(),
            1466 + 1465 + 50
        );
        text.push_str("R(v2, w) : big1\n");
        let err = parse_database(&text).unwrap_err();
        assert_eq!(err.line, LOAD_BATCH_LINES + 301);
        agrees_with_oracle(&text).unwrap();
    }

    #[test]
    fn render_tuple_line_round_trips() {
        let rendered = render_tuple_line(
            RelName::new("R"),
            &Tuple::of(&["a", "b"]),
            Annotation::new("s7"),
        );
        assert_eq!(rendered, "R(a, b) : s7");
        let (rel, tuple, annotation) = parse_tuple_line(&rendered).unwrap().unwrap();
        assert_eq!(rel, RelName::new("R"));
        assert_eq!(tuple, Tuple::of(&["a", "b"]));
        assert_eq!(annotation, Some(Annotation::new("s7")));
        assert_eq!(
            render_tuple_line(RelName::new("T"), &Tuple::empty(), Annotation::new("t0")),
            "T() : t0"
        );
    }

    #[test]
    fn tuple_line_parses_standalone() {
        let (rel, tuple, annotation) = parse_tuple_line("R(a, b) : s9").unwrap().unwrap();
        assert_eq!(rel, RelName::new("R"));
        assert_eq!(tuple, Tuple::of(&["a", "b"]));
        assert_eq!(annotation, Some(Annotation::new("s9")));
        let (_, nullary, fresh) = parse_tuple_line("T()").unwrap().unwrap();
        assert_eq!(nullary, Tuple::empty());
        assert_eq!(fresh, None);
        assert_eq!(parse_tuple_line("  # comment").unwrap(), None);
        assert_eq!(parse_tuple_line("").unwrap(), None);
        assert!(parse_tuple_line("broken").is_err());
    }
}
