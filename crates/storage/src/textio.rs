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

use std::fmt;

use prov_semiring::Annotation;

use crate::database::Database;
use crate::tuple::Tuple;
use crate::value::{RelName, Value};

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

/// Parses one line of the text format: `R(a, b) : s1` (or `R(a, b)` for a
/// fresh abstract annotation). Returns `None` for blank and comment lines.
///
/// This is the single-tuple entry point the whole-file
/// [`parse_database`] loops over; mutation front ends (the `provmin
/// serve` `/mutate` endpoint) use it to validate and apply individual
/// insert/remove lines without constructing a throwaway database.
pub fn parse_tuple_line(raw: &str) -> Result<Option<(RelName, Tuple, Option<Annotation>)>, String> {
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
    let values: Vec<Value> = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner
            .split(',')
            .map(|v| {
                let v = v.trim().trim_matches('\'');
                if v.is_empty() {
                    Err("empty value".to_owned())
                } else {
                    Ok(Value::new(v))
                }
            })
            .collect::<Result<_, _>>()?
    };
    Ok(Some((
        RelName::new(rel_name),
        Tuple::new(values),
        annotation.map(Annotation::new),
    )))
}

/// Parses a database from the text format.
///
/// Never panics: beyond per-line syntax, cross-line inconsistencies — an
/// annotation re-tagging a different tuple, an arity mismatch with an
/// earlier line — are reported as errors where `Database::insert` /
/// `Relation::insert` would assert. Untrusted input (network bodies,
/// on-disk snapshots after a crash) must never be able to reach those
/// asserts.
pub fn parse_database(text: &str) -> Result<Database, TextFormatError> {
    let mut db = Database::new();
    parse_database_into(&mut db, text)?;
    Ok(db)
}

/// Parses text-format tuples into an existing database (same checked,
/// never-panicking semantics as [`parse_database`], validated against the
/// database's current content). Lets callers pick the instance's
/// configuration — e.g. `Database::with_delta_capacity` — before loading.
///
/// Not atomic: on error, lines before the offending one have been applied.
/// Callers needing all-or-nothing semantics should parse into a scratch
/// database first.
pub fn parse_database_into(db: &mut Database, text: &str) -> Result<(), TextFormatError> {
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let parsed = parse_tuple_line(raw).map_err(|message| TextFormatError { line, message })?;
        let Some((rel, tuple, annotation)) = parsed else {
            continue;
        };
        checked_insert(db, rel, tuple, annotation)
            .map_err(|message| TextFormatError { line, message })?;
    }
    Ok(())
}

/// Inserts one parsed tuple, converting the panics `Database::insert` /
/// `Relation::insert` reserve for programming errors into `Err`s — the
/// validation layer for every path that feeds *untrusted* tuples into a
/// database (text loads, `/mutate` bodies, WAL replay after a crash).
pub fn checked_insert(
    db: &mut Database,
    rel: RelName,
    tuple: Tuple,
    annotation: Option<Annotation>,
) -> Result<(), String> {
    if let Some(existing) = db.relation(rel) {
        if existing.arity() != tuple.arity() {
            return Err(format!(
                "{rel} has arity {}, got a {}-tuple",
                existing.arity(),
                tuple.arity()
            ));
        }
    }
    match annotation {
        Some(a) => {
            if let Some((r0, t0)) = db.tuple_of(a) {
                if !(*r0 == rel && *t0 == tuple) {
                    return Err(format!(
                        "annotation {a} already tags {r0}{t0} \
                         (databases must be abstractly tagged)"
                    ));
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
    fn parse_into_respects_existing_content() {
        let mut db = Database::with_delta_capacity(7);
        parse_database_into(&mut db, "R(a, b) : pi1\n").unwrap();
        assert_eq!(db.delta_capacity(), 7);
        let err = parse_database_into(&mut db, "R(c) : pi2\n").unwrap_err();
        assert!(err.message.contains("arity"));
        let err = parse_database_into(&mut db, "S(z) : pi1\n").unwrap_err();
        assert!(err.message.contains("already tags"));
        parse_database_into(&mut db, "R(c, d) : pi3\n").unwrap();
        assert_eq!(db.num_tuples(), 2);
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
