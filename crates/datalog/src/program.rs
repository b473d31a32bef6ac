//! Non-recursive Datalog programs: rules over EDB (stored) and IDB
//! (derived) predicates, with a dependency-order check.
//!
//! The paper (§8) names provenance minimization for Datalog as future
//! work; for the *non-recursive* fragment every IDB predicate unfolds into
//! a UCQ≠ over the EDB, so the paper's machinery applies verbatim — this
//! crate implements exactly that reduction.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use prov_query::{parse_cq, ConjunctiveQuery, ParseError};
use prov_storage::RelName;

/// A non-recursive Datalog program: a list of rules, grouped by the IDB
/// predicate they define.
#[derive(Clone, Debug)]
pub struct Program {
    rules: Vec<ConjunctiveQuery>,
    /// IDB predicates in dependency order (definitions before uses).
    order: Vec<RelName>,
}

/// Errors raised when building a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// The dependency graph over IDB predicates has a cycle.
    Recursive(String),
    /// A rule failed to parse.
    Parse(String),
    /// The program has no rules.
    Empty,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Recursive(p) => {
                write!(
                    f,
                    "recursion through predicate {p} (only non-recursive programs are supported)"
                )
            }
            ProgramError::Parse(e) => write!(f, "{e}"),
            ProgramError::Empty => f.write_str("program has no rules"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<ParseError> for ProgramError {
    fn from(e: ParseError) -> Self {
        ProgramError::Parse(e.to_string())
    }
}

impl Program {
    /// Builds a program from rules, checking non-recursiveness.
    pub fn new(rules: Vec<ConjunctiveQuery>) -> Result<Self, ProgramError> {
        if rules.is_empty() {
            return Err(ProgramError::Empty);
        }
        let idb: BTreeSet<RelName> = rules.iter().map(|r| r.head_relation()).collect();
        // Dependency edges: defining predicate → IDB predicates used in
        // its bodies.
        let mut deps: BTreeMap<RelName, BTreeSet<RelName>> = BTreeMap::new();
        for rule in &rules {
            let entry = deps.entry(rule.head_relation()).or_default();
            for atom in rule.atoms() {
                if idb.contains(&atom.relation) {
                    entry.insert(atom.relation);
                }
            }
        }
        // Topological sort (Kahn); a leftover node means a cycle.
        let mut order = Vec::new();
        let mut remaining: BTreeMap<RelName, BTreeSet<RelName>> = deps.clone();
        while !remaining.is_empty() {
            let ready: Vec<RelName> = remaining
                .iter()
                .filter(|(_, ds)| ds.iter().all(|d| order.contains(d)))
                .map(|(&p, _)| p)
                .collect();
            if ready.is_empty() {
                let culprit = remaining.keys().next().expect("non-empty");
                return Err(ProgramError::Recursive(culprit.name().to_owned()));
            }
            for p in ready {
                remaining.remove(&p);
                order.push(p);
            }
        }
        Ok(Program { rules, order })
    }

    /// Parses a program: one rule per non-empty, non-comment line.
    pub fn parse(text: &str) -> Result<Self, ProgramError> {
        let mut rules = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("--") || line.starts_with('#') {
                continue;
            }
            rules.push(parse_cq(line)?);
        }
        Program::new(rules)
    }

    /// The rules, in written order.
    pub fn rules(&self) -> &[ConjunctiveQuery] {
        &self.rules
    }

    /// The IDB predicates in dependency order (definitions first).
    pub fn idb_order(&self) -> &[RelName] {
        &self.order
    }

    /// The IDB predicates (defined by some rule).
    pub fn idb(&self) -> BTreeSet<RelName> {
        self.order.iter().copied().collect()
    }

    /// The rules defining `predicate`.
    pub fn rules_for(&self, predicate: RelName) -> Vec<&ConjunctiveQuery> {
        self.rules
            .iter()
            .filter(|r| r.head_relation() == predicate)
            .collect()
    }

    /// Whether `rel` is an EDB predicate from this program's viewpoint.
    pub fn is_edb(&self, rel: RelName) -> bool {
        !self.idb().contains(&rel)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_two_hop_program() {
        let p = Program::parse(
            "hop(x,y) :- E(x,y)\n\
             two(x,z) :- hop(x,y), hop(y,z)",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 2);
        assert_eq!(p.idb().len(), 2);
        // hop must precede two in dependency order.
        let order = p.idb_order();
        let hop = order.iter().position(|r| r.name() == "hop").unwrap();
        let two = order.iter().position(|r| r.name() == "two").unwrap();
        assert!(hop < two);
    }

    #[test]
    fn rejects_recursion() {
        let err = Program::parse(
            "tc(x,y) :- E(x,y)\n\
             tc(x,z) :- tc(x,y), E(y,z)",
        )
        .unwrap_err();
        assert!(matches!(err, ProgramError::Recursive(_)));
    }

    #[test]
    fn rejects_mutual_recursion() {
        let err = Program::parse(
            "p(x) :- q(x)\n\
             q(x) :- p(x)\n\
             p(x) :- E(x,x)",
        )
        .unwrap_err();
        assert!(matches!(err, ProgramError::Recursive(_)));
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(
            Program::parse("-- nothing\n").unwrap_err(),
            ProgramError::Empty
        );
    }

    #[test]
    fn edb_detection() {
        let p = Program::parse("v(x) :- E(x,y)").unwrap();
        assert!(p.is_edb(RelName::new("E")));
        assert!(!p.is_edb(RelName::new("v")));
    }

    #[test]
    fn rules_for_groups_by_head() {
        let p = Program::parse(
            "v(x) :- E(x,y)\n\
             v(x) :- F(x)\n\
             w(x) :- v(x)",
        )
        .unwrap();
        assert_eq!(p.rules_for(RelName::new("v")).len(), 2);
        assert_eq!(p.rules_for(RelName::new("w")).len(), 1);
    }
}
