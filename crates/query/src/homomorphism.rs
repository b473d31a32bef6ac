//! Homomorphisms between conjunctive queries (paper Def 2.10), the engine
//! of containment (Theorem 3.1) and provenance comparison (Theorem 3.3).
//!
//! A homomorphism `h : Q → Q'` maps the atoms of `Q` to atoms of `Q'`,
//! inducing a consistent mapping on arguments, such that relation names are
//! preserved, the head of `Q` maps to the head of `Q'`, constants map to
//! themselves, and every disequality of `Q` maps to a disequality of `Q'`
//! (or to a pair of distinct constants, which is vacuously disequal).
//!
//! Every search runs on one kernel over [`CompiledQuery`]: dense variable
//! indices, atoms as relation plus argument codes, a precomputed atom
//! order, and each disequality checked as soon as both of its sides are
//! bound. Callers that test one query against many (the minimizer)
//! compile each query once and call [`CompiledQuery::maps_to`].

use std::collections::BTreeMap;
use std::sync::OnceLock;

use prov_storage::Value;

use crate::atom::Atom;
use crate::cq::ConjunctiveQuery;
use crate::term::{Term, Variable, CONST_TAG};

/// A homomorphism between two conjunctive queries.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Homomorphism {
    /// `atom_map[i]` is the target atom index that source atom `i` maps to.
    pub atom_map: Vec<usize>,
    /// The induced mapping on source variables.
    pub var_map: BTreeMap<Variable, Term>,
}

impl Homomorphism {
    /// The image of a source term.
    pub fn apply(&self, t: Term) -> Term {
        match t {
            Term::Var(v) => self.var_map.get(&v).copied().unwrap_or(Term::Var(v)),
            c @ Term::Const(_) => c,
        }
    }

    /// Whether the atom mapping covers every target atom (surjectivity on
    /// relational atoms, the hypothesis of Theorem 3.3).
    pub fn is_surjective_on_atoms(&self, target_len: usize) -> bool {
        let mut covered = vec![false; target_len];
        for &j in &self.atom_map {
            covered[j] = true;
        }
        covered.into_iter().all(|c| c)
    }
}

/// Search configuration for homomorphism enumeration.
#[derive(Clone, Copy, Debug, Default)]
pub struct HomSearch {
    /// Require surjectivity on relational atoms (Theorem 3.3 hypothesis).
    pub surjective: bool,
    /// Require injectivity on relational atoms (isomorphism search).
    pub injective: bool,
    /// Stop after this many homomorphisms (None = enumerate all).
    pub limit: Option<usize>,
}

/// A term as the kernel sees it ([`Term::code`]).
type Code = u64;

const UNBOUND: Code = Code::MAX;

fn is_var(c: Code) -> bool {
    c < CONST_TAG
}

/// A query compiled for the homomorphism kernel; either side of a search.
/// The plan of a search *out of* the query is built on first use, so a
/// query that is only ever searched into never pays for it.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// The query's variables, sorted; a variable's code is its position.
    vars: Vec<Variable>,
    head_relation: u32,
    head: Vec<Code>,
    /// Per atom: relation id and its argument range in `args`.
    atoms: Vec<(u32, u32, u32)>,
    args: Vec<Code>,
    /// Atom indices sorted by `(relation, arity)`, ascending within a
    /// group, and each group's range in that list: the candidate lists of
    /// a search *into* this query.
    by_relation: Vec<u32>,
    groups: Vec<((u32, u32), u32, u32)>,
    /// The disequalities as sorted `(min, max)` code pairs — a variable's
    /// code is below every constant's, so this is each disequality's
    /// normal form — for lookups into this query.
    diseqs: Vec<(Code, Code)>,
    plan: OnceLock<Plan>,
}

/// How a search *out of* a query proceeds.
#[derive(Clone, Debug)]
struct Plan {
    /// The order in which the search maps the query's atoms.
    order: Vec<u32>,
    /// The disequalities sorted by the step after which both sides are
    /// bound: `schedule[due[s]..due[s + 1]]` fall due once the head
    /// (`s = 0`) or the atom of step `s - 1` is mapped.
    schedule: Vec<(u32, Code, Code)>,
    due: Vec<u32>,
}

impl CompiledQuery {
    /// Compiles `q`.
    pub fn new(q: &ConjunctiveQuery) -> Self {
        let mut vars: Vec<Variable> = q.atoms().iter().flat_map(|a| a.variables()).collect();
        vars.sort_unstable();
        vars.dedup();
        let code = |t: Term| t.code(&vars);
        let head: Vec<Code> = q.head().args.iter().map(|&t| code(t)).collect();
        let mut atoms = Vec::with_capacity(q.atoms().len());
        let mut args = Vec::with_capacity(2 * q.atoms().len());
        for a in q.atoms() {
            let start = args.len() as u32;
            args.extend(a.args.iter().map(|&t| code(t)));
            atoms.push((a.relation.id(), start, args.len() as u32));
        }
        let group_key = |j: u32| {
            let (relation, start, end) = atoms[j as usize];
            (relation, end - start)
        };
        let mut by_relation: Vec<u32> = (0..atoms.len() as u32).collect();
        by_relation.sort_unstable_by_key(|&j| (group_key(j), j));
        let mut groups: Vec<((u32, u32), u32, u32)> = Vec::new();
        for (k, &j) in by_relation.iter().enumerate() {
            match groups.last_mut() {
                Some(g) if g.0 == group_key(j) => g.2 = k as u32 + 1,
                _ => groups.push((group_key(j), k as u32, k as u32 + 1)),
            }
        }

        // `q.diseqs()` iterates in (left, right) order, which codes
        // preserve, so `diseqs` comes out sorted.
        let diseqs: Vec<(Code, Code)> = q
            .diseqs()
            .iter()
            .map(|d| (code(Term::Var(d.left())), code(d.right())))
            .collect();
        CompiledQuery {
            head_relation: q.head().relation.id(),
            head,
            atoms,
            args,
            by_relation,
            groups,
            diseqs,
            plan: OnceLock::new(),
            vars,
        }
    }

    fn plan(&self) -> &Plan {
        self.plan.get_or_init(|| self.build_plan())
    }

    fn build_plan(&self) -> Plan {
        let (atoms, args) = (&self.atoms, &self.args);
        // Most-constrained-first: start from atoms sharing variables with
        // the head, then grow along shared variables. `bound_at[v]` is the
        // step after which `v` is bound (0: by the head). `order[step..]`
        // holds the atoms not yet placed.
        let mut bound_at = vec![u32::MAX; self.vars.len()];
        for &c in self.head.iter().filter(|&&c| is_var(c)) {
            bound_at[c as usize] = 0;
        }
        let mut order: Vec<u32> = (0..atoms.len() as u32).collect();
        for step in 0..order.len() {
            // The unplaced atom with the most bound variable occurrences
            // (ties: fewer unbound ones, then lowest index).
            let best = (step..order.len())
                .max_by_key(|&k| {
                    let i = order[k] as usize;
                    let (_, start, end) = atoms[i];
                    let (mut bound, mut unbound) = (0, 0);
                    for &c in args[start as usize..end as usize]
                        .iter()
                        .filter(|&&c| is_var(c))
                    {
                        if bound_at[c as usize] == u32::MAX {
                            unbound += 1;
                        } else {
                            bound += 1;
                        }
                    }
                    (bound, usize::MAX - unbound, usize::MAX - i)
                })
                .expect("an atom is left to place");
            order.swap(step, best);
            let (_, start, end) = atoms[order[step] as usize];
            for &c in args[start as usize..end as usize]
                .iter()
                .filter(|&&c| is_var(c))
            {
                bound_at[c as usize] = bound_at[c as usize].min(step as u32 + 1);
            }
        }

        let mut schedule: Vec<(u32, Code, Code)> = self
            .diseqs
            .iter()
            .map(|&(l, r)| {
                let r_bound = if is_var(r) { bound_at[r as usize] } else { 0 };
                (bound_at[l as usize].max(r_bound), l, r)
            })
            .collect();
        schedule.sort_unstable();
        let mut due = vec![0u32; order.len() + 2];
        for &(s, _, _) in &schedule {
            due[s as usize + 1] += 1;
        }
        for s in 1..due.len() {
            due[s] += due[s - 1];
        }
        Plan {
            order,
            schedule,
            due,
        }
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Whether a homomorphism `self → target` exists — the containment
    /// primitive (Theorem 3.1), stopping at the first witness.
    pub fn maps_to(&self, target: &CompiledQuery) -> bool {
        self.maps_to_without(target, None)
    }

    /// Whether a homomorphism `self → target` exists that maps no atom
    /// onto target atom `excluded` — one into the target with that atom
    /// removed, without compiling the smaller query.
    pub fn maps_to_without(&self, target: &CompiledQuery, excluded: Option<usize>) -> bool {
        let mut exists = false;
        Search::run(self, target, HomSearch::default(), excluded, &mut |_| {
            exists = true;
            Walk::Stop
        });
        exists
    }

    fn atom_args(&self, i: usize) -> &[Code] {
        let (_, start, end) = self.atoms[i];
        &self.args[start as usize..end as usize]
    }

    /// Whether this query, as a target, has the disequality `a ≠ b`.
    fn has_diseq(&self, a: Code, b: Code) -> bool {
        self.diseqs.binary_search(&(a.min(b), a.max(b))).is_ok()
    }

    fn term(&self, c: Code) -> Term {
        if is_var(c) {
            Term::Var(self.vars[c as usize])
        } else {
            Term::Const(Value::from_id((c & !CONST_TAG) as u32))
        }
    }
}

/// Whether the enumeration should keep backtracking or stop — returned by
/// search visitors so callers like [`find_homomorphism`] can terminate on
/// the first witness instead of materializing every candidate mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Walk {
    Continue,
    Stop,
}

/// The backtracking state of one search, in flat arrays. Completed
/// mappings are *visited*, never collected, so search cost is proportional
/// to the part of the candidate space actually explored.
struct Search<'a> {
    source: &'a CompiledQuery,
    plan: &'a Plan,
    target: &'a CompiledQuery,
    config: HomSearch,
    /// A target atom no source atom may map to, or `u32::MAX`.
    excluded: u32,
    /// Per step of the source's order, the target atoms it may map to.
    candidates: Vec<&'a [u32]>,
    /// Source variable → target code, or [`UNBOUND`].
    binding: Vec<Code>,
    /// Variables in binding order; undoing a step truncates it.
    trail: Vec<u32>,
    atom_map: Vec<u32>,
    /// Per target atom, how many source atoms map to it.
    covered: Vec<u32>,
    uncovered: usize,
}

impl<'a> Search<'a> {
    /// Runs the search, calling `visit` on each complete,
    /// constraint-satisfying homomorphism until it returns [`Walk::Stop`].
    /// No source atom maps onto target atom `excluded`.
    fn run(
        source: &'a CompiledQuery,
        target: &'a CompiledQuery,
        config: HomSearch,
        excluded: Option<usize>,
        visit: &mut dyn FnMut(&Search) -> Walk,
    ) {
        if source.head_relation != target.head_relation || source.head.len() != target.head.len() {
            return;
        }
        let plan = source.plan();
        let mut candidates = Vec::with_capacity(plan.order.len());
        for &i in &plan.order {
            let (relation, start, end) = source.atoms[i as usize];
            let key = (relation, end - start);
            let Ok(g) = target.groups.binary_search_by_key(&key, |g| g.0) else {
                return;
            };
            let (_, start, end) = target.groups[g];
            candidates.push(&target.by_relation[start as usize..end as usize]);
        }
        let mut search = Search {
            source,
            plan,
            target,
            config,
            excluded: excluded.map_or(u32::MAX, |j| j as u32),
            candidates,
            binding: vec![UNBOUND; source.vars.len()],
            trail: Vec::with_capacity(source.vars.len()),
            atom_map: vec![u32::MAX; source.atoms.len()],
            covered: vec![0; target.atoms.len()],
            uncovered: target.atoms.len() - usize::from(excluded.is_some()),
        };
        // The induced mapping must send head(Q) to head(Q') positionally.
        if search.unify(&source.head, &target.head) && search.diseqs_hold(0) {
            search.extend(0, visit);
        }
    }

    /// Binds `source` codes to `target` codes position by position,
    /// recording new bindings on the trail; false on a clash (the caller
    /// undoes the partial bindings).
    fn unify(&mut self, source: &[Code], target: &[Code]) -> bool {
        for (&s, &t) in source.iter().zip(target) {
            if !is_var(s) {
                if s != t {
                    return false;
                }
            } else if self.binding[s as usize] == UNBOUND {
                self.binding[s as usize] = t;
                self.trail.push(s as u32);
            } else if self.binding[s as usize] != t {
                return false;
            }
        }
        true
    }

    /// Whether the disequalities that fall due at `due` step `s` map to
    /// disequalities of the target (or to distinct constants).
    fn diseqs_hold(&self, s: usize) -> bool {
        let range = self.plan.due[s] as usize..self.plan.due[s + 1] as usize;
        self.plan.schedule[range].iter().all(|&(_, l, r)| {
            let l = self.binding[l as usize];
            let r = if is_var(r) {
                self.binding[r as usize]
            } else {
                r
            };
            l != r && ((!is_var(l) && !is_var(r)) || self.target.has_diseq(l, r))
        })
    }

    fn extend(&mut self, step: usize, visit: &mut dyn FnMut(&Search) -> Walk) -> Walk {
        if step == self.candidates.len() {
            if self.config.surjective && self.uncovered > 0 {
                return Walk::Continue;
            }
            return visit(self);
        }
        // Surjectivity pruning: the remaining source atoms must be able to
        // cover the still-uncovered target atoms.
        if self.config.surjective && self.candidates.len() - step < self.uncovered {
            return Walk::Continue;
        }
        let (source, target) = (self.source, self.target);
        let i = self.plan.order[step] as usize;
        let candidates = self.candidates[step];
        for &j in candidates {
            if j == self.excluded {
                continue;
            }
            let j = j as usize;
            if self.config.injective && self.covered[j] > 0 {
                continue;
            }
            let mark = self.trail.len();
            let mut walk = Walk::Continue;
            if self.unify(source.atom_args(i), target.atom_args(j)) && self.diseqs_hold(step + 1) {
                self.atom_map[i] = j as u32;
                self.covered[j] += 1;
                self.uncovered -= usize::from(self.covered[j] == 1);
                walk = self.extend(step + 1, visit);
                self.uncovered += usize::from(self.covered[j] == 1);
                self.covered[j] -= 1;
            }
            for v in self.trail.drain(mark..) {
                self.binding[v as usize] = UNBOUND;
            }
            if walk == Walk::Stop {
                return Walk::Stop;
            }
        }
        Walk::Continue
    }

    /// The current complete mapping as a [`Homomorphism`].
    fn homomorphism(&self) -> Homomorphism {
        Homomorphism {
            atom_map: self.atom_map.iter().map(|&j| j as usize).collect(),
            var_map: self
                .source
                .vars
                .iter()
                .zip(&self.binding)
                .map(|(&v, &c)| (v, self.target.term(c)))
                .collect(),
        }
    }
}

fn search(
    source: &ConjunctiveQuery,
    target: &ConjunctiveQuery,
    config: HomSearch,
    visit: &mut dyn FnMut(&Search) -> Walk,
) {
    let (source, target) = (CompiledQuery::new(source), CompiledQuery::new(target));
    Search::run(&source, &target, config, None, visit);
}

/// Finds one homomorphism `source → target`, if any. The backtracking
/// search stops at the first witness — no other candidate mapping is
/// constructed.
pub fn find_homomorphism(
    source: &ConjunctiveQuery,
    target: &ConjunctiveQuery,
) -> Option<Homomorphism> {
    let mut found = None;
    search(source, target, HomSearch::default(), &mut |s| {
        found = Some(s.homomorphism());
        Walk::Stop
    });
    found
}

/// Whether any homomorphism `source → target` exists — the
/// containment-check primitive (Theorem 3.1), with first-witness
/// termination.
pub fn homomorphism_exists(source: &ConjunctiveQuery, target: &ConjunctiveQuery) -> bool {
    CompiledQuery::new(source).maps_to(&CompiledQuery::new(target))
}

/// Finds a homomorphism `source → target` that is surjective on relational
/// atoms (the hypothesis of Theorem 3.3), if any. Coverage is tracked
/// during the search, which prunes branches that can no longer cover
/// every target atom and stops at the first surjective witness.
pub fn find_surjective_homomorphism(
    source: &ConjunctiveQuery,
    target: &ConjunctiveQuery,
) -> Option<Homomorphism> {
    let config = HomSearch {
        surjective: true,
        ..Default::default()
    };
    let mut found = None;
    search(source, target, config, &mut |s| {
        found = Some(s.homomorphism());
        Walk::Stop
    });
    found
}

/// Enumerates all homomorphisms `source → target` under `config`.
pub fn all_homomorphisms(
    source: &ConjunctiveQuery,
    target: &ConjunctiveQuery,
    config: HomSearch,
) -> Vec<Homomorphism> {
    let mut results = Vec::new();
    if config.limit == Some(0) {
        return results;
    }
    search(source, target, config, &mut |s| {
        results.push(s.homomorphism());
        if config.limit.is_some_and(|limit| results.len() >= limit) {
            Walk::Stop
        } else {
            Walk::Continue
        }
    });
    results
}

/// Runs an isomorphism search `q1 → q2`, calling `visit` on each
/// isomorphism. Between queries with equally many atoms, variables and
/// disequalities, every atom-injective homomorphism is one: its atom map
/// is onto, so its variable images cover all of the target's variables
/// and the variable map is a bijection; the disequalities it preserves
/// then map injectively into, hence onto, the target's.
fn isomorphisms(q1: &CompiledQuery, q2: &CompiledQuery, visit: &mut dyn FnMut(&Search) -> Walk) {
    if q1.atoms.len() != q2.atoms.len()
        || q1.diseqs.len() != q2.diseqs.len()
        || q1.vars.len() != q2.vars.len()
    {
        return;
    }
    let config = HomSearch {
        injective: true,
        ..Default::default()
    };
    Search::run(q1, q2, config, None, visit);
}

/// Whether two queries are syntactically isomorphic: a homomorphism that is
/// bijective on atoms and variables and maps the disequality set onto the
/// target's. The search stops at the first isomorphism.
pub fn are_isomorphic(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    let mut iso = false;
    isomorphisms(
        &CompiledQuery::new(q1),
        &CompiledQuery::new(q2),
        &mut |_| {
            iso = true;
            Walk::Stop
        },
    );
    iso
}

/// The automorphisms of `q` (its isomorphisms onto itself) as
/// permutations of its variable indices, flattened: with `n` variables,
/// the `k`-th maps variable `i` to variable `perms[k * n + i]`. Indices
/// follow the sorted order of [`ConjunctiveQuery::variables`]. Each
/// permutation appears once, in search order, the identity included.
///
/// The search runs over the distinct atoms of `q` — with `k` copies of
/// an atom it would visit `k!` atom maps per variable map — and keeps
/// the maps that send each atom to one with as many copies. It stops
/// after visiting `limit` maps, so the result is then a subset of the
/// group.
pub fn automorphism_permutations(q: &ConjunctiveQuery, limit: usize) -> Vec<u32> {
    let mut perms: Vec<u32> = Vec::new();
    if limit == 0 {
        return perms;
    }
    let mut copies: BTreeMap<&Atom, usize> = BTreeMap::new();
    for a in q.atoms() {
        *copies.entry(a).or_default() += 1;
    }
    let copies: Vec<(&Atom, usize)> = copies.into_iter().collect();
    let distinct = ConjunctiveQuery::new(
        q.head().clone(),
        copies.iter().map(|&(a, _)| a.clone()).collect(),
        q.diseqs().iter().copied(),
    )
    .expect("the distinct atoms of a well-formed query are well-formed");
    let compiled = CompiledQuery::new(&distinct);
    let mut visited = 0usize;
    isomorphisms(&compiled, &compiled, &mut |s| {
        let keeps_copies = s
            .atom_map
            .iter()
            .enumerate()
            .all(|(i, &j)| copies[i].1 == copies[j as usize].1);
        if keeps_copies {
            // An automorphism binds every variable to a variable.
            perms.extend(s.binding.iter().map(|&c| c as u32));
        }
        visited += 1;
        if visited == limit {
            Walk::Stop
        } else {
            Walk::Continue
        }
    });
    perms
}

/// The number of automorphisms of `q` (paper Lemma 5.7's `k`), counted
/// during the search without storing the mappings.
pub fn count_automorphisms(q: &ConjunctiveQuery) -> u64 {
    let compiled = CompiledQuery::new(q);
    let mut count = 0u64;
    isomorphisms(&compiled, &compiled, &mut |_| {
        count += 1;
        Walk::Continue
    });
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    #[test]
    fn example_2_11_qconj_to_q2() {
        // There is a homomorphism Qconj → Q2 (both atoms onto the single
        // atom), but none Q2 → Qconj.
        let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let q2 = parse_cq("ans(x) :- R(x,x)").unwrap();
        let h = find_homomorphism(&qconj, &q2).expect("hom exists");
        assert_eq!(h.atom_map, vec![0, 0]);
        assert!(find_homomorphism(&q2, &qconj).is_none());
    }

    #[test]
    fn head_constants_must_match() {
        let q1 = parse_cq("ans('a') :- R('a')").unwrap();
        let q2 = parse_cq("ans('b') :- R('b')").unwrap();
        assert!(find_homomorphism(&q1, &q2).is_none());
        assert!(find_homomorphism(&q1, &q1).is_some());
    }

    #[test]
    fn example_3_4_surjectivity() {
        // Q: ans():-R(x),R(y); Q': ans():-R(x).
        // Hom Q'→Q exists but no surjective one; hom Q→Q' is surjective.
        let q = parse_cq("ans() :- R(x), R(y)").unwrap();
        let q_prime = parse_cq("ans() :- R(z)").unwrap();
        assert!(find_homomorphism(&q_prime, &q).is_some());
        assert!(find_surjective_homomorphism(&q_prime, &q).is_none());
        assert!(find_surjective_homomorphism(&q, &q_prime).is_some());
    }

    #[test]
    fn example_3_2_diseq_blocks_homomorphism() {
        // Q: ans():-R(x,y),R(y,z),x!=z; Q': ans():-R(x2,y2),x2!=y2.
        // No homomorphism Q' → Q (the disequality cannot map), despite
        // Q ⊆ Q' semantically.
        let q = parse_cq("ans() :- R(x,y), R(y,z), x != z").unwrap();
        let q_prime = parse_cq("ans() :- R(x2,y2), x2 != y2").unwrap();
        assert!(find_homomorphism(&q_prime, &q).is_none());
    }

    #[test]
    fn diseq_image_may_be_distinct_constants() {
        // Target uses distinct constants where source requires a diseq.
        let source = parse_cq("ans() :- R(x,y), x != y").unwrap();
        let target = parse_cq("ans() :- R('a','b')").unwrap();
        assert!(find_homomorphism(&source, &target).is_some());
        let target_same = parse_cq("ans() :- R('a','a')").unwrap();
        assert!(find_homomorphism(&source, &target_same).is_none());
    }

    #[test]
    fn constants_map_to_themselves() {
        let source = parse_cq("ans() :- R('a',x)").unwrap();
        let target_ok = parse_cq("ans() :- R('a','b')").unwrap();
        let target_bad = parse_cq("ans() :- R('b','a')").unwrap();
        assert!(find_homomorphism(&source, &target_ok).is_some());
        assert!(find_homomorphism(&source, &target_bad).is_none());
    }

    #[test]
    fn head_preservation_is_positional() {
        let q1 = parse_cq("ans(x,y) :- R(x,y)").unwrap();
        let q2 = parse_cq("ans(u,v) :- R(u,v)").unwrap();
        let q3 = parse_cq("ans(v,u) :- R(u,v)").unwrap();
        assert!(find_homomorphism(&q1, &q2).is_some());
        // Mapping x→v, y→u forces R(x,y)→R(v,u) which is not an atom of q3.
        assert!(find_homomorphism(&q1, &q3).is_none());
    }

    #[test]
    fn enumerates_all_homomorphisms() {
        let source = parse_cq("ans() :- R(x)").unwrap();
        let target = parse_cq("ans() :- R(a), R(b), R(c)").unwrap();
        let homs = all_homomorphisms(&source, &target, HomSearch::default());
        assert_eq!(homs.len(), 3);
    }

    #[test]
    fn limit_bounds_enumeration_including_zero() {
        let source = parse_cq("ans() :- R(x)").unwrap();
        let target = parse_cq("ans() :- R(a), R(b), R(c)").unwrap();
        for limit in 0..=4usize {
            let homs = all_homomorphisms(
                &source,
                &target,
                HomSearch {
                    limit: Some(limit),
                    ..Default::default()
                },
            );
            assert_eq!(homs.len(), limit.min(3), "limit {limit}");
        }
    }

    #[test]
    fn isomorphism_is_detected_up_to_renaming() {
        let q1 = parse_cq("ans(x) :- R(x,y), R(y,x), x != y").unwrap();
        let q2 = parse_cq("ans(u) :- R(v,u), R(u,v), u != v").unwrap();
        assert!(are_isomorphic(&q1, &q2));
        let q3 = parse_cq("ans(u) :- R(u,v), R(u,v), u != v").unwrap();
        assert!(!are_isomorphic(&q1, &q3));
    }

    #[test]
    fn isomorphism_distinguishes_diseq_sets() {
        let q1 = parse_cq("ans() :- R(x,y)").unwrap();
        let q2 = parse_cq("ans() :- R(x,y), x != y").unwrap();
        assert!(!are_isomorphic(&q1, &q2));
    }

    #[test]
    fn triangle_adjunct_has_three_automorphisms() {
        // Q̂5 of Figure 3: the complete triangle query.
        let q = parse_cq("ans() :- R(v1,v2), R(v2,v3), R(v3,v1), v1 != v2, v2 != v3, v1 != v3")
            .unwrap();
        assert_eq!(count_automorphisms(&q), 3);
    }

    #[test]
    fn single_atom_has_identity_automorphism_only() {
        let q = parse_cq("ans() :- R(v1,v1)").unwrap();
        assert_eq!(count_automorphisms(&q), 1);
    }

    #[test]
    fn symmetric_pair_has_two_automorphisms() {
        // ans() :- R(x,y), R(y,x) with completeness: swap x/y is an
        // automorphism.
        let q = parse_cq("ans() :- R(x,y), R(y,x), x != y").unwrap();
        assert_eq!(count_automorphisms(&q), 2);
    }

    #[test]
    fn head_fixes_automorphisms() {
        // Same body, but the head pins x: only the identity remains.
        let q = parse_cq("ans(x) :- R(x,y), R(y,x), x != y").unwrap();
        assert_eq!(count_automorphisms(&q), 1);
    }

    #[test]
    fn automorphism_permutations_list_each_variable_map_once() {
        // Each variable map has 2 × 2 atom maps over the duplicated atoms.
        let q = parse_cq("ans() :- R(x,y), R(x,y), R(y,x), R(y,x)").unwrap();
        assert_eq!(count_automorphisms(&q), 8);
        assert_eq!(automorphism_permutations(&q, usize::MAX), [0, 1, 1, 0]);
        assert_eq!(automorphism_permutations(&q, 1), [0, 1]);
        assert!(automorphism_permutations(&q, 0).is_empty());
        // Swapping x and y would send the doubled atom to the single one.
        let q = parse_cq("ans() :- R(x,y), R(x,y), R(y,x)").unwrap();
        assert_eq!(automorphism_permutations(&q, usize::MAX), [0, 1]);
        // Twelve copies: one atom map per variable map, not 12! of them.
        let text = format!("ans() :- {}", ["R(x,y)"; 12].join(", "));
        let q = parse_cq(&text).unwrap();
        assert_eq!(automorphism_permutations(&q, usize::MAX), [0, 1]);
    }

    #[test]
    fn surjective_hom_with_duplicated_atoms() {
        // Qconj ans():-R(x,y),R(y,x) → Q2 ans():-R(z,z): surjective (both
        // atoms cover the single target atom).
        let qconj = parse_cq("ans() :- R(x,y), R(y,x)").unwrap();
        let q2 = parse_cq("ans() :- R(z,z)").unwrap();
        assert!(find_surjective_homomorphism(&qconj, &q2).is_some());
    }
}
