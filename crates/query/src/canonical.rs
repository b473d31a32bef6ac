//! Canonical rewritings (paper Def 4.1): rewriting a CQ≠ query as the
//! union of its *possible completions*, one complete conjunctive query per
//! consistent way of equating/disequating its arguments.
//!
//! A possible completion is induced by a partition of `Var(Q) ∪ C` (for a
//! constant set `C ⊇ Const(Q)`) in which each block holds at most one
//! constant and no block merges the two sides of a disequality of `Q`.
//! Block representatives replace the original arguments; all pairwise
//! disequalities between the new variables and between new variables and
//! the constants of `C` are added.
//!
//! The number of completions is exponential (partitions of the variable
//! set — Bell-number growth), which is the engine of Theorem 4.10.

use std::collections::{BTreeMap, BTreeSet};

use prov_storage::Value;

use crate::atom::Diseq;
use crate::cq::ConjunctiveQuery;
use crate::term::{Term, Variable, CONST_TAG};
use crate::ucq::UnionQuery;

/// Streaming enumerator of the set partitions of `n` elements as
/// restricted-growth strings: `rgs[i]` is the block index of element `i`,
/// with `rgs[i] ≤ 1 + max(rgs[..i])`. Yields partitions in the same
/// lexicographic order as the seed's recursive enumeration, without
/// materializing the Bell-number-sized candidate set.
#[derive(Clone, Debug)]
pub struct SetPartitionIter {
    rgs: Vec<usize>,
    state: PartitionIterState,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum PartitionIterState {
    /// The current `rgs` has not been yielded yet.
    Fresh,
    /// The current `rgs` was yielded; compute its successor on `next`.
    Advancing,
    Done,
}

impl SetPartitionIter {
    /// An iterator over all partitions of `n` elements.
    pub fn new(n: usize) -> Self {
        SetPartitionIter {
            rgs: vec![0; n],
            state: PartitionIterState::Fresh,
        }
    }
}

impl Iterator for SetPartitionIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        match self.state {
            PartitionIterState::Done => return None,
            PartitionIterState::Fresh => {}
            PartitionIterState::Advancing => {
                // Lexicographic successor: find the rightmost position that
                // can move to a higher block (at most one past the prefix
                // maximum) and reset everything to its right to block 0.
                let mut advanced = false;
                for i in (1..self.rgs.len()).rev() {
                    let prefix_max = self.rgs[..i].iter().copied().max().unwrap_or(0);
                    if self.rgs[i] <= prefix_max {
                        self.rgs[i] += 1;
                        for slot in &mut self.rgs[i + 1..] {
                            *slot = 0;
                        }
                        advanced = true;
                        break;
                    }
                }
                if !advanced {
                    self.state = PartitionIterState::Done;
                    return None;
                }
            }
        }
        self.state = PartitionIterState::Advancing;
        Some(self.rgs.clone())
    }
}

/// The set partitions of `n` elements, materialized (see
/// [`SetPartitionIter`] for the streaming form).
pub fn set_partitions(n: usize) -> Vec<Vec<usize>> {
    SetPartitionIter::new(n).collect()
}

/// The Bell number `B(n)` (number of set partitions), saturating.
pub fn bell_number(n: usize) -> u64 {
    // Bell triangle.
    let mut row = vec![1u64];
    for _ in 1..=n {
        let mut next = Vec::with_capacity(row.len() + 1);
        next.push(*row.last().expect("non-empty row"));
        for &x in &row {
            let prev = *next.last().expect("non-empty next");
            next.push(prev.saturating_add(x));
        }
        row = next;
    }
    row[0]
}

/// One possible completion of a query: the complete query plus the
/// partition data that produced it (kept for provenance bookkeeping and
/// tests).
#[derive(Clone, Debug)]
pub struct Completion {
    /// The complete conjunctive query.
    pub query: ConjunctiveQuery,
    /// For each original variable, the term it was replaced by.
    pub replacement: BTreeMap<Variable, Term>,
}

/// Streaming enumerator of the possible completions of a query
/// (Def 4.1) — the exponential candidate axis of `MinProv` and of
/// Theorem 4.10. Yields one [`Completion`] at a time so drivers can
/// dedupe, prune, and budget without ever materializing the full set.
///
/// Enumeration order is deterministic (partitions in RGS-lexicographic
/// order; within a partition, constant assignments in odometer order with
/// "fresh variable" before each constant), so a position in the stream is
/// a stable, resumable cursor.
pub struct CompletionIter<'a> {
    q: &'a ConjunctiveQuery,
    vars: Vec<Variable>,
    const_list: Vec<Value>,
    all_consts: BTreeSet<Value>,
    partitions: SetPartitionIter,
    current: Option<(Vec<usize>, AssignmentIter)>,
}

/// Odometer over injective partial assignments of constants to partition
/// blocks: digit `0` = the block stays a fresh variable, digit `k` =
/// the block is identified with `consts[k-1]`.
struct AssignmentIter {
    digits: Vec<usize>,
    consts: Vec<Value>,
    started: bool,
    done: bool,
}

impl AssignmentIter {
    fn new(num_blocks: usize, consts: Vec<Value>) -> Self {
        AssignmentIter {
            digits: vec![0; num_blocks],
            consts,
            started: false,
            done: false,
        }
    }

    fn assignment(&self) -> Vec<Option<Value>> {
        self.digits
            .iter()
            .map(|&d| (d > 0).then(|| self.consts[d - 1]))
            .collect()
    }

    /// Whether no constant is assigned to two blocks.
    fn injective(&self) -> bool {
        let mut seen = vec![false; self.consts.len()];
        for &d in &self.digits {
            if d > 0 {
                if seen[d - 1] {
                    return false;
                }
                seen[d - 1] = true;
            }
        }
        true
    }

    /// Increments the odometer (last block fastest). Returns false once
    /// the digit space is exhausted.
    fn increment(&mut self) -> bool {
        let base = self.consts.len();
        let mut i = self.digits.len();
        loop {
            if i == 0 {
                return false;
            }
            i -= 1;
            if self.digits[i] < base {
                self.digits[i] += 1;
                for d in &mut self.digits[i + 1..] {
                    *d = 0;
                }
                return true;
            }
            self.digits[i] = 0;
        }
    }
}

impl Iterator for AssignmentIter {
    type Item = Vec<Option<Value>>;

    fn next(&mut self) -> Option<Vec<Option<Value>>> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            // All-zeros (every block fresh) is trivially injective.
            return Some(self.assignment());
        }
        loop {
            if !self.increment() {
                self.done = true;
                return None;
            }
            if self.injective() {
                return Some(self.assignment());
            }
        }
    }
}

impl<'a> CompletionIter<'a> {
    fn new(q: &'a ConjunctiveQuery, consts: &BTreeSet<Value>) -> Self {
        let all_consts: BTreeSet<Value> = consts.union(&q.constants()).copied().collect();
        let vars: Vec<Variable> = q.variables().into_iter().collect();
        let const_list: Vec<Value> = all_consts.iter().copied().collect();
        CompletionIter {
            partitions: SetPartitionIter::new(vars.len()),
            q,
            vars,
            const_list,
            all_consts,
            current: None,
        }
    }

    /// Whether a partition respects the query's variable–variable
    /// disequalities (endpoints must land in different blocks).
    fn partition_ok(&self, rgs: &[usize]) -> bool {
        let block_of = |v: Variable| -> usize {
            let idx = self
                .vars
                .iter()
                .position(|&x| x == v)
                .expect("variable indexed");
            rgs[idx]
        };
        self.q.diseqs().iter().all(|d| match d.right() {
            Term::Var(rv) => block_of(d.left()) != block_of(rv),
            Term::Const(_) => true,
        })
    }
}

impl Iterator for CompletionIter<'_> {
    type Item = Completion;

    fn next(&mut self) -> Option<Completion> {
        loop {
            if let Some((rgs, assignments)) = &mut self.current {
                for assignment in assignments.by_ref() {
                    if let Some(completion) =
                        build_completion(self.q, &self.vars, rgs, &assignment, &self.all_consts)
                    {
                        return Some(completion);
                    }
                }
                self.current = None;
            }
            loop {
                let rgs = self.partitions.next()?;
                if self.partition_ok(&rgs) {
                    let num_blocks = rgs.iter().copied().max().map_or(0, |m| m + 1);
                    let assignments = AssignmentIter::new(num_blocks, self.const_list.clone());
                    self.current = Some((rgs, assignments));
                    break;
                }
            }
        }
    }
}

/// Streaming enumeration of the possible completions of `q` with respect
/// to constant set `consts ⊇ Const(q)` (paper Def 4.1).
pub fn completions_iter<'a>(
    q: &'a ConjunctiveQuery,
    consts: &BTreeSet<Value>,
) -> CompletionIter<'a> {
    CompletionIter::new(q, consts)
}

/// All possible completions of `q` w.r.t. `consts`, materialized.
/// `Can(q) = completions(q, Const(q))`. Prefer [`completions_iter`] when
/// the consumer can dedupe or prune as it goes — the set is exponential.
pub fn completions(q: &ConjunctiveQuery, consts: &BTreeSet<Value>) -> Vec<Completion> {
    completions_iter(q, consts).collect()
}

fn build_completion(
    q: &ConjunctiveQuery,
    vars: &[Variable],
    rgs: &[usize],
    assignment: &[Option<Value>],
    all_consts: &BTreeSet<Value>,
) -> Option<Completion> {
    // Check variable–constant disequalities: a block assigned constant c
    // must not contain a variable with the disequality x != c; and distinct
    // constants are always disequal so var-var diseqs across blocks with
    // different constants are satisfied automatically.
    let block_of = |v: Variable| -> usize {
        let idx = vars.iter().position(|&x| x == v).expect("variable indexed");
        rgs[idx]
    };
    for d in q.diseqs() {
        match d.right() {
            Term::Const(c) => {
                if assignment[block_of(d.left())] == Some(c) {
                    return None;
                }
            }
            Term::Var(rv) => {
                // Different blocks by construction; if both blocks map to
                // constants they are distinct constants (injective
                // assignment), fine.
                debug_assert_ne!(block_of(d.left()), block_of(rv));
            }
        }
    }
    // Build replacement terms per block: constant, or a new variable named
    // v1, v2, ... as in the paper. Reusing these names across completions
    // is safe: the replacement is total, so no original variable survives.
    let mut next_var = 0usize;
    let block_terms: Vec<Term> = assignment
        .iter()
        .map(|slot| match slot {
            Some(c) => Term::Const(*c),
            None => {
                next_var += 1;
                Term::Var(Variable::new(&format!("v{next_var}")))
            }
        })
        .collect();
    let mut replacement: BTreeMap<Variable, Term> = BTreeMap::new();
    for (i, &v) in vars.iter().enumerate() {
        replacement.insert(v, block_terms[rgs[i]]);
    }
    // Substitute into head and atoms; drop q's own disequalities (they are
    // all satisfied by construction) and add the completeness set instead.
    let head = q.head().map_terms(&mut |t| replace(t, &replacement));
    let atoms = q
        .atoms()
        .iter()
        .map(|a| a.map_terms(&mut |t| replace(t, &replacement)))
        .collect::<Vec<_>>();
    let fresh_vars: Vec<Variable> = block_terms.iter().filter_map(Term::as_var).collect();
    let mut diseqs: Vec<Diseq> = Vec::new();
    for (i, &x) in fresh_vars.iter().enumerate() {
        for &y in &fresh_vars[i + 1..] {
            diseqs.push(Diseq::vars(x, y));
        }
        for &c in all_consts {
            diseqs.push(Diseq::var_const(x, c));
        }
    }
    let query =
        ConjunctiveQuery::new(head, atoms, diseqs).expect("completion preserves well-formedness");
    Some(Completion { query, replacement })
}

fn replace(t: Term, replacement: &BTreeMap<Variable, Term>) -> Term {
    match t {
        Term::Var(v) => *replacement.get(&v).expect("every variable partitioned"),
        c @ Term::Const(_) => c,
    }
}

/// The canonical rewriting `Can(Q, C)` of a conjunctive query (Def 4.1):
/// the union of its possible completions w.r.t. `C ∪ Const(Q)`.
pub fn canonical_rewriting(q: &ConjunctiveQuery, consts: &BTreeSet<Value>) -> UnionQuery {
    let completions = completions(q, consts);
    UnionQuery::new(completions.into_iter().map(|c| c.query).collect())
        .expect("canonical rewriting is a well-formed union")
}

/// The canonical rewriting of a union query: union of the canonical
/// rewritings of its adjuncts w.r.t. the union's full constant set plus `C`
/// (step I of MinProv).
pub fn canonical_rewriting_union(q: &UnionQuery, consts: &BTreeSet<Value>) -> UnionQuery {
    let all_consts: BTreeSet<Value> = consts.union(&q.constants()).copied().collect();
    let mut adjuncts = Vec::new();
    for adj in q.adjuncts() {
        adjuncts.extend(completions(adj, &all_consts).into_iter().map(|c| c.query));
    }
    UnionQuery::new(adjuncts).expect("canonical rewriting is a well-formed union")
}

/// An isomorphism-invariant key for a conjunctive query: two queries with
/// equal keys are syntactically isomorphic (same shape up to variable
/// renaming), and isomorphic queries receive equal keys whenever the
/// canonical labeling search completes (it always does for the query sizes
/// the minimization lattice produces; see [`canonical_key`]).
///
/// Keys are the memoization currency of the minimization engine: candidate
/// subqueries are deduped by key before any homomorphism search runs.
///
/// The key is a sequence of integer codes: the head (relation id, arity,
/// terms), the atom count, the atoms sorted (each relation id, arity,
/// terms), then the disequalities as sorted pairs of terms. A term is its
/// variable's number under the canonical labeling, or a constant's
/// interned id tagged with `1 << 32`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CanonicalKey(Vec<u64>);

/// Cap on the number of tie-breaking labelings tried while canonicalizing.
/// Refinement leaves ties only inside automorphism-orbit-like groups, so
/// real workloads stay far below this; if a pathological query exceeds it,
/// the key falls back to one deterministic labeling — still *sound*
/// (equal keys always certify isomorphism), merely missing some merges.
const MAX_LABELINGS: usize = 40_320; // 8!

/// Computes the canonical key of a query (invariant under variable
/// renaming, atom reordering, and disequality-set reordering).
///
/// Algorithm: iterated color refinement on the variables (signatures built
/// from atom incidences, head positions, and disequality partners),
/// followed by a lexicographically-minimal encoding over the labelings
/// consistent with the refined ordering. Ties after refinement only occur
/// between symmetric variables, so the backtracking factor is the
/// automorphism-orbit sizes, not `|Var|!`.
pub fn canonical_key(q: &ConjunctiveQuery) -> CanonicalKey {
    let vars: Vec<Variable> = q.variables().into_iter().collect();
    let encoder = Encoder::new(q, &vars);
    if vars.is_empty() {
        return CanonicalKey(encoder.encode(&[]));
    }
    let groups = refine_variable_colors(q, &vars);

    // Count the labelings the tie-breaking search would visit.
    let mut labelings: usize = 1;
    for g in &groups {
        for k in 1..=g.len() {
            labelings = labelings.saturating_mul(k);
        }
    }
    let mut numbering = vec![0u64; vars.len()];
    if labelings > MAX_LABELINGS {
        // Deterministic fallback labeling: refined group order, then the
        // (stable) variable order within each group.
        for (next, &vi) in groups.iter().flatten().enumerate() {
            numbering[vi] = next as u64;
        }
        return CanonicalKey(encoder.encode(&numbering));
    }

    // Backtrack over within-group permutations, keeping the minimal
    // encoding.
    let mut best: Option<Vec<u64>> = None;
    permute_groups(&encoder, &groups, 0, &mut numbering, 0, &mut best);
    CanonicalKey(best.expect("at least one labeling is always produced"))
}

/// Iterated color refinement: returns the variables (as indices into
/// `vars`) grouped by final color, groups ordered by color signature.
/// Signatures are flat integer vectors (interned relation/value ids and
/// current colors), not strings — canonicalization sits on the
/// minimization engine's per-candidate hot path.
fn refine_variable_colors(q: &ConjunctiveQuery, vars: &[Variable]) -> Vec<Vec<usize>> {
    let n = vars.len();
    // `vars` comes from a BTreeSet, so it is sorted: index by binary search.
    let idx_of = |v: Variable| -> usize { vars.binary_search(&v).expect("variable indexed") };

    // Occurrence structure, extracted once: (atom index, position) per
    // variable, head positions, constant-disequality partners, and
    // variable-disequality partners.
    let mut occ: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (ai, a) in q.atoms().iter().enumerate() {
        for (pos, t) in a.args.iter().enumerate() {
            if let Term::Var(v) = t {
                occ[idx_of(*v)].push((ai, pos));
            }
        }
    }
    let mut head_pos: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (pos, t) in q.head().args.iter().enumerate() {
        if let Term::Var(v) = t {
            head_pos[idx_of(*v)].push(pos as u64);
        }
    }
    let mut const_diseqs: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut var_partners: Vec<Vec<usize>> = vec![Vec::new(); n];
    for d in q.diseqs() {
        match d.right() {
            Term::Const(c) => const_diseqs[idx_of(d.left())].push(u64::from(c.id())),
            Term::Var(rv) => {
                let (li, ri) = (idx_of(d.left()), idx_of(rv));
                var_partners[li].push(ri);
                var_partners[ri].push(li);
            }
        }
    }
    for list in &mut const_diseqs {
        list.sort_unstable();
    }

    // Initial signature: occurrence profile (relation/arity/position),
    // head positions, constant disequalities.
    const SEP: u64 = u64::MAX;
    let initial: Vec<Vec<u64>> = (0..n)
        .map(|vi| {
            let mut entries: Vec<(u64, u64, u64)> = occ[vi]
                .iter()
                .map(|&(ai, pos)| {
                    let a = &q.atoms()[ai];
                    (u64::from(a.relation.id()), a.arity() as u64, pos as u64)
                })
                .collect();
            entries.sort_unstable();
            let mut sig = Vec::with_capacity(entries.len() * 3 + head_pos[vi].len() + 4);
            for (r, k, p) in entries {
                sig.extend([r, k, p]);
            }
            sig.push(SEP);
            sig.extend(&head_pos[vi]);
            sig.push(SEP);
            sig.extend(&const_diseqs[vi]);
            sig
        })
        .collect();
    let mut color: Vec<usize> = rank_signatures(&initial);

    for _round in 0..n {
        let refined: Vec<Vec<u64>> = (0..n)
            .map(|vi| {
                // Co-occurrence profile: for every occurrence, the atom's
                // relation, the position, and the colors of all arguments
                // (constants tagged by interned id); plus the colors of
                // disequality partners.
                let mut entries: Vec<Vec<u64>> = occ[vi]
                    .iter()
                    .map(|&(ai, pos)| {
                        let a = &q.atoms()[ai];
                        let mut e = vec![u64::from(a.relation.id()), pos as u64];
                        for t in &a.args {
                            match t {
                                Term::Var(v2) => e.push(color[idx_of(*v2)] as u64),
                                Term::Const(c) => e.push(SEP - 1 - u64::from(c.id())),
                            }
                        }
                        e
                    })
                    .collect();
                entries.sort_unstable();
                let mut partner_colors: Vec<u64> =
                    var_partners[vi].iter().map(|&p| color[p] as u64).collect();
                partner_colors.sort_unstable();
                let mut sig = vec![color[vi] as u64];
                for e in entries {
                    sig.push(SEP);
                    sig.extend(e);
                }
                sig.push(SEP);
                sig.extend(partner_colors);
                sig
            })
            .collect();
        let next = rank_signatures(&refined);
        if next == color {
            break;
        }
        color = next;
    }

    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (vi, &c) in color.iter().enumerate() {
        groups.entry(c).or_default().push(vi);
    }
    groups.into_values().collect()
}

/// Replaces signature vectors by dense ranks (sorted order of the distinct
/// signatures), so signatures cannot grow across refinement rounds.
fn rank_signatures(sig: &[Vec<u64>]) -> Vec<usize> {
    let mut distinct: Vec<&Vec<u64>> = sig.iter().collect();
    distinct.sort_unstable();
    distinct.dedup();
    sig.iter()
        .map(|s| distinct.binary_search(&s).expect("signature present"))
        .collect()
}

fn permute_groups(
    encoder: &Encoder,
    groups: &[Vec<usize>],
    gi: usize,
    numbering: &mut [u64],
    next_index: usize,
    best: &mut Option<Vec<u64>>,
) {
    if gi == groups.len() {
        let key = encoder.encode(numbering);
        if best.as_ref().is_none_or(|b| key < *b) {
            *best = Some(key);
        }
        return;
    }
    let group = &groups[gi];
    let mut taken = vec![false; group.len()];
    permute_within(
        encoder, groups, gi, &mut taken, 0, numbering, next_index, best,
    );
}

#[allow(clippy::too_many_arguments)]
fn permute_within(
    encoder: &Encoder,
    groups: &[Vec<usize>],
    gi: usize,
    taken: &mut Vec<bool>,
    slot: usize,
    numbering: &mut [u64],
    next_index: usize,
    best: &mut Option<Vec<u64>>,
) {
    let group = &groups[gi];
    if slot == group.len() {
        permute_groups(
            encoder,
            groups,
            gi + 1,
            numbering,
            next_index + group.len(),
            best,
        );
        return;
    }
    for i in 0..group.len() {
        if taken[i] {
            continue;
        }
        taken[i] = true;
        numbering[group[i]] = (next_index + slot) as u64;
        permute_within(
            encoder,
            groups,
            gi,
            taken,
            slot + 1,
            numbering,
            next_index,
            best,
        );
        taken[i] = false;
    }
}

/// A query's terms as integer codes ([`Term::code`]), ready to encode
/// under any variable numbering.
struct Encoder {
    head: Vec<u64>,
    /// Per atom: relation id, arity, then the argument codes.
    atoms: Vec<Vec<u64>>,
    diseqs: Vec<(u64, u64)>,
}

impl Encoder {
    fn new(q: &ConjunctiveQuery, vars: &[Variable]) -> Self {
        let code = |t: Term| t.code(vars);
        let atom = |a: &crate::atom::Atom| {
            let mut codes = vec![u64::from(a.relation.id()), a.arity() as u64];
            codes.extend(a.args.iter().map(|&t| code(t)));
            codes
        };
        Encoder {
            head: atom(q.head()),
            atoms: q.atoms().iter().map(atom).collect(),
            diseqs: q
                .diseqs()
                .iter()
                .map(|d| (code(Term::Var(d.left())), code(d.right())))
                .collect(),
        }
    }

    /// The key of the query under a concrete variable numbering: head
    /// verbatim (positional), body atoms as a sorted multiset,
    /// disequalities as a sorted set. Equal encodings certify isomorphism.
    fn encode(&self, numbering: &[u64]) -> Vec<u64> {
        let term = |c: u64| {
            if c < CONST_TAG {
                numbering[c as usize]
            } else {
                c
            }
        };
        let relabel = |codes: &[u64]| -> Vec<u64> {
            codes[..2]
                .iter()
                .copied()
                .chain(codes[2..].iter().map(|&c| term(c)))
                .collect()
        };
        let mut atoms: Vec<Vec<u64>> = self.atoms.iter().map(|a| relabel(a)).collect();
        atoms.sort_unstable();
        let mut diseqs: Vec<(u64, u64)> = self
            .diseqs
            .iter()
            .map(|&(l, r)| {
                let (l, r) = (term(l), term(r));
                (l.min(r), l.max(r))
            })
            .collect();
        diseqs.sort_unstable();
        let mut key = relabel(&self.head);
        key.push(atoms.len() as u64);
        key.extend(atoms.into_iter().flatten());
        key.extend(diseqs.into_iter().flat_map(|(l, r)| [l, r]));
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    #[test]
    fn partition_counts_are_bell_numbers() {
        for n in 0..=6 {
            assert_eq!(
                set_partitions(n).len() as u64,
                bell_number(n),
                "partition count for n={n}"
            );
        }
    }

    #[test]
    fn bell_numbers_match_known_values() {
        let expected = [1u64, 1, 2, 5, 15, 52, 203, 877, 4140];
        for (n, &b) in expected.iter().enumerate() {
            assert_eq!(bell_number(n), b);
        }
    }

    #[test]
    fn example_4_2_canonical_rewriting() {
        // Q: ans(x,y) :- R(x,y), x != 'a', x != y with C = {a, b}
        // has exactly 5 completions (Q1..Q5 in the paper).
        let q = parse_cq("ans(x,y) :- R(x,y), x != 'a', x != y").unwrap();
        let consts: BTreeSet<Value> = [Value::new("a"), Value::new("b")].into();
        let can = canonical_rewriting(&q, &consts);
        assert_eq!(can.len(), 5, "got:\n{can}");
        // Every adjunct is complete w.r.t. {a, b}.
        for adj in can.adjuncts() {
            assert!(adj.is_complete_wrt(&consts), "not complete: {adj}");
        }
    }

    #[test]
    fn example_4_7_canonical_rewriting_of_triangle() {
        // Q̂: ans() :- R(x,y), R(y,z), R(z,x) has 5 completions
        // (partitions of 3 variables, no constants).
        let q = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let can = canonical_rewriting(&q, &BTreeSet::new());
        assert_eq!(can.len(), 5);
        // One adjunct is the all-merged R(v,v),R(v,v),R(v,v).
        assert!(can
            .adjuncts()
            .iter()
            .any(|a| a.variables().len() == 1 && a.len() == 3));
        // One adjunct is the complete triangle with 3 distinct variables.
        assert!(can
            .adjuncts()
            .iter()
            .any(|a| a.variables().len() == 3 && a.diseqs().len() == 3));
    }

    #[test]
    fn diseqs_restrict_partitions() {
        // x != y forbids merging x and y: only the discrete partition.
        let q = parse_cq("ans() :- R(x,y), x != y").unwrap();
        let can = canonical_rewriting(&q, &BTreeSet::new());
        assert_eq!(can.len(), 1);
        assert_eq!(can.adjuncts()[0].diseqs().len(), 1);
    }

    #[test]
    fn constants_generate_merge_cases() {
        // ans(x) :- R(x): completions are x fresh (with x != 'c') and
        // x = 'c' — w.r.t. C = {c}.
        let q = parse_cq("ans(x) :- R(x)").unwrap();
        let consts: BTreeSet<Value> = [Value::new("c")].into();
        let can = canonical_rewriting(&q, &consts);
        assert_eq!(can.len(), 2);
    }

    #[test]
    fn var_const_diseq_blocks_identification() {
        let q = parse_cq("ans(x) :- R(x), x != 'c'").unwrap();
        let consts: BTreeSet<Value> = [Value::new("c")].into();
        let can = canonical_rewriting(&q, &consts);
        // x cannot be 'c': single completion (x fresh, x != 'c').
        assert_eq!(can.len(), 1);
    }

    #[test]
    fn canonical_preserves_head_arity() {
        let q = parse_cq("ans(x,y) :- R(x,y)").unwrap();
        let can = canonical_rewriting(&q, &BTreeSet::new());
        // Partitions of {x,y}: merged or split = 2 completions.
        assert_eq!(can.len(), 2);
        for adj in can.adjuncts() {
            assert_eq!(adj.head().arity(), 2);
        }
    }

    #[test]
    fn completion_replacement_maps_all_variables() {
        let q = parse_cq("ans() :- R(x,y), S(y,z)").unwrap();
        for completion in completions(&q, &BTreeSet::new()) {
            assert_eq!(completion.replacement.len(), 3);
        }
    }

    #[test]
    fn completions_iter_is_lazy_and_matches_eager() {
        let q = parse_cq("ans(x,y) :- R(x,y), x != 'a', x != y").unwrap();
        let consts: BTreeSet<Value> = [Value::new("a"), Value::new("b")].into();
        let eager: Vec<_> = completions(&q, &consts)
            .into_iter()
            .map(|c| c.query)
            .collect();
        // The iterator yields the same completions in the same order ...
        let streamed: Vec<_> = completions_iter(&q, &consts).map(|c| c.query).collect();
        assert_eq!(eager, streamed);
        // ... and supports partial consumption (the budget/cursor use case).
        let first_two: Vec<_> = completions_iter(&q, &consts)
            .take(2)
            .map(|c| c.query)
            .collect();
        assert_eq!(&eager[..2], &first_two[..]);
    }

    #[test]
    fn completions_iter_handles_variable_free_queries() {
        let q = parse_cq("ans() :- R('a','a')").unwrap();
        let all: Vec<_> = completions_iter(&q, &BTreeSet::new()).collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].query, q);
    }

    #[test]
    fn partition_iter_streams_in_seed_order() {
        let streamed: Vec<_> = SetPartitionIter::new(4).collect();
        assert_eq!(streamed, set_partitions(4));
        assert_eq!(SetPartitionIter::new(0).count(), 1);
    }

    #[test]
    fn canonical_key_is_renaming_invariant() {
        let q1 = parse_cq("ans(x) :- R(x,y), R(y,x), x != y").unwrap();
        let q2 = parse_cq("ans(u) :- R(v,u), R(u,v), u != v").unwrap();
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
        // Same body, different head projection: distinct keys.
        let q3 = parse_cq("ans(u) :- R(u,v), R(u,v), u != v").unwrap();
        assert_ne!(canonical_key(&q1), canonical_key(&q3));
    }

    #[test]
    fn canonical_key_distinguishes_diseq_sets() {
        let q1 = parse_cq("ans() :- R(x,y)").unwrap();
        let q2 = parse_cq("ans() :- R(x,y), x != y").unwrap();
        assert_ne!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn canonical_key_agrees_with_isomorphism_on_symmetric_queries() {
        use crate::homomorphism::are_isomorphic;
        // Fully symmetric triangle: every labeling is a tie after
        // refinement — the backtracking tie-break must still converge.
        let t1 = parse_cq("ans() :- R(a,b), R(b,c), R(c,a), a != b, b != c, a != c").unwrap();
        let t2 = parse_cq("ans() :- R(q,r), R(r,s), R(s,q), q != r, r != s, q != s").unwrap();
        assert!(are_isomorphic(&t1, &t2));
        assert_eq!(canonical_key(&t1), canonical_key(&t2));
        // Reversed triangle is isomorphic to itself rotated; also same key.
        let t3 = parse_cq("ans() :- R(b,a), R(c,b), R(a,c), a != b, b != c, a != c").unwrap();
        assert_eq!(canonical_key(&t1), canonical_key(&t3));
    }

    #[test]
    fn canonical_key_respects_constants() {
        let q1 = parse_cq("ans() :- R(x,'a')").unwrap();
        let q2 = parse_cq("ans() :- R(x,'b')").unwrap();
        let q3 = parse_cq("ans() :- R(y,'a')").unwrap();
        assert_ne!(canonical_key(&q1), canonical_key(&q2));
        assert_eq!(canonical_key(&q1), canonical_key(&q3));
    }

    #[test]
    fn canonical_key_matches_isomorphism_on_random_pairs() {
        use crate::generate::{random_cq, QuerySpec};
        use crate::homomorphism::are_isomorphic;
        let spec = QuerySpec {
            diseq_percent: 30,
            ..QuerySpec::binary(3, 3)
        };
        let queries: Vec<_> = (0..24).map(|seed| random_cq(&spec, seed)).collect();
        for a in &queries {
            for b in &queries {
                assert_eq!(
                    canonical_key(a) == canonical_key(b),
                    are_isomorphic(a, b),
                    "key/isomorphism disagreement for\n  {a}\n  {b}"
                );
            }
        }
    }
}
