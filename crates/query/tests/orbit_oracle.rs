//! An independent oracle for orbit pruning of the Def 4.1 completion
//! stream. On random CQ≠ with head variables, constants and both kinds
//! of disequality — and on symmetrized ones, which carry an automorphism
//! by construction — the stream of `orbit_completions` must:
//!
//! * build, at every position it builds, exactly the completion the full
//!   stream (`completions_iter`) has there;
//! * build a member of every isomorphism class of the full stream
//!   (equal `canonical_key` sets);
//! * build no partition that an automorphism maps to a partition with a
//!   lexicographically smaller restricted-growth string — with `Aut(Q)`
//!   found here by trying every variable permutation, not by the kernel.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prov_query::canonical::{canonical_key, completions_iter, orbit_completions, CompletionStep};
use prov_query::{Atom, ConjunctiveQuery, Diseq, Term, Variable};
use prov_storage::Value;

const RELATIONS: [(&str, usize); 3] = [("R", 2), ("S", 1), ("T", 2)];
const CONSTANTS: [&str; 2] = ["a", "b"];

fn random_term(rng: &mut StdRng, vars: &[Variable]) -> Term {
    if rng.random_range(0..100u32) < 15 {
        Term::constant(CONSTANTS[rng.random_range(0..CONSTANTS.len())])
    } else {
        Term::Var(vars[rng.random_range(0..vars.len())])
    }
}

/// A random CQ≠ over `R/2`, `S/1`, `T/2` with 1–4 variables, constants
/// `'a'`/`'b'`, 0–2 head variables and random disequalities.
fn random_query(rng: &mut StdRng) -> ConjunctiveQuery {
    let vars: Vec<Variable> = (0..rng.random_range(1..=4usize))
        .map(|i| Variable::new(&format!("o{i}")))
        .collect();
    let atoms: Vec<Atom> = (0..rng.random_range(1..=4usize))
        .map(|_| {
            let (name, arity) = RELATIONS[rng.random_range(0..RELATIONS.len())];
            let args: Vec<Term> = (0..arity).map(|_| random_term(rng, &vars)).collect();
            Atom::of(name, &args)
        })
        .collect();
    let body: Vec<Variable> = atoms
        .iter()
        .flat_map(Atom::variables)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let head_arity = if body.is_empty() {
        0
    } else {
        rng.random_range(0..=2usize)
    };
    let head: Vec<Term> = (0..head_arity)
        .map(|_| Term::Var(body[rng.random_range(0..body.len())]))
        .collect();
    let mut diseqs = Vec::new();
    for (i, &x) in body.iter().enumerate() {
        for &y in &body[i + 1..] {
            if rng.random_range(0..100u32) < 20 {
                diseqs.push(Diseq::vars(x, y));
            }
        }
        for c in CONSTANTS {
            if rng.random_range(0..100u32) < 10 {
                diseqs.push(Diseq::var_const(x, Value::new(c)));
            }
        }
    }
    ConjunctiveQuery::new(Atom::of("ans", &head), atoms, diseqs).expect("well-formed")
}

fn apply(sigma: &BTreeMap<Variable, Variable>, t: Term) -> Term {
    match t {
        Term::Var(v) => Term::Var(sigma.get(&v).copied().unwrap_or(v)),
        c => c,
    }
}

fn image_diseq(sigma: &BTreeMap<Variable, Variable>, d: &Diseq) -> Diseq {
    match apply(sigma, Term::Var(d.left())) {
        Term::Var(l) => Diseq::new(l, apply(sigma, d.right())),
        Term::Const(_) => unreachable!("variables map to variables"),
    }
}

/// `q` plus `σ(q)`'s atoms and disequalities, for a random involution `σ`
/// of the body variables that fixes the head's: `σ` is then an
/// automorphism of the result.
fn symmetrize(rng: &mut StdRng, q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let head_vars: BTreeSet<Variable> = q.head().variables().collect();
    let mut free: Vec<Variable> = q
        .variables()
        .into_iter()
        .filter(|v| !head_vars.contains(v))
        .collect();
    for k in (1..free.len()).rev() {
        free.swap(k, rng.random_range(0..=k));
    }
    let mut sigma = BTreeMap::new();
    for pair in free.chunks_exact(2) {
        sigma.insert(pair[0], pair[1]);
        sigma.insert(pair[1], pair[0]);
    }
    let mut atoms: Vec<Atom> = Vec::new();
    for a in q.atoms() {
        if !atoms.contains(a) {
            atoms.push(a.clone());
        }
    }
    for a in q.atoms() {
        let image = a.map_terms(&mut |t| apply(&sigma, t));
        if !atoms.contains(&image) {
            atoms.push(image);
        }
    }
    let diseqs = q.diseqs().iter().flat_map(|d| [*d, image_diseq(&sigma, d)]);
    ConjunctiveQuery::new(q.head().clone(), atoms, diseqs).expect("well-formed")
}

/// `Aut(q)` read literally: every permutation of `Var(q)` (as indices
/// into the sorted variables) that fixes the head and maps the atom
/// multiset and the disequality set onto themselves.
fn literal_automorphisms(q: &ConjunctiveQuery) -> Vec<Vec<usize>> {
    let vars: Vec<Variable> = q.variables().into_iter().collect();
    let sorted = |mut atoms: Vec<Atom>| {
        atoms.sort();
        atoms
    };
    let atoms = sorted(q.atoms().to_vec());
    let mut perms: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..vars.len() {
        perms = perms
            .iter()
            .flat_map(|p| {
                (0..vars.len()).filter(|i| !p.contains(i)).map(|i| {
                    let mut p = p.clone();
                    p.push(i);
                    p
                })
            })
            .collect();
    }
    perms
        .into_iter()
        .filter(|p| {
            let sigma: BTreeMap<Variable, Variable> = p
                .iter()
                .enumerate()
                .map(|(i, &j)| (vars[i], vars[j]))
                .collect();
            let map = |a: &Atom| a.map_terms(&mut |t| apply(&sigma, t));
            map(q.head()) == *q.head()
                && sorted(q.atoms().iter().map(map).collect()) == atoms
                && q.diseqs()
                    .iter()
                    .map(|d| image_diseq(&sigma, d))
                    .collect::<BTreeSet<_>>()
                    == *q.diseqs()
        })
        .collect()
}

/// The restricted-growth string of a completion's partition: variables
/// in sorted order, blocks numbered by first occurrence. Blocks are told
/// apart by their term (distinct blocks get distinct fresh variables or
/// distinct constants).
fn rgs_of(replacement: &BTreeMap<Variable, Term>) -> Vec<usize> {
    let mut blocks: Vec<Term> = Vec::new();
    replacement
        .values()
        .map(|t| match blocks.iter().position(|b| b == t) {
            Some(i) => i,
            None => {
                blocks.push(*t);
                blocks.len() - 1
            }
        })
        .collect()
}

/// The restricted-growth string of the partition that puts element `i`
/// in block `rgs[perm[i]]`.
fn image_rgs(rgs: &[usize], perm: &[usize]) -> Vec<usize> {
    let mut relabel: BTreeMap<usize, usize> = BTreeMap::new();
    perm.iter()
        .map(|&p| {
            let next = relabel.len();
            *relabel.entry(rgs[p]).or_insert(next)
        })
        .collect()
}

fn check(q: &ConjunctiveQuery, consts: &BTreeSet<Value>) -> Result<(), TestCaseError> {
    let full: Vec<_> = completions_iter(q, consts).collect();
    let steps: Vec<CompletionStep> = orbit_completions(q, consts).collect();
    prop_assert_eq!(steps.len(), full.len(), "{}: one step per position", q);

    let automorphisms = literal_automorphisms(q);
    let mut built = BTreeSet::new();
    for (step, reference) in steps.iter().zip(&full) {
        let CompletionStep::Leader(c) = step else {
            continue;
        };
        prop_assert_eq!(&c.query, &reference.query, "{}: built out of place", q);
        prop_assert_eq!(&c.replacement, &reference.replacement, "{}", q);
        let rgs = rgs_of(&c.replacement);
        for perm in &automorphisms {
            let image = image_rgs(&rgs, perm);
            prop_assert!(
                image >= rgs,
                "{}: built {:?}, but {:?} maps it to {:?}",
                q,
                rgs,
                perm,
                image
            );
        }
        built.insert(canonical_key(&c.query));
    }
    let classes: BTreeSet<_> = full.iter().map(|c| canonical_key(&c.query)).collect();
    prop_assert_eq!(built, classes, "{}: an isomorphism class is never built", q);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn orbit_completions_build_one_leader_per_orbit(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plain = random_query(&mut rng);
        let symmetric = symmetrize(&mut rng, &plain);
        let mut consts = BTreeSet::new();
        if rng.random_range(0..3u32) == 0 {
            consts.insert(Value::new("c"));
        }
        check(&plain, &consts)?;
        check(&symmetric, &consts)?;
    }
}

#[test]
fn symmetric_queries_skip_positions() {
    // Q_2's four automorphisms: 9 leaders among Bell(4) = 15 partitions.
    let q = prov_query::generate::qn_family(2);
    let steps: Vec<CompletionStep> = orbit_completions(&q, &BTreeSet::new()).collect();
    let leaders = steps
        .iter()
        .filter(|s| matches!(s, CompletionStep::Leader(_)))
        .count();
    assert_eq!((steps.len(), leaders), (15, 9));
    check(&q, &BTreeSet::new()).expect("Q_2 passes the oracle");
}

#[test]
fn duplicated_atoms_keep_their_copy_counts() {
    // Swapping x and y maps the atom set onto itself but sends the doubled
    // `R(x,y)` to the single `R(y,x)`: not an automorphism, so `{x},{y,z}`
    // must be built although its image `{x,z},{y}` comes first.
    let q = prov_query::parse_cq("ans() :- R(x,y), R(x,y), R(y,x), S(z)").expect("query");
    let steps: Vec<CompletionStep> = orbit_completions(&q, &BTreeSet::new()).collect();
    assert!(steps.iter().all(|s| matches!(s, CompletionStep::Leader(_))));
    check(&q, &BTreeSet::new()).expect("the oracle holds with duplicated atoms");
}
