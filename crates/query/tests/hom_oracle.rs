//! An independent oracle for the homomorphism kernel: Def 2.10 read
//! literally. Every map from the source's variables to the target's terms
//! is tried and checked for the head, every atom and every disequality;
//! the kernel's verdicts, witnesses, enumerations and automorphism counts
//! must agree with it on random small CQ≠ pairs with head variables,
//! constants, and both kinds of disequality.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prov_query::homomorphism::{
    all_homomorphisms, are_isomorphic, count_automorphisms, find_homomorphism,
    find_surjective_homomorphism, homomorphism_exists, CompiledQuery, HomSearch, Homomorphism,
};
use prov_query::{Atom, ConjunctiveQuery, Diseq, Term, Variable};

/// One homomorphism as the oracle sees it: atom choices plus variable map.
type Mapping = (Vec<usize>, BTreeMap<Variable, Term>);

fn image(m: &BTreeMap<Variable, Term>, t: Term) -> Term {
    match t {
        Term::Var(v) => m[&v],
        c => c,
    }
}

fn image_atom(m: &BTreeMap<Variable, Term>, a: &Atom) -> Atom {
    a.map_terms(&mut |t| image(m, t))
}

/// The image of a disequality under `m`, if it is preserved: a
/// disequality of `target`, or two distinct constants (`None` inside).
fn preserved(m: &BTreeMap<Variable, Term>, d: &Diseq, target: &ConjunctiveQuery) -> bool {
    let (l, r) = d.sides();
    match (image(m, l), image(m, r)) {
        (a, b) if a == b => false,
        (Term::Const(_), Term::Const(_)) => true,
        (Term::Var(v), other) | (other, Term::Var(v)) => {
            target.diseqs().contains(&Diseq::new(v, other))
        }
    }
}

/// Whether `m` satisfies Def 2.10's head, atom and disequality conditions
/// (the atom condition only asks that each image *is* a target atom).
fn is_hom(m: &BTreeMap<Variable, Term>, source: &ConjunctiveQuery, t: &ConjunctiveQuery) -> bool {
    image_atom(m, source.head()) == *t.head()
        && source
            .atoms()
            .iter()
            .all(|a| t.atoms().contains(&image_atom(m, a)))
        && source.diseqs().iter().all(|d| preserved(m, d, t))
}

/// Every map from the source's variables to the terms of the target's
/// atoms (the only possible images: every source variable occurs in an
/// atom).
fn all_var_maps(
    source: &ConjunctiveQuery,
    target: &ConjunctiveQuery,
) -> Vec<BTreeMap<Variable, Term>> {
    let terms: Vec<Term> = target
        .atoms()
        .iter()
        .flat_map(|a| a.args.iter().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let vars: Vec<Variable> = source.variables().into_iter().collect();
    let mut maps = vec![BTreeMap::new()];
    for v in vars {
        maps = maps
            .into_iter()
            .flat_map(|m| {
                terms.iter().map(move |&t| {
                    let mut m = m.clone();
                    m.insert(v, t);
                    m
                })
            })
            .collect();
    }
    maps
}

/// Every homomorphism `source → target` with its atom choices, filtered
/// like a [`HomSearch`] (no limit).
fn oracle_homs(
    source: &ConjunctiveQuery,
    target: &ConjunctiveQuery,
    config: HomSearch,
) -> BTreeSet<Mapping> {
    let mut out = BTreeSet::new();
    for m in all_var_maps(source, target) {
        if !is_hom(&m, source, target) {
            continue;
        }
        let mut choices: Vec<Vec<usize>> = vec![Vec::new()];
        for a in source.atoms() {
            let img = image_atom(&m, a);
            let targets: Vec<usize> = (0..target.atoms().len())
                .filter(|&j| target.atoms()[j] == img)
                .collect();
            choices = choices
                .into_iter()
                .flat_map(|c| {
                    targets.iter().map(move |&j| {
                        let mut c = c.clone();
                        c.push(j);
                        c
                    })
                })
                .collect();
        }
        for c in choices {
            let distinct: BTreeSet<usize> = c.iter().copied().collect();
            if config.injective && distinct.len() != c.len() {
                continue;
            }
            if config.surjective && distinct.len() != target.atoms().len() {
                continue;
            }
            out.insert((c, m.clone()));
        }
    }
    out
}

/// Isomorphisms read literally: a variable bijection onto the target's
/// variables with head → head, the atom multiset onto the target's, and
/// the disequality set onto the target's; counted with every bijective
/// choice among equal atoms.
fn oracle_isomorphisms(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> u64 {
    let sorted = |mut v: Vec<Atom>| {
        v.sort();
        v
    };
    let target_atoms = sorted(q2.atoms().to_vec());
    let mut count = 0;
    for m in all_var_maps(q1, q2) {
        let images: BTreeSet<Term> = m.values().copied().collect();
        let bijective = images.len() == m.len()
            && images.iter().all(Term::is_var)
            && images.len() == q2.variables().len();
        let atoms = sorted(q1.atoms().iter().map(|a| image_atom(&m, a)).collect());
        let diseqs: Option<BTreeSet<Diseq>> = q1
            .diseqs()
            .iter()
            .map(
                |d| match (image(&m, Term::Var(d.left())), image(&m, d.right())) {
                    (Term::Var(v), other) if Term::Var(v) != other => Some(Diseq::new(v, other)),
                    _ => None,
                },
            )
            .collect();
        if bijective
            && image_atom(&m, q1.head()) == *q2.head()
            && atoms == target_atoms
            && diseqs.as_ref() == Some(q2.diseqs())
        {
            let mut matchings = 1u64;
            let mut run = 1u64;
            for w in target_atoms.windows(2) {
                run = if w[0] == w[1] { run + 1 } else { 1 };
                matchings *= run;
            }
            count += matchings;
        }
    }
    count
}

fn as_mapping(h: &Homomorphism) -> Mapping {
    (h.atom_map.clone(), h.var_map.clone())
}

/// Whether a witness from the kernel is a homomorphism by the literal
/// definition, with atom choices that really hold the images.
fn witness_valid(h: &Homomorphism, source: &ConjunctiveQuery, target: &ConjunctiveQuery) -> bool {
    h.var_map.keys().copied().collect::<BTreeSet<_>>() == source.variables()
        && is_hom(&h.var_map, source, target)
        && source
            .atoms()
            .iter()
            .zip(&h.atom_map)
            .all(|(a, &j)| target.atoms()[j] == image_atom(&h.var_map, a))
}

const RELATIONS: [(&str, usize); 2] = [("R", 2), ("S", 1)];
const CONSTANTS: [&str; 2] = ["a", "b"];

fn random_term(rng: &mut StdRng, vars: &[Variable]) -> Term {
    if rng.random_range(0..100u32) < 20 {
        Term::constant(CONSTANTS[rng.random_range(0..CONSTANTS.len())])
    } else {
        Term::Var(vars[rng.random_range(0..vars.len())])
    }
}

/// A random small CQ≠ over `R/2` and `S/1` with variables named
/// `{prefix}0..`, constants `'a'`/`'b'`, a head of arity 0–2, and random
/// variable–variable and variable–constant disequalities.
fn random_query(rng: &mut StdRng, prefix: &str) -> ConjunctiveQuery {
    let vars: Vec<Variable> = (0..rng.random_range(1..=3usize))
        .map(|i| Variable::new(&format!("{prefix}{i}")))
        .collect();
    let atoms: Vec<Atom> = (0..rng.random_range(1..=3usize))
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
    let head: Vec<Term> = (0..rng.random_range(0..=2usize))
        .map(|_| {
            if body.is_empty() || rng.random_range(0..100u32) < 15 {
                Term::constant(CONSTANTS[0])
            } else {
                Term::Var(body[rng.random_range(0..body.len())])
            }
        })
        .collect();
    let mut diseqs = Vec::new();
    for (i, &x) in body.iter().enumerate() {
        for &y in &body[i + 1..] {
            if rng.random_range(0..100u32) < 30 {
                diseqs.push(Diseq::vars(x, y));
            }
        }
        for c in CONSTANTS {
            if rng.random_range(0..100u32) < 20 {
                diseqs.push(Diseq::var_const(x, prov_storage::Value::new(c)));
            }
        }
    }
    ConjunctiveQuery::new(Atom::of("ans", &head), atoms, diseqs).expect("well-formed")
}

/// A target for `source`: an unrelated query, a homomorphic image (a
/// random substitution, plus an extra atom and the preserved
/// disequalities), or a renaming with shuffled atoms.
fn random_target(rng: &mut StdRng, source: &ConjunctiveQuery) -> ConjunctiveQuery {
    let pool: Vec<Variable> = (0..3).map(|i| Variable::new(&format!("t{i}"))).collect();
    let sub: BTreeMap<Variable, Term> = match rng.random_range(0..3u32) {
        0 => return random_query(rng, "t"),
        1 => source
            .variables()
            .into_iter()
            .map(|v| (v, random_term(rng, &pool)))
            .collect(),
        _ => source
            .variables()
            .into_iter()
            .zip(&pool)
            .map(|(v, &t)| (v, Term::Var(t)))
            .collect(),
    };
    let mut atoms: Vec<Atom> = source.atoms().iter().map(|a| image_atom(&sub, a)).collect();
    if rng.random_range(0..2u32) == 0 {
        let first = atoms[0].clone();
        atoms.push(first);
    }
    for k in (1..atoms.len()).rev() {
        atoms.swap(k, rng.random_range(0..=k));
    }
    let diseqs: Vec<Diseq> = source
        .diseqs()
        .iter()
        .filter_map(
            |d| match (image(&sub, Term::Var(d.left())), image(&sub, d.right())) {
                (Term::Var(v), other) if Term::Var(v) != other => Some(Diseq::new(v, other)),
                (other, Term::Var(v)) if Term::Var(v) != other => Some(Diseq::new(v, other)),
                _ => None,
            },
        )
        .filter(|_| rng.random_range(0..100u32) < 85)
        .collect();
    ConjunctiveQuery::new(image_atom(&sub, source.head()), atoms, diseqs).expect("well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn kernel_agrees_with_the_literal_definition(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let source = random_query(&mut rng, "s");
        let target = random_target(&mut rng, &source);
        let pair = format!("{source}  →  {target}");

        let homs = oracle_homs(&source, &target, HomSearch::default());
        prop_assert_eq!(homomorphism_exists(&source, &target), !homs.is_empty(), "{}", pair);
        let found = find_homomorphism(&source, &target);
        prop_assert_eq!(found.is_some(), !homs.is_empty(), "{}", pair);
        if let Some(h) = &found {
            prop_assert!(witness_valid(h, &source, &target), "{} gave {:?}", pair, h);
        }

        let surjective = HomSearch { surjective: true, ..Default::default() };
        let onto = oracle_homs(&source, &target, surjective);
        let found = find_surjective_homomorphism(&source, &target);
        prop_assert_eq!(found.is_some(), !onto.is_empty(), "{}", pair);
        if let Some(h) = &found {
            prop_assert!(witness_valid(h, &source, &target), "{} gave {:?}", pair, h);
            prop_assert!(h.is_surjective_on_atoms(target.atoms().len()), "{}", pair);
        }

        let injective = HomSearch { injective: true, ..Default::default() };
        for config in [HomSearch::default(), surjective, injective] {
            let kernel = all_homomorphisms(&source, &target, config);
            let set: BTreeSet<Mapping> = kernel.iter().map(as_mapping).collect();
            prop_assert_eq!(kernel.len(), set.len(), "{} {:?}: duplicates", pair, config);
            prop_assert_eq!(&set, &oracle_homs(&source, &target, config), "{} {:?}", pair, config);
        }

        prop_assert_eq!(
            are_isomorphic(&source, &target),
            oracle_isomorphisms(&source, &target) > 0,
            "{}", pair
        );
        prop_assert_eq!(count_automorphisms(&source), oracle_isomorphisms(&source, &source), "{}", source);
        prop_assert_eq!(count_automorphisms(&target), oracle_isomorphisms(&target, &target), "{}", target);

        // Searches into a compiled query with one atom left out, against
        // the query without that atom — into the target, and into the
        // source itself (the core computation's redundancy test).
        let compiled = (CompiledQuery::new(&source), CompiledQuery::new(&target));
        for (into, query) in [(&compiled.1, &target), (&compiled.0, &source)] {
            for j in 0..query.atoms().len() {
                let Some(reduced) = query.without_atom(j) else {
                    continue;
                };
                prop_assert_eq!(
                    compiled.0.maps_to_without(into, Some(j)),
                    !oracle_homs(&source, &reduced, HomSearch::default()).is_empty(),
                    "{}  →  {}", source, reduced
                );
            }
        }
    }
}

/// A directed path over `n + 1` variables `{prefix}0..{prefix}n`, all
/// pairwise disequal except `skip`.
fn complete_path(n: usize, prefix: &str, skip: Option<(usize, usize)>) -> ConjunctiveQuery {
    let v = |i: usize| Variable::new(&format!("{prefix}{i}"));
    let atoms: Vec<Atom> = (0..n)
        .map(|i| Atom::of("R", &[Term::Var(v(i)), Term::Var(v(i + 1))]))
        .collect();
    let mut diseqs = Vec::new();
    for i in 0..=n {
        for j in i + 1..=n {
            if skip != Some((i, j)) {
                diseqs.push(Diseq::vars(v(i), v(j)));
            }
        }
    }
    ConjunctiveQuery::new(Atom::of("ans", &[Term::Var(v(0))]), atoms, diseqs).expect("well-formed")
}

#[test]
fn queries_beyond_64_variables_are_searched_exactly() {
    let q = complete_path(70, "p", None);
    assert_eq!(q.variables().len(), 71);
    let renamed = complete_path(70, "r", None);
    // A disequality between variables past the 64th is missing.
    let weaker = complete_path(70, "w", Some((3, 69)));

    assert!(homomorphism_exists(&q, &renamed));
    assert!(are_isomorphic(&q, &renamed));
    assert_eq!(count_automorphisms(&q), 1);
    // The only map of the path onto itself is the identity, and it needs
    // `p3 != p69` in the target.
    assert!(!homomorphism_exists(&q, &weaker));
    assert!(find_homomorphism(&q, &weaker).is_none());
    assert!(homomorphism_exists(&weaker, &q));
    assert!(!are_isomorphic(&q, &weaker));
    let h = find_surjective_homomorphism(&weaker, &q).expect("identity is onto");
    assert!(witness_valid(&h, &weaker, &q));
    assert_eq!(
        all_homomorphisms(&weaker, &q, HomSearch::default()).len(),
        1
    );
}
