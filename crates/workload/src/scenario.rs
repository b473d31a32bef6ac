//! Seed-keyed scenario sampling: one `(spec, seed, case)` triple
//! deterministically names a complete differential-testing scenario —
//! a query drawn from a DSL shape grammar, a database drawn from a skew
//! family, and a target semiring for specialization checks.
//!
//! Reproducibility is the contract: `Sampler::scenario(seed, case)` is a
//! pure function of the spec definition and the two integers, so a
//! divergence report that prints the triple is a complete bug
//! reproduction recipe (see `docs/FUZZING.md`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prov_query::UnionQuery;
use prov_storage::{Database, RelName, Tuple, Value};

use crate::dsl::{Filter, Workload};

/// How generated tuples distribute over the value domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Skew {
    /// Every position uniform over the domain.
    Uniform,
    /// Harmonic (Zipf-like) value frequencies: value `d_i` drawn with
    /// weight `1/(i+1)` — a few hot join keys, a long tail.
    Zipfian,
    /// Adversarial duplication: half of all positions collapse onto one
    /// hub value, maximizing join fan-out and duplicate-tuple insert
    /// attempts (which must stay idempotent).
    AdversarialDup,
}

impl std::fmt::Display for Skew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Skew::Uniform => "uniform",
            Skew::Zipfian => "zipfian",
            Skew::AdversarialDup => "adversarial-dup",
        })
    }
}

/// The semiring a scenario's provenance polynomials are specialized
/// into (on top of the `N[X]` polynomials every configuration must agree
/// on bit-for-bit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SemiringTag {
    /// `(ℕ, +, ·)` — derivation counting.
    Counting,
    /// `({⊥,⊤}, ∨, ∧)` — set semantics.
    Boolean,
    /// `(ℕ∞, min, +)` — cost of the cheapest derivation.
    Tropical,
    /// `([0,1], max, ·)` — confidence of the best derivation.
    Confidence,
}

impl SemiringTag {
    /// All supported tags, in sampling order.
    pub const ALL: [SemiringTag; 4] = [
        SemiringTag::Counting,
        SemiringTag::Boolean,
        SemiringTag::Tropical,
        SemiringTag::Confidence,
    ];
}

impl std::fmt::Display for SemiringTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SemiringTag::Counting => "counting",
            SemiringTag::Boolean => "boolean",
            SemiringTag::Tropical => "tropical",
            SemiringTag::Confidence => "confidence",
        })
    }
}

/// A named scenario family: a query shape grammar plus the database and
/// semiring dimensions it is crossed with.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// The spec's replay name (`provmin fuzz --spec NAME`).
    pub name: String,
    /// The query-shape grammar. Forced and parsed once per [`Sampler`];
    /// a [`Filter::Wellformed`] pass is applied automatically.
    pub queries: Workload,
    /// Tuples per relation in generated databases.
    pub tuples: usize,
    /// Size of the value domain (`d0 … d{domain-1}`).
    pub domain: usize,
    /// The database skews to cross with.
    pub skews: Vec<Skew>,
    /// The semiring specializations to cross with.
    pub semirings: Vec<SemiringTag>,
    /// Length of the sampled insert/delete interleaving over `R/2`
    /// (0 for the purely read-only families).
    pub mutation_steps: usize,
}

impl ScenarioSpec {
    /// The built-in spec registry, `None` for unknown names. `mixed` is
    /// the union of every shape family and the fuzzing default; `mutate`
    /// pairs the soak grammar with a random insert/delete interleaving
    /// for incremental-maintenance checks.
    pub fn named(name: &str) -> Option<ScenarioSpec> {
        let queries = match name {
            "mixed" => fanout_grammar()
                .append(cycles_grammar())
                .append(ucq_overlap_grammar())
                .append(diseq_grammar())
                .append(constants_grammar())
                .append(anchored_grammar()),
            "fanout" => fanout_grammar(),
            "cycles" => cycles_grammar(),
            "ucq-overlap" => ucq_overlap_grammar(),
            "diseq" => diseq_grammar(),
            "constants" => constants_grammar(),
            "anchored" => anchored_grammar(),
            "soak" | "mutate" => soak_grammar(),
            _ => return None,
        };
        Some(ScenarioSpec {
            name: name.to_owned(),
            queries,
            tuples: 14,
            domain: 5,
            skews: vec![Skew::Uniform, Skew::Zipfian, Skew::AdversarialDup],
            semirings: SemiringTag::ALL.to_vec(),
            mutation_steps: if name == "mutate" { 12 } else { 0 },
        })
    }

    /// Every built-in spec name, in registry order.
    pub fn names() -> &'static [&'static str] {
        &[
            "mixed",
            "fanout",
            "cycles",
            "ucq-overlap",
            "diseq",
            "constants",
            "anchored",
            "soak",
            "mutate",
        ]
    }
}

/// Wide fan-out: one to three atoms all sharing the head variable
/// (self-joins and star shapes standard minimization folds).
fn fanout_grammar() -> Workload {
    let atoms = Workload::new(["R(x0,x1)", "R(x0,x2)", "R(x0,x3)", "R(x1,x0)", "S(x0,x1)"]);
    Workload::new(["ans(x0) :- {B}"])
        .plug(
            "B",
            Workload::new(["{A}", "{A}, {A}", "{A}, {A}, {A}"]).plug("A", atoms),
        )
        .filter(Filter::MaxAtoms(3))
        .filter(Filter::MaxVars(4))
        .filter(Filter::Wellformed)
}

/// Cycles of length 2–4, open and boolean variants.
fn cycles_grammar() -> Workload {
    let closer = Workload::new([
        "R(x1,x0)",
        "R(x1,x2), R(x2,x0)",
        "R(x1,x2), R(x2,x3), R(x3,x0)",
        "S(x1,x0)",
    ]);
    Workload::new(["ans(x0) :- R(x0,x1), {C}", "ans() :- R(x0,x1), {C}"])
        .plug("C", closer)
        .filter(Filter::MaxAtoms(4))
        .filter(Filter::Wellformed)
}

/// Unions of two or three disjuncts drawn from overlapping body shapes
/// (duplicate and mutually-contained disjuncts included on purpose).
fn ucq_overlap_grammar() -> Workload {
    let body = Workload::new([
        "R(x0,x1)",
        "R(x0,x1), R(x1,x0)",
        "R(x0,x0)",
        "R(x0,x1), R(x1,x2)",
        "R(x0,x1), S(x1,x0)",
    ]);
    Workload::new([
        "ans(x0) :- {B} ; ans(x0) :- {B}",
        "ans(x0) :- {B} ; ans(x0) :- {B} ; ans(x0) :- R(x0,x0)",
    ])
    .plug("B", body)
    .filter(Filter::MaxDisjuncts(3))
    .filter(Filter::MaxAtoms(5))
    .filter(Filter::Wellformed)
}

/// Disequality-heavy chains (the CQ≠ fragment where completion
/// enumeration does real work).
fn diseq_grammar() -> Workload {
    let diseqs = Workload::new([
        "x0 != x1",
        "x0 != x2",
        "x1 != x2",
        "x0 != x1, x1 != x2",
        "x0 != 'd0'",
    ]);
    Workload::new([
        "ans(x0) :- R(x0,x1), R(x1,x2), {D}",
        "ans() :- R(x0,x1), R(x1,x0), {D}",
    ])
    .plug("D", diseqs)
    .filter(Filter::MaxVars(3))
    .filter(Filter::Wellformed)
}

/// Constants in join positions (plus the self-join degenerations where
/// the plugged term is a variable).
fn constants_grammar() -> Workload {
    Workload::new(["ans(x0) :- R(x0,{T}), R({T},x1)"])
        .plug("T", Workload::new(["'d0'", "'d1'", "x0", "x1"]))
        .filter(Filter::Wellformed)
}

/// Bodies with constants at two atoms — the shape the engine
/// semijoin-reduces before joining: 3- and 4-atom `R`/`S` paths from
/// `'d0'` to `'d1'` (with the `R(x1,x1)` degeneration of the middle
/// hop), a 3-cycle through `'d1'`, a triangle anchored at two of its
/// vertices, each with and without `x1 != 'd0'`.
fn anchored_grammar() -> Workload {
    let bodies = Workload::new([
        "R('d0',x1), R(x1,{T}), S({T},'d1')",
        "R('d0',x1), R(x1,{T}), R({T},x3), S(x3,'d1')",
        "R(x2,x1), R(x1,'d1'), R('d1',x2)",
        "R('d0',x1), R(x1,x2), R(x2,x3), R(x3,x1), S(x2,'d1')",
    ])
    .plug("T", Workload::new(["x2", "x1"]));
    Workload::new(["ans(x1) :- {B}{D}"])
        .plug("B", bodies)
        .plug("D", Workload::new(["", ", x1 != 'd0'"]))
        .filter(Filter::Wellformed)
}

/// The engine soak grammar: R-only shapes (the soak's mutation scripts
/// write relation `R`, so every query must observe the interleaving),
/// two-disjunct unions included for cache-sharing coverage.
fn soak_grammar() -> Workload {
    let body = Workload::new([
        "R(x0,x1)",
        "R(x0,x1), R(x1,x0)",
        "R(x0,x0)",
        "R(x0,x1), R(x1,x2)",
        "R(x0,x1), R(x0,x2)",
        "R(x0,x1), R(x1,x2), x0 != x2",
        "R(x0,x1), x0 != x1",
    ]);
    Workload::new(["ans(x0) :- {B}", "ans(x0) :- {B} ; ans(x0) :- {B}"])
        .plug("B", body)
        .filter(Filter::MaxAtoms(4))
        .filter(Filter::Wellformed)
}

/// One step of a scenario's mutation script, always over `R/2` (the
/// relation every soak-family query reads).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutationStep {
    /// Insert a tuple under a deterministic fresh annotation (`m0…mN`;
    /// re-inserting a present tuple is an idempotent no-op on purpose).
    Insert(Tuple, prov_semiring::Annotation),
    /// Remove a tuple (removing an absent tuple is a no-op on purpose).
    Remove(Tuple),
}

/// One fully-instantiated differential scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The spec this came from (for replay printing).
    pub spec: String,
    /// The replay seed.
    pub seed: u64,
    /// The replay case index.
    pub case: u64,
    /// The sampled query.
    pub query: UnionQuery,
    /// The sampled database (annotations `w0…wN`, deterministic).
    pub database: Database,
    /// The database's value skew.
    pub skew: Skew,
    /// The semiring this scenario specializes into.
    pub semiring: SemiringTag,
    /// The sampled insert/delete interleaving over `R/2` (empty unless
    /// the spec sets [`ScenarioSpec::mutation_steps`]). When non-empty,
    /// the first step always removes a present tuple, so deletion
    /// propagation is exercised in every case.
    pub mutations: Vec<MutationStep>,
}

impl Scenario {
    /// The replay recipe, e.g. for a failure message.
    pub fn replay(&self) -> String {
        format!("spec={} seed={} case={}", self.spec, self.seed, self.case)
    }
}

/// A forced, parsed spec ready to sample scenarios from.
#[derive(Clone, Debug)]
pub struct Sampler {
    spec: ScenarioSpec,
    queries: Vec<UnionQuery>,
}

impl Sampler {
    /// Forces and parses the spec's grammar. Errors if the grammar is
    /// empty after the well-formedness pass or if a term fails to parse.
    pub fn new(spec: &ScenarioSpec) -> Result<Sampler, String> {
        let queries = spec.queries.clone().filter(Filter::Wellformed).queries()?;
        if queries.is_empty() {
            return Err(format!("spec {} enumerates no queries", spec.name));
        }
        if spec.skews.is_empty() || spec.semirings.is_empty() {
            return Err(format!(
                "spec {} has an empty skew/semiring axis",
                spec.name
            ));
        }
        Ok(Sampler {
            spec: spec.clone(),
            queries,
        })
    }

    /// Convenience: sampler for a built-in spec name.
    pub fn named(name: &str) -> Result<Sampler, String> {
        let spec = ScenarioSpec::named(name).ok_or_else(|| {
            format!(
                "unknown spec {name} (available: {})",
                ScenarioSpec::names().join(", ")
            )
        })?;
        Sampler::new(&spec)
    }

    /// Number of distinct queries the grammar enumerates.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// The forced query list (test/bench consumers index it directly).
    pub fn queries(&self) -> &[UnionQuery] {
        &self.queries
    }

    /// The scenario named by `(spec, seed, case)` — deterministic.
    pub fn scenario(&self, seed: u64, case: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(mix(seed, case));
        let query = self.queries[rng.random_range(0..self.queries.len())].clone();
        let skew = self.spec.skews[rng.random_range(0..self.spec.skews.len())];
        let semiring = self.spec.semirings[rng.random_range(0..self.spec.semirings.len())];
        let database = self.database(&query, skew, &mut rng);
        let mutations = self.mutations(&database, skew, &mut rng);
        Scenario {
            spec: self.spec.name.clone(),
            seed,
            case,
            query,
            database,
            skew,
            semiring,
            mutations,
        }
    }

    /// Samples the scenario's insert/delete interleaving over `R/2`
    /// against a simulated present-set, mixing: removals of present
    /// tuples (deletion propagation, including annotations shared across
    /// output monomials), inserts of fresh tuples, idempotent re-inserts
    /// and misses, and insert-then-remove transients. Step 0 always
    /// removes a present tuple so every script deletes something real.
    fn mutations(&self, db: &Database, skew: Skew, rng: &mut StdRng) -> Vec<MutationStep> {
        if self.spec.mutation_steps == 0 {
            return Vec::new();
        }
        let rel = RelName::new("R");
        let mut present: Vec<Tuple> = db
            .relation(rel)
            .map(|r| r.iter().map(|(t, _)| t.clone()).collect())
            .unwrap_or_default();
        let mut script = Vec::with_capacity(self.spec.mutation_steps);
        let mut last_inserted: Option<Tuple> = None;
        for i in 0..self.spec.mutation_steps {
            let op = if i == 0 && !present.is_empty() {
                0
            } else {
                rng.random_range(0..4u8)
            };
            match op {
                // Remove a present tuple.
                0 if !present.is_empty() => {
                    let tuple = present.remove(rng.random_range(0..present.len()));
                    script.push(MutationStep::Remove(tuple));
                }
                // Remove the script's own latest insert (a transient).
                1 if last_inserted.is_some() => {
                    let tuple = last_inserted.take().expect("checked");
                    present.retain(|t| *t != tuple);
                    script.push(MutationStep::Remove(tuple));
                }
                // Remove an arbitrary draw (often a miss — a no-op).
                2 => {
                    let tuple: Tuple = (0..2).map(|_| self.draw_value(skew, rng)).collect();
                    present.retain(|t| *t != tuple);
                    script.push(MutationStep::Remove(tuple));
                }
                // Insert a draw under a fresh deterministic annotation
                // (hitting a present tuple is an idempotent no-op).
                _ => {
                    let tuple: Tuple = (0..2).map(|_| self.draw_value(skew, rng)).collect();
                    if !present.contains(&tuple) {
                        present.push(tuple.clone());
                        last_inserted = Some(tuple.clone());
                    }
                    script.push(MutationStep::Insert(
                        tuple,
                        prov_semiring::Annotation::new(&format!("m{i}")),
                    ));
                }
            }
        }
        script
    }

    /// Generates the scenario database: every relation the query
    /// mentions (plus `R/2`, the mutation target of the soak suites) is
    /// filled with `tuples` rows drawn under `skew`. Annotations are
    /// deterministic `w0…wN`.
    fn database(&self, query: &UnionQuery, skew: Skew, rng: &mut StdRng) -> Database {
        let mut schema: Vec<(RelName, usize)> = vec![(RelName::new("R"), 2)];
        for adjunct in query.adjuncts() {
            for atom in adjunct.atoms() {
                if !schema.iter().any(|(r, _)| *r == atom.relation) {
                    schema.push((atom.relation, atom.arity()));
                }
            }
        }
        let mut db = Database::new();
        let mut next_annotation = 0usize;
        for (rel, arity) in schema {
            let mut inserted = 0usize;
            let mut attempts = 0usize;
            // Duplicate draws are *attempted* on purpose (idempotent
            // insert coverage) but do not count toward the target; cap
            // attempts in case skew collapses the reachable domain.
            while inserted < self.spec.tuples && attempts < self.spec.tuples * 20 + 50 {
                attempts += 1;
                let tuple: Tuple = (0..arity).map(|_| self.draw_value(skew, rng)).collect();
                if db.annotation_of(rel, &tuple).is_none() {
                    db.insert(
                        rel,
                        tuple,
                        prov_semiring::Annotation::new(&format!("w{next_annotation}")),
                    );
                    next_annotation += 1;
                    inserted += 1;
                }
            }
        }
        db
    }

    /// Draws one domain value under the given skew.
    fn draw_value(&self, skew: Skew, rng: &mut StdRng) -> Value {
        let domain = self.spec.domain.max(1);
        let index = match skew {
            Skew::Uniform => rng.random_range(0..domain),
            Skew::Zipfian => {
                // Integer harmonic weights: value i has weight
                // SCALE/(i+1); cumulative inverse lookup.
                const SCALE: u64 = 720_720; // divisible by 1..=16
                let weights: u64 = (0..domain).map(|i| SCALE / (i as u64 + 1)).sum();
                let mut draw = rng.random_range(0..weights);
                let mut chosen = 0usize;
                for i in 0..domain {
                    let w = SCALE / (i as u64 + 1);
                    if draw < w {
                        chosen = i;
                        break;
                    }
                    draw -= w;
                }
                chosen
            }
            Skew::AdversarialDup => {
                if rng.random_range(0..2u8) == 0 {
                    0 // the hub value
                } else {
                    rng.random_range(0..domain)
                }
            }
        };
        Value::new(&format!("d{index}"))
    }
}

/// SplitMix-style combination of seed and case index into one stream key.
fn mix(seed: u64, case: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(case.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_spec_samples() {
        for name in ScenarioSpec::names() {
            let sampler = Sampler::named(name).expect(name);
            assert!(sampler.query_count() > 0, "{name} enumerates no queries");
            let sc = sampler.scenario(1, 0);
            assert!(sc.database.num_tuples() > 0, "{name} generated an empty db");
            assert_eq!(sc.spec, *name);
        }
    }

    #[test]
    fn scenarios_are_deterministic_per_triple() {
        let sampler = Sampler::named("mixed").unwrap();
        let a = sampler.scenario(7, 13);
        let b = sampler.scenario(7, 13);
        assert_eq!(a.query, b.query);
        assert_eq!(a.skew, b.skew);
        assert_eq!(a.semiring, b.semiring);
        assert_eq!(
            prov_storage::textio::format_database(&a.database),
            prov_storage::textio::format_database(&b.database)
        );
        // Different cases (almost surely) differ somewhere.
        let c = sampler.scenario(7, 14);
        assert!(
            a.query != c.query
                || a.skew != c.skew
                || prov_storage::textio::format_database(&a.database)
                    != prov_storage::textio::format_database(&c.database)
        );
    }

    #[test]
    fn skews_shape_the_value_distribution() {
        let spec = ScenarioSpec {
            tuples: 40,
            domain: 8,
            ..ScenarioSpec::named("fanout").unwrap()
        };
        let sampler = Sampler::new(&spec).unwrap();
        let hub = Value::new("d0");
        let hub_share = |skew: Skew| {
            let mut rng = StdRng::seed_from_u64(99);
            let draws = 2000;
            let hits = (0..draws)
                .filter(|_| sampler.draw_value(skew, &mut rng) == hub)
                .count();
            hits as f64 / draws as f64
        };
        let uniform = hub_share(Skew::Uniform);
        let zipf = hub_share(Skew::Zipfian);
        let adversarial = hub_share(Skew::AdversarialDup);
        assert!(uniform < zipf, "zipfian must favor the head value");
        assert!(zipf < adversarial, "adversarial must collapse onto the hub");
        assert!(adversarial > 0.4);
    }

    #[test]
    fn soak_spec_is_r_only() {
        let sampler = Sampler::named("soak").unwrap();
        for q in sampler.queries() {
            for adjunct in q.adjuncts() {
                for atom in adjunct.atoms() {
                    assert_eq!(atom.relation, RelName::new("R"));
                }
            }
        }
    }

    #[test]
    fn mutate_spec_scripts_are_deterministic_and_delete_first() {
        let sampler = Sampler::named("mutate").unwrap();
        for case in 0..8 {
            let sc = sampler.scenario(3, case);
            assert_eq!(sc.mutations.len(), 12);
            // Every script opens with a removal of a present tuple, so
            // deletion propagation is exercised in every case.
            match &sc.mutations[0] {
                MutationStep::Remove(t) => {
                    assert!(sc.database.annotation_of(RelName::new("R"), t).is_some());
                }
                other => panic!("step 0 must remove a present tuple, got {other:?}"),
            }
            assert_eq!(sc.mutations, sampler.scenario(3, case).mutations);
        }
        // Read-only specs sample no mutations (and their scenarios are
        // byte-identical to what they were before the field existed).
        assert!(Sampler::named("soak")
            .unwrap()
            .scenario(3, 0)
            .mutations
            .is_empty());
    }

    #[test]
    fn unknown_spec_is_an_error_listing_names() {
        let err = Sampler::named("nope").unwrap_err();
        assert!(err.contains("unknown spec"));
        assert!(err.contains("mixed"));
    }
}
