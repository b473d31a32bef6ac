//! Monomials of the provenance semiring `N[X]`: finite multisets of
//! annotations, the image of a single assignment (paper §2.3).
//!
//! The paper's presentation writes monomials "in a form where all
//! coefficients and exponents equal 1" so that monomial occurrences are in
//! bijection with assignments. We keep the multiset (so `s1·s1` has `s1`
//! with multiplicity 2) and track occurrence counts at the polynomial level.

use std::collections::BTreeSet;
use std::fmt;

use crate::annotation::Annotation;
use crate::semiring::CommutativeSemiring;

/// A monomial: a finite multiset of annotations, stored sorted.
///
/// The empty monomial is the multiplicative identity `1`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial {
    /// Sorted (ascending) annotations, with repetitions for exponents.
    factors: Vec<Annotation>,
}

impl Monomial {
    /// The unit monomial `1` (empty product).
    pub fn unit() -> Self {
        Monomial {
            factors: Vec::new(),
        }
    }

    /// A monomial consisting of a single annotation.
    pub fn var(a: Annotation) -> Self {
        Monomial { factors: vec![a] }
    }

    /// Builds a monomial from any collection of annotations (order
    /// irrelevant; duplicates become multiplicities).
    pub fn from_annotations<I: IntoIterator<Item = Annotation>>(iter: I) -> Self {
        let mut factors: Vec<Annotation> = iter.into_iter().collect();
        factors.sort_unstable();
        Monomial { factors }
    }

    /// Builds a monomial from an already-sorted factor vector without
    /// re-sorting — the allocation-minimal path out of a
    /// [`MonomialBuilder`]'s reused buffer.
    pub fn from_sorted(factors: Vec<Annotation>) -> Self {
        debug_assert!(
            factors.windows(2).all(|w| w[0] <= w[1]),
            "factors must be sorted ascending"
        );
        Monomial { factors }
    }

    /// Parses a `·`-separated list of annotation names, e.g. `"s1·s2·s2"`.
    /// `*` is accepted as a separator too. `"1"` denotes the unit monomial.
    pub fn parse(text: &str) -> Self {
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed == "1" {
            return Monomial::unit();
        }
        Monomial::from_annotations(
            trimmed
                .split(['·', '*'])
                .map(|name| Annotation::new(name.trim())),
        )
    }

    /// The total degree (number of factors, counting multiplicity).
    pub fn degree(&self) -> usize {
        self.factors.len()
    }

    /// Whether this is the unit monomial.
    pub fn is_unit(&self) -> bool {
        self.factors.is_empty()
    }

    /// The factors, sorted, with multiplicities.
    pub fn factors(&self) -> &[Annotation] {
        &self.factors
    }

    /// The multiplicity (exponent) of `a` in this monomial.
    pub fn multiplicity(&self, a: Annotation) -> usize {
        self.factors.iter().filter(|&&x| x == a).count()
    }

    /// The support: the set of distinct annotations occurring.
    pub fn support(&self) -> BTreeSet<Annotation> {
        self.factors.iter().copied().collect()
    }

    /// The squarefree reduction: every factor with multiplicity exactly 1.
    ///
    /// This is the per-monomial effect of step II of `MinProv`
    /// (paper Lemma 5.3): the minimized adjunct uses every tuple once.
    pub fn squarefree(&self) -> Monomial {
        let mut factors: Vec<Annotation> = self.factors.clone();
        factors.dedup();
        Monomial { factors }
    }

    /// Whether every factor has multiplicity 1.
    pub fn is_squarefree(&self) -> bool {
        self.factors.windows(2).all(|w| w[0] != w[1])
    }

    /// The product of two monomials (multiset union).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        // Merge two sorted vectors.
        let mut factors = Vec::with_capacity(self.factors.len() + other.factors.len());
        let (mut i, mut j) = (0, 0);
        while i < self.factors.len() && j < other.factors.len() {
            if self.factors[i] <= other.factors[j] {
                factors.push(self.factors[i]);
                i += 1;
            } else {
                factors.push(other.factors[j]);
                j += 1;
            }
        }
        factors.extend_from_slice(&self.factors[i..]);
        factors.extend_from_slice(&other.factors[j..]);
        Monomial { factors }
    }

    /// The terseness order on monomials (paper Def 2.15): `self ≤ other`
    /// iff there is an injective index mapping sending every factor of
    /// `self` to an equal factor of `other` — i.e. multiset inclusion.
    pub fn leq(&self, other: &Monomial) -> bool {
        if self.factors.len() > other.factors.len() {
            return false;
        }
        // Both sorted: greedy two-pointer multiset inclusion.
        let mut j = 0;
        for &a in &self.factors {
            while j < other.factors.len() && other.factors[j] < a {
                j += 1;
            }
            if j >= other.factors.len() || other.factors[j] != a {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Strict terseness order: `self ≤ other` but not `other ≤ self`.
    ///
    /// On monomials `≤` is antisymmetric, so this is `leq && !=`.
    pub fn strict_leq(&self, other: &Monomial) -> bool {
        self != other && self.leq(other)
    }

    /// Evaluates the monomial in a semiring `K` under a valuation of its
    /// annotations (the monomial part of the universal property of `N[X]`).
    pub fn eval<K: CommutativeSemiring>(&self, valuation: &mut impl FnMut(Annotation) -> K) -> K {
        K::product(self.factors.iter().map(|&a| valuation(a)))
    }
}

impl std::borrow::Borrow<[Annotation]> for Monomial {
    /// A monomial borrows as its sorted factor slice. Derived
    /// `Eq`/`Ord`/`Hash` on the single `Vec<Annotation>` field delegate to
    /// slice semantics, so coefficient maps keyed by `Monomial` may probe
    /// with a borrowed `&[Annotation]` — what lets
    /// [`crate::Polynomial::add_occurrence`] accumulate a derivation
    /// without allocating a `Monomial` unless the term is new.
    fn borrow(&self) -> &[Annotation] {
        &self.factors
    }
}

/// A reusable factor buffer for building the monomial of one derivation
/// (one assignment's worth of annotations, Def 2.12) without a fresh
/// allocation per derivation.
///
/// The hot evaluation loop clears the buffer, pushes one annotation per
/// matched atom, and hands the sorted slice to
/// [`crate::Polynomial::add_occurrence`]; the backing `Vec` is allocated
/// once and reused across derivations.
#[derive(Clone, Debug, Default)]
pub struct MonomialBuilder {
    factors: Vec<Annotation>,
}

impl MonomialBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        MonomialBuilder::default()
    }

    /// Clears the factor buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.factors.clear();
    }

    /// Appends one factor (order irrelevant; duplicates are
    /// multiplicities).
    pub fn push(&mut self, a: Annotation) {
        self.factors.push(a);
    }

    /// Number of factors currently buffered.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Whether the buffer is empty (the unit monomial).
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// Sorts the buffer and returns the canonical factor slice — the key
    /// form [`crate::Polynomial::add_occurrence`] accepts.
    pub fn as_sorted(&mut self) -> &[Annotation] {
        self.factors.sort_unstable();
        &self.factors
    }

    /// Clones the buffered factors out as a `Monomial`.
    pub fn to_monomial(&mut self) -> Monomial {
        self.factors.sort_unstable();
        Monomial::from_sorted(self.factors.clone())
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.factors.is_empty() {
            return f.write_str("1");
        }
        for (i, a) in self.factors.iter().enumerate() {
            if i > 0 {
                f.write_str("·")?;
            }
            f.write_str(a.name())?;
        }
        Ok(())
    }
}

impl FromIterator<Annotation> for Monomial {
    fn from_iter<I: IntoIterator<Item = Annotation>>(iter: I) -> Self {
        Monomial::from_annotations(iter)
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(text: &str) -> Monomial {
        Monomial::parse(text)
    }

    #[test]
    fn parse_and_display_round_trip() {
        let mono = m("s2·s1·s2");
        assert_eq!(mono.to_string(), "s1·s2·s2");
        assert_eq!(Monomial::parse(&mono.to_string()), mono);
    }

    #[test]
    fn unit_monomial() {
        assert_eq!(m("1"), Monomial::unit());
        assert!(m("").is_unit());
        assert_eq!(Monomial::unit().to_string(), "1");
        assert_eq!(Monomial::unit().degree(), 0);
    }

    #[test]
    fn degree_and_multiplicity() {
        let mono = m("s1·s1·s3");
        assert_eq!(mono.degree(), 3);
        assert_eq!(mono.multiplicity(Annotation::new("s1")), 2);
        assert_eq!(mono.multiplicity(Annotation::new("s3")), 1);
        assert_eq!(mono.multiplicity(Annotation::new("s9")), 0);
    }

    #[test]
    fn mul_is_multiset_union() {
        assert_eq!(m("s1·s3").mul(&m("s2·s1")), m("s1·s1·s2·s3"));
        assert_eq!(m("s1").mul(&Monomial::unit()), m("s1"));
    }

    #[test]
    fn squarefree_reduction() {
        assert_eq!(m("s1·s1·s1").squarefree(), m("s1"));
        assert_eq!(m("s1·s2").squarefree(), m("s1·s2"));
        assert!(m("s1·s2").is_squarefree());
        assert!(!m("s1·s1").is_squarefree());
    }

    #[test]
    fn leq_is_multiset_inclusion() {
        // Paper Def 2.15: injective factor mapping.
        assert!(m("s1").leq(&m("s1·s1")));
        assert!(m("s1·s2").leq(&m("s1·s2·s3")));
        assert!(!m("s1·s1").leq(&m("s1·s2")));
        assert!(!m("s3·s4").leq(&m("s1·s2·s2")));
        assert!(m("1").leq(&m("s1")));
        assert!(m("s1·s2").leq(&m("s1·s2")));
    }

    #[test]
    fn strict_order() {
        assert!(m("s1").strict_leq(&m("s1·s1")));
        assert!(!m("s1·s2").strict_leq(&m("s1·s2")));
    }

    #[test]
    fn example_2_15_from_paper() {
        // m = s1·s2 maps into m' = s1·s2·s2; the converse fails.
        assert!(m("s1·s2").leq(&m("s1·s2·s2")));
        assert!(!m("s1·s2·s2").leq(&m("s1·s2")));
    }

    #[test]
    fn eval_counts_with_multiplicity() {
        use crate::kinds::Natural;
        let mono = m("a_eval·a_eval·b_eval");
        let a = Annotation::new("a_eval");
        let value = mono.eval(&mut |x| if x == a { Natural(2) } else { Natural(3) });
        assert_eq!(value, Natural(12));
    }

    #[test]
    fn support_is_set() {
        let mono = m("s1·s1·s2");
        let support = mono.support();
        assert_eq!(support.len(), 2);
    }
}
