//! Provenance annotations: the variables `X` of the `N[X]` semiring.
//!
//! The paper annotates every input tuple with an element of a set `X` of
//! provenance tokens (`s1`, `s2`, ...). Annotations are interned: each is a
//! small copyable id, and the id-to-name mapping lives in a global
//! [`Interner`] pool so that polynomials display exactly as in the paper.

use std::fmt;

use crate::intern::{InternBatch, Interner};

static ANNOTATION_POOL: Interner = Interner::new();

/// An interned provenance annotation (an element of the variable set `X`).
///
/// Annotations are cheap to copy and compare; their human-readable name is
/// held by the global pool.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Annotation(u32);

impl Annotation {
    /// Interns `name` and returns its annotation. Repeated calls with the
    /// same name return the same annotation.
    pub fn new(name: &str) -> Self {
        Annotation(ANNOTATION_POOL.intern(name))
    }

    /// Creates a fresh annotation with a unique generated name (`@k`).
    ///
    /// Used to abstractly tag generated databases: every call yields an
    /// annotation distinct from every previously created one, by id and
    /// by name.
    pub fn fresh() -> Self {
        Annotation(ANNOTATION_POOL.fresh("@"))
    }

    /// Interns a run of annotations under one lock acquisition, with ids
    /// in call order (see [`Interner::batch`]). While the batch lives, this
    /// thread must not call [`Annotation::new`] or [`Annotation::fresh`].
    pub fn batch() -> AnnotationBatch {
        AnnotationBatch(ANNOTATION_POOL.batch())
    }

    /// The interned name of this annotation.
    pub fn name(&self) -> &'static str {
        ANNOTATION_POOL.name(self.0)
    }

    /// The raw interned id. Stable within a process, useful as an index.
    pub fn id(&self) -> u32 {
        self.0
    }
}

/// A run of annotation interning under one lock (see [`Annotation::batch`]).
pub struct AnnotationBatch(InternBatch<'static>);

impl AnnotationBatch {
    /// As [`Annotation::new`].
    pub fn intern(&mut self, name: &str) -> Annotation {
        Annotation(self.0.intern(name))
    }

    /// As [`Annotation::fresh`].
    pub fn fresh(&mut self) -> Annotation {
        Annotation(self.0.fresh("@"))
    }
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Annotation({})", self.name())
    }
}

impl From<&str> for Annotation {
    fn from(name: &str) -> Self {
        Annotation::new(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Annotation::new("s1");
        let b = Annotation::new("s1");
        assert_eq!(a, b);
        assert_eq!(a.name(), "s1");
    }

    #[test]
    fn distinct_names_are_distinct() {
        let a = Annotation::new("x_left");
        let b = Annotation::new("x_right");
        assert_ne!(a, b);
    }

    #[test]
    fn fresh_annotations_are_unique() {
        let a = Annotation::fresh();
        let b = Annotation::fresh();
        assert_ne!(a, b);
        assert_ne!(a.name(), b.name());
    }

    #[test]
    fn fresh_never_aliases_a_user_named_at_k() {
        // `fresh` names id k `@k`. User annotations spelled `@(k+1)`,
        // `@(k+2)`, … take ids k, k+1, …, so after them the next id's
        // `@k` name is already taken: `fresh` must skip it rather than
        // hand the same name out under a second id.
        let next = ANNOTATION_POOL.count();
        let taken: Vec<Annotation> = (next + 1..=next + 4)
            .map(|k| Annotation::new(&format!("@{k}")))
            .collect();
        let fresh = Annotation::fresh();
        for a in &taken {
            assert_ne!(fresh, *a);
            assert_ne!(fresh.name(), a.name(), "fresh aliased {a:?}");
        }
        assert_eq!(Annotation::new(fresh.name()), fresh, "two ids share a name");
    }

    #[test]
    fn display_uses_name() {
        let a = Annotation::new("s42");
        assert_eq!(a.to_string(), "s42");
    }

    #[test]
    fn from_str_interns() {
        let a: Annotation = "token".into();
        assert_eq!(a, Annotation::new("token"));
    }
}
