//! A thread-safe string interner with lock-free reads, shared by every
//! symbol type of the workspace (annotations, database values, relation
//! names, query variables).
//!
//! Names live in an append-only segmented table: segment `k` holds
//! `64·2^k` slots, so the table grows by doubling without ever moving a
//! slot, and decoding an id is two array indexings plus an atomic load —
//! no lock, no allocation. Writers ([`Interner::intern`],
//! [`Interner::fresh`]) serialize on a mutex-guarded name→id map whose
//! keys borrow the stored names, so each interned name is one leaked
//! allocation for the life of the process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Slots in segment 0; segment `k` holds `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: u64 = 64;
const FIRST_SEGMENT_BITS: u32 = FIRST_SEGMENT.trailing_zeros();
/// Enough segments to address every `u32` id.
const SEGMENTS: usize = 27;

type Segment = Box<[OnceLock<&'static str>]>;

/// A string interner: maps strings to dense `u32` ids and back.
///
/// `const`-constructible so that each symbol type can own a `static` pool.
pub struct Interner {
    segments: [OnceLock<Segment>; SEGMENTS],
    /// Ids minted so far; published with `Release` after the slot is set.
    len: AtomicU32,
    by_name: Mutex<Option<HashMap<&'static str, u32>>>,
}

/// The segment and offset holding `id`: ids `64·(2^k − 1) ..
/// 64·(2^(k+1) − 1)` live in segment `k`.
fn locate(id: u32) -> (usize, usize) {
    let n = u64::from(id) + FIRST_SEGMENT;
    let segment = (63 - n.leading_zeros() - FIRST_SEGMENT_BITS) as usize;
    (segment, (n - (FIRST_SEGMENT << segment)) as usize)
}

impl Interner {
    /// Creates an empty interner.
    pub const fn new() -> Self {
        Interner {
            segments: [const { OnceLock::new() }; SEGMENTS],
            len: AtomicU32::new(0),
            by_name: Mutex::new(None),
        }
    }

    fn slot(&self, id: u32) -> Option<&OnceLock<&'static str>> {
        let (segment, offset) = locate(id);
        self.segments[segment].get()?.get(offset)
    }

    /// Stores `name` under the next id and publishes it. Callers hold the
    /// map lock (an [`InternBatch`]), so ids are minted one at a time.
    fn push(&self, name: &'static str) -> u32 {
        let id = self.len.load(Ordering::Relaxed);
        assert!(id < u32::MAX, "interner overflow");
        let (segment, offset) = locate(id);
        let slots = self.segments[segment].get_or_init(|| {
            (0..FIRST_SEGMENT << segment)
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[offset].set(name).expect("unpublished slot is empty");
        self.len.store(id + 1, Ordering::Release);
        id
    }

    /// Interns `name`, returning its id.
    pub fn intern(&self, name: &str) -> u32 {
        self.batch().intern(name)
    }

    /// Interns a fresh generated name starting with the given prefix.
    ///
    /// The generated name is guaranteed not to collide with any name
    /// interned before or after.
    pub fn fresh(&self, prefix: &str) -> u32 {
        self.batch().fresh(prefix)
    }

    /// Takes the writers' lock once for a run of [`InternBatch::intern`] /
    /// [`InternBatch::fresh`] calls, which mint ids in call order exactly
    /// as the same sequence of single calls would. Readers stay lock-free;
    /// other writers wait until the batch is dropped, so keep batches
    /// bounded, and never call this interner's single-name methods while
    /// holding one (that deadlocks).
    pub fn batch(&self) -> InternBatch<'_> {
        InternBatch {
            interner: self,
            guard: self.by_name.lock().expect("interner poisoned"),
        }
    }

    /// The name for `id`. Lock-free. Panics if `id` was not produced by
    /// this interner.
    pub fn name(&self, id: u32) -> &'static str {
        self.slot(id)
            .and_then(OnceLock::get)
            .copied()
            .unwrap_or_else(|| panic!("id {id} was not minted by this interner"))
    }

    /// Number of ids this interner has minted (interned names plus slots
    /// burned by [`Interner::fresh`] collisions). Ids are allocated
    /// densely, so every id below this count is valid — the validity
    /// check behind dictionary decoding (`Value::from_id`).
    pub fn count(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

/// One holding of an [`Interner`]'s writer lock (see [`Interner::batch`]).
pub struct InternBatch<'a> {
    interner: &'a Interner,
    guard: MutexGuard<'a, Option<HashMap<&'static str, u32>>>,
}

impl InternBatch<'_> {
    fn by_name(&mut self) -> &mut HashMap<&'static str, u32> {
        self.guard.get_or_insert_with(HashMap::new)
    }

    /// Interns `name`, returning its id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name().get(name) {
            return id;
        }
        let stored: &'static str = Box::leak(name.into());
        let id = self.interner.push(stored);
        self.by_name().insert(stored, id);
        id
    }

    /// Interns a fresh generated name starting with `prefix`, as
    /// [`Interner::fresh`].
    pub fn fresh(&mut self, prefix: &str) -> u32 {
        loop {
            let name = format!("{prefix}{}", self.interner.len.load(Ordering::Relaxed));
            if self.by_name().contains_key(name.as_str()) {
                // Someone interned this exact name already; burn a slot to
                // advance the counter and retry.
                self.interner.push("");
                continue;
            }
            let stored: &'static str = Box::leak(name.into_boxed_str());
            let id = self.interner.push(stored);
            self.by_name().insert(stored, id);
            return id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trip() {
        static POOL: Interner = Interner::new();
        let a = POOL.intern("alpha");
        let b = POOL.intern("beta");
        assert_ne!(a, b);
        assert_eq!(POOL.intern("alpha"), a);
        assert_eq!(POOL.name(a), "alpha");
    }

    #[test]
    fn fresh_names_do_not_collide() {
        static POOL: Interner = Interner::new();
        let a = POOL.fresh("g");
        let b = POOL.fresh("g");
        assert_ne!(a, b);
        assert_ne!(POOL.name(a), POOL.name(b));
    }

    #[test]
    fn fresh_skips_colliding_names() {
        static POOL: Interner = Interner::new();
        // Pre-intern the name fresh() would generate next ("p0").
        POOL.intern("p0");
        let id = POOL.fresh("p");
        assert_ne!(POOL.name(id), "p0");
    }

    #[test]
    fn locate_splits_ids_at_doubling_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(447), (2, 255));
        assert_eq!(locate(448), (3, 0));
        let (segment, offset) = locate(u32::MAX);
        assert!(segment < SEGMENTS);
        assert!((offset as u64) < FIRST_SEGMENT << segment);
    }

    #[test]
    fn ids_round_trip_across_segment_boundaries() {
        static POOL: Interner = Interner::new();
        // Segment k ends at id 64·(2^(k+1) − 1) − 1: 63, 191, 447, 959.
        let ids: Vec<u32> = (0..1000).map(|i| POOL.intern(&format!("n{i}"))).collect();
        assert_eq!(ids, (0..1000).collect::<Vec<u32>>());
        for edge in [63u32, 64, 191, 192, 447, 448, 959, 960] {
            assert_eq!(POOL.name(edge), format!("n{edge}"));
            assert_eq!(POOL.intern(&format!("n{edge}")), edge);
        }
        assert_eq!(POOL.count(), 1000);
    }

    #[test]
    fn reads_race_writes_without_tearing() {
        static POOL: Interner = Interner::new();
        const PER_WRITER: usize = 3000;
        let (minted, observed) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|writer| {
                    s.spawn(move || {
                        (0..PER_WRITER)
                            .map(|i| {
                                let name = format!("w{writer}-{i}");
                                (POOL.intern(&name), name)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        // Re-read every published id on each pass; a slot
                        // must never change once its id is visible.
                        let mut seen: Vec<&'static str> = Vec::new();
                        loop {
                            let count = POOL.count();
                            for id in 0..count {
                                let name = POOL.name(id as u32);
                                match seen.get(id) {
                                    Some(&before) => assert_eq!(before, name, "id {id} changed"),
                                    None => seen.push(name),
                                }
                            }
                            if count == 2 * PER_WRITER {
                                return seen;
                            }
                        }
                    })
                })
                .collect();
            let minted: Vec<(u32, String)> = writers
                .into_iter()
                .flat_map(|w| w.join().expect("writer"))
                .collect();
            let observed: Vec<Vec<&'static str>> = readers
                .into_iter()
                .map(|r| r.join().expect("reader"))
                .collect();
            (minted, observed)
        });
        for seen in observed {
            assert_eq!(seen.len(), 2 * PER_WRITER);
            for (id, name) in &minted {
                assert_eq!(seen[*id as usize], name, "id {id} read back wrong");
            }
        }
    }
}
