//! Content-addressed memoization of world builds and campaign probes.
//!
//! Building a [`World`] and probing it are by far the
//! most expensive steps in the pipeline, and several callers repeat them
//! with identical inputs: `repro check` builds the same world for its clean
//! and faulted arms, the sweep engine re-derives the same replicate seeds
//! across presets, and `repro all` re-enters the detection report per
//! experiment group. Both artifacts are pure functions of their
//! configuration, so they are cached here under a *content address*: a
//! canonical key text (see [`fingerprint`] for why derived `Debug` text is
//! canonical). Every entry keeps its full key text; the FNV-1a 64
//! fingerprint of that text only rejects non-matching entries quickly, and
//! a hit is served only when the stored text equals the requested one, so
//! a fingerprint collision costs a recompute, never another input's
//! result.
//!
//! Keying rules:
//!
//! - A world's key is its [`World::memo_key`](crate::world::World): the
//!   `Debug` text of its [`WorldConfig`](crate::world::WorldConfig) (which
//!   embeds the seed, so "same knobs, different seed" never collides by
//!   construction); for a [`World::fork`] the parent's key followed by the
//!   `Debug` text of each applied delta; after [`World::mark_mutated`] a
//!   process-unique `mutated#N`, so the mutated world can still be probed
//!   but its results can never be confused with the pristine build.
//! - A probe set's key is the world key, a newline, and the campaign's
//!   `Debug` text.
//!
//! Both caches are the same bounded LRU guarded by a plain mutex. The
//! probe cache keeps eight entries — enough to keep a sweep preset's
//! replicate set resident. The world cache is the **world pool**: the same
//! LRU, but with a configurable entry cap and an optional byte budget
//! ([`configure_world_pool`]) so a long-running `repro serve` process can
//! keep many warm worlds resident without unbounded growth. Eviction is a
//! pure performance policy — results are identical with a cold pool. The
//! lock is **not** held while building or probing: two threads racing on
//! the same key may both compute, but the results are deterministic and
//! identical, so the loser's copy is simply dropped.

use crate::probe::ProbePlane;
use crate::world::World;
use rp_types::IxpId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Raw per-IXP campaign output, as produced by
/// [`Campaign::probe_all`](crate::campaign::Campaign::probe_all): one
/// dense struct-of-arrays [`ProbePlane`] per studied IXP.
pub type ProbeSet = Vec<(IxpId, ProbePlane)>;

/// Entries kept per cache. A sweep preset probes at most a handful of
/// distinct worlds per replicate seed; eight slots keep a full replicate
/// set resident without letting a long campaign pin unbounded memory.
const CACHE_CAP: usize = 8;

struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a 64 fingerprint of a configuration's `Debug` encoding.
///
/// The derived `Debug` output is canonical enough here: the config structs
/// are plain field structs of scalars, strings, and nested config structs,
/// so equal values render identical text (floats included — Rust's float
/// formatting is the exact shortest round-trip form). Only ever hash plain
/// data this way; anything whose `Debug` prints addresses or other
/// run-varying state would break the content addressing.
pub fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("the FNV sink never errors");
    h.0
}

/// FNV-1a 64 of raw key text (`fingerprint(v) == text_fingerprint(&format!("{v:?}"))`).
pub(crate) fn text_fingerprint(text: &str) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.write_str(text).expect("the FNV sink never errors");
    h.0
}

/// A process-unique world key that can never hit the cache again.
pub(crate) fn mutation_key() -> Arc<str> {
    static NONCE: AtomicU64 = AtomicU64::new(1);
    format!("mutated#{}", NONCE.fetch_add(1, Ordering::Relaxed)).into()
}

/// One cache entry: the key's fingerprint (a fast reject), the full key
/// text (compared on every hit), the shared value, and its weight in
/// bytes for the byte budget.
struct Entry<V> {
    fp: u64,
    key: Box<str>,
    value: Arc<V>,
    bytes: u64,
}

/// A bounded LRU behind a mutex. The back of the deque is
/// most-recently-used; eviction pops the front.
struct Lru<V> {
    entries: Mutex<VecDeque<Entry<V>>>,
    /// Entry cap (always >= 1).
    max_entries: AtomicUsize,
    /// Byte budget; 0 means "entry cap only".
    max_bytes: AtomicU64,
    /// Told `(entries evicted, resident bytes)` after every bounds pass.
    on_evict: fn(u64, u64),
}

impl<V> Lru<V> {
    const fn new(max_entries: usize, on_evict: fn(u64, u64)) -> Self {
        Lru {
            entries: Mutex::new(VecDeque::new()),
            max_entries: AtomicUsize::new(max_entries),
            max_bytes: AtomicU64::new(0),
            on_evict,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Entry<V>>> {
        self.entries.lock().expect("memo cache lock")
    }

    /// Look `key` (fingerprint `fp`) up, computing (outside the lock) and
    /// inserting on a miss with the weight `weigh` gives the new value.
    /// Returns the value and whether this call inserted it (a miss). On a
    /// concurrent double-compute the first inserter wins and the second
    /// copy is dropped — both are deterministic, so either is correct —
    /// and the loser counts as a hit, so misses count insertions.
    fn get_or_insert(
        &self,
        fp: u64,
        key: &str,
        compute: impl FnOnce() -> V,
        weigh: impl FnOnce(&V) -> u64,
    ) -> (Arc<V>, bool) {
        if let Some(hit) = lru_find(&mut self.lock(), fp, key) {
            return (hit, false);
        }
        let value = Arc::new(compute());
        let bytes = weigh(&value);
        let mut entries = self.lock();
        if let Some(raced) = lru_find(&mut entries, fp, key) {
            return (raced, false);
        }
        entries.push_back(Entry {
            fp,
            key: key.into(),
            value: value.clone(),
            bytes,
        });
        self.evict_to_bounds(&mut entries);
        (value, true)
    }

    /// Drop least-recently-used entries until both bounds hold. The byte
    /// budget never evicts the last entry: a single world larger than the
    /// budget still caches (evicting it would just thrash rebuilds).
    fn evict_to_bounds(&self, entries: &mut VecDeque<Entry<V>>) {
        let max_entries = self.max_entries.load(Ordering::Relaxed).max(1);
        let max_bytes = self.max_bytes.load(Ordering::Relaxed);
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut evicted = 0;
        while entries.len() > max_entries
            || (max_bytes > 0 && total > max_bytes && entries.len() > 1)
        {
            if let Some(e) = entries.pop_front() {
                total -= e.bytes;
                evicted += 1;
            }
        }
        (self.on_evict)(evicted, total);
    }
}

/// Find the entry whose fingerprint *and* full key text match, moving it
/// to the most-recently-used position.
fn lru_find<V>(entries: &mut VecDeque<Entry<V>>, fp: u64, key: &str) -> Option<Arc<V>> {
    let pos = entries.iter().position(|e| e.fp == fp && *e.key == *key)?;
    let entry = entries.remove(pos).expect("position came from this deque");
    let value = entry.value.clone();
    entries.push_back(entry);
    Some(value)
}

fn world_pool_evicted(evicted: u64, resident_bytes: u64) {
    if evicted > 0 {
        rp_obs::counter!("core.memo.world_evict").add(evicted);
    }
    rp_obs::gauge!("core.memo.world_bytes").record_max(resident_bytes);
}

fn probes_evicted(_: u64, _: u64) {}

/// The world pool: entries weighed by [`World::approx_bytes`].
static WORLDS: Lru<World> = Lru::new(CACHE_CAP, world_pool_evicted);

static PROBES: Lru<ProbeSet> = Lru::new(CACHE_CAP, probes_evicted);

/// Configure the world pool's bounds: an entry cap and an optional byte
/// budget over [`World::approx_bytes`] estimates. The default is the
/// eight-entry cap with no byte budget — right for one-shot CLI runs;
/// `repro serve` raises the entry cap and sets a budget so a long-lived
/// process bounds its resident set by memory, not by a guess at how many
/// distinct configs its clients rotate through. Shrinking the bounds
/// evicts immediately (oldest first). Purely a performance knob: cached
/// and freshly built worlds are bit-identical.
pub fn configure_world_pool(max_entries: usize, max_bytes: Option<u64>) {
    WORLDS
        .max_entries
        .store(max_entries.max(1), Ordering::Relaxed);
    WORLDS
        .max_bytes
        .store(max_bytes.unwrap_or(0), Ordering::Relaxed);
    WORLDS.evict_to_bounds(&mut WORLDS.lock());
}

/// Resident world-pool load: `(entries, estimated bytes)`.
pub fn world_pool_stats() -> (usize, u64) {
    let entries = WORLDS.lock();
    (entries.len(), entries.iter().map(|e| e.bytes).sum())
}

/// Fetch or build the world keyed by the text `key`.
pub(crate) fn world_cached(key: &str, build: impl FnOnce() -> World) -> Arc<World> {
    let (world, missed) =
        WORLDS.get_or_insert(text_fingerprint(key), key, build, |w| w.approx_bytes());
    if missed {
        rp_obs::counter!("core.memo.world_miss").add(1);
    } else {
        rp_obs::counter!("core.memo.world_hit").add(1);
    }
    world
}

/// Fetch or compute the probe set keyed by the text `key`.
pub(crate) fn probes_cached(key: &str, probe: impl FnOnce() -> ProbeSet) -> Arc<ProbeSet> {
    let (probes, missed) = PROBES.get_or_insert(text_fingerprint(key), key, probe, |_| 0);
    if missed {
        rp_obs::counter!("core.memo.probe_miss").add(1);
    } else {
        rp_obs::counter!("core.memo.probe_hit").add(1);
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::metrics::{MethodParams, PreparedRun, RunMetrics};
    use crate::world::WorldConfig;

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        let a = WorldConfig::test_scale(7);
        let b = WorldConfig::test_scale(7);
        let c = WorldConfig::test_scale(8);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn same_config_shares_one_world_build() {
        let cfg = WorldConfig::test_scale(4201);
        let a = World::build_cached(&cfg);
        let b = World::build_cached(&cfg);
        assert!(Arc::ptr_eq(&a, &b), "second build should be a cache hit");
    }

    #[test]
    fn cached_world_equals_direct_build() {
        let cfg = WorldConfig::test_scale(4202);
        let cached = World::build_cached(&cfg);
        let direct = World::build(&cfg);
        assert_eq!(cached.vantage, direct.vantage);
        assert_eq!(cached.contributions.inbound, direct.contributions.inbound);
        assert_eq!(cached.fingerprint(), direct.fingerprint());
        // The memo path and the uncached path agree on every run metric
        // down to the bit pattern: what a sweep task computes from reused
        // probes is what a from-scratch build and probe would give.
        let campaign = Campaign::default_paper();
        let params = MethodParams::default();
        let memo = RunMetrics::collect(&PreparedRun::probe_cached(&cfg, &campaign), &params);
        let fresh =
            RunMetrics::collect(&PreparedRun::probe(World::build(&cfg), &campaign), &params);
        for ((name, a), (_, b)) in memo.named().iter().zip(fresh.named().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: memo {a} vs fresh {b}");
        }
    }

    #[test]
    fn probe_sets_are_shared_per_world_and_campaign() {
        let cfg = WorldConfig::test_scale(4203);
        let world = World::build_cached(&cfg);
        let campaign = Campaign::default_paper();
        let a = campaign.probe_all_cached(&world);
        let b = campaign.probe_all_cached(&world);
        assert!(Arc::ptr_eq(&a, &b), "second probe should be a cache hit");
        assert_eq!(*a, campaign.probe_all(&world));
    }

    #[test]
    fn mutation_invalidates_the_key() {
        let cfg = WorldConfig::test_scale(4204);
        let pristine = World::build_cached(&cfg);
        let mut mutated = (*pristine).clone();
        let before = mutated.fingerprint();
        mutated.mark_mutated();
        assert_ne!(mutated.fingerprint(), before);
        assert_ne!(mutated.fingerprint(), pristine.fingerprint());
        // And a re-mark moves the key again: each mutation event is unique.
        let first = mutated.fingerprint();
        mutated.mark_mutated();
        assert_ne!(mutated.fingerprint(), first);
    }

    /// A test LRU over `u64` values keyed by the decimal text of `k`.
    fn small_lru() -> Lru<u64> {
        Lru::new(CACHE_CAP, probes_evicted)
    }

    fn get(cache: &Lru<u64>, k: u64, compute: impl FnOnce() -> u64) -> Arc<u64> {
        let key = k.to_string();
        cache
            .get_or_insert(text_fingerprint(&key), &key, compute, |_| 0)
            .0
    }

    #[test]
    fn forced_fingerprint_collision_misses_and_keeps_both_values() {
        // Two different key texts filed under one fingerprint: neither
        // may be served the other's value.
        let cache = small_lru();
        let (a, a_missed) = cache.get_or_insert(7, "world A", || 1, |_| 0);
        let (b, b_missed) = cache.get_or_insert(7, "world B", || 2, |_| 0);
        assert!(a_missed && b_missed, "a colliding key must miss");
        assert_eq!((*a, *b), (1, 2));
        let (a2, a2_missed) = cache.get_or_insert(7, "world A", || 99, |_| 0);
        let (b2, b2_missed) = cache.get_or_insert(7, "world B", || 99, |_| 0);
        assert!(!a2_missed && !b2_missed, "each text hits its own entry");
        assert_eq!((*a2, *b2), (1, 2));
    }

    #[test]
    fn lru_hit_protects_an_entry_from_eviction() {
        let cache = small_lru();
        for k in 0..CACHE_CAP as u64 {
            get(&cache, k, || k);
        }
        // Touching key 0 makes it most-recently-used, so the next insert
        // evicts key 1 instead.
        let hit = get(&cache, 0, || 999);
        assert_eq!(*hit, 0, "must be a hit, not a recompute");
        get(&cache, 100, || 100);
        let c = cache.lock();
        assert!(
            c.iter().any(|e| *e.key == *"0"),
            "recently used key survives"
        );
        assert!(
            !c.iter().any(|e| *e.key == *"1"),
            "oldest untouched key evicts"
        );
    }

    #[test]
    fn byte_budget_evicts_oldest_first_but_keeps_the_last_entry() {
        let pool = small_lru();
        for k in 0..4u64 {
            pool.get_or_insert(k, &k.to_string(), || k, |_| 100);
        }
        // No budget: everything under the entry cap stays.
        assert_eq!(pool.lock().len(), 4);
        // 250-byte budget: the two oldest 100-byte entries go.
        pool.max_bytes.store(250, Ordering::Relaxed);
        pool.evict_to_bounds(&mut pool.lock());
        assert_eq!(pool.lock().len(), 2);
        assert_eq!(*pool.lock().front().unwrap().value, 2);
        // A budget smaller than any single entry keeps the last survivor:
        // evicting it would only thrash rebuilds.
        pool.max_bytes.store(10, Ordering::Relaxed);
        pool.evict_to_bounds(&mut pool.lock());
        assert_eq!(pool.lock().len(), 1);
        assert_eq!(*pool.lock().front().unwrap().value, 3);
    }

    #[test]
    fn caches_stay_bounded_and_evict_oldest_first() {
        let cache = small_lru();
        for k in 0..(3 * CACHE_CAP as u64) {
            let v = get(&cache, k, || k * 10);
            assert_eq!(*v, k * 10);
        }
        let c = cache.lock();
        assert_eq!(c.len(), CACHE_CAP);
        // FIFO: only the newest CACHE_CAP keys survive.
        let oldest_kept = 3 * CACHE_CAP as u64 - CACHE_CAP as u64;
        assert!(c.iter().all(|e| *e.value >= oldest_kept * 10));
    }
}
