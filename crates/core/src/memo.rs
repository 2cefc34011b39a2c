//! Content-addressed memoization of world builds and campaign probes.
//!
//! Building a [`World`] and probing it are by far the
//! most expensive steps in the pipeline, and several callers repeat them
//! with identical inputs: `repro check` builds the same world for its clean
//! and faulted arms, the sweep engine re-derives the same replicate seeds
//! across presets, and `repro all` re-enters the detection report per
//! experiment group. Both artifacts are pure functions of their
//! configuration, so they are cached here under a *content address*: the
//! FNV-1a 64 fingerprint of the configuration's derived `Debug` text (see
//! [`fingerprint`] for why that text is canonical).
//!
//! Keying rules:
//!
//! - A world's key is the fingerprint of its
//!   [`WorldConfig`](crate::world::WorldConfig)
//!   (which embeds the seed, so "same knobs, different seed" never
//!   collides by construction).
//! - A probe set's key is the pair `(world key, campaign fingerprint)`.
//! - Mutating a cached world in place (fault injection, invariant probes)
//!   must go through [`World::mark_mutated`],
//!   which swaps the key for a process-unique nonce: the mutated world can
//!   still be probed, but its results are filed under the nonce and can
//!   never be confused with the pristine build.
//!
//! The probe cache is a small bounded LRU (eight entries — enough to keep
//! a sweep preset's replicate set resident) guarded by a plain mutex. The
//! world cache is the **world pool**: the same LRU discipline, but with a
//! configurable entry cap and an optional byte budget
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
use std::sync::{Arc, Mutex, OnceLock};

/// Raw per-IXP campaign output, as produced by
/// [`Campaign::probe_all`](crate::campaign::Campaign::probe_all): one
/// dense struct-of-arrays [`ProbePlane`] per studied IXP.
pub type ProbeSet = Vec<(IxpId, ProbePlane)>;

/// Entries kept per cache. A sweep preset probes at most a handful of
/// distinct worlds per replicate seed; eight slots keep a full replicate
/// set resident without letting a long campaign pin unbounded memory.
const CACHE_CAP: usize = 8;

/// FNV-1a 64 fingerprint of a configuration's `Debug` encoding.
///
/// The derived `Debug` output is canonical enough here: the config structs
/// are plain field structs of scalars, strings, and nested config structs,
/// so equal values render identical text (floats included — Rust's float
/// formatting is the exact shortest round-trip form). Only ever hash plain
/// data this way; anything whose `Debug` prints addresses or other
/// run-varying state would break the content addressing.
pub fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
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
    use std::fmt::Write;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("the FNV sink never errors");
    h.0
}

/// A process-unique key that can never hit the cache again.
///
/// The high bit tags nonces apart from JSON fingerprints in debug output;
/// correctness only needs the counter's uniqueness.
pub(crate) fn mutation_nonce() -> u64 {
    static NONCE: AtomicU64 = AtomicU64::new(1);
    (1 << 63) | NONCE.fetch_add(1, Ordering::Relaxed)
}

/// A bounded LRU of `(key, shared value)` pairs behind a mutex. The back
/// of the deque is most-recently-used; eviction pops the front.
type LruCache<K, V> = Mutex<VecDeque<(K, Arc<V>)>>;

/// The world pool: LRU entries annotated with their estimated resident
/// size so the byte budget can evict by weight, not just count.
struct WorldPool {
    entries: Mutex<VecDeque<(u64, Arc<World>, u64)>>,
    /// Entry cap (always >= 1).
    max_entries: AtomicUsize,
    /// Byte budget; 0 means "entry cap only".
    max_bytes: AtomicU64,
}

fn world_pool() -> &'static WorldPool {
    static POOL: OnceLock<WorldPool> = OnceLock::new();
    POOL.get_or_init(|| WorldPool {
        entries: Mutex::new(VecDeque::new()),
        max_entries: AtomicUsize::new(CACHE_CAP),
        max_bytes: AtomicU64::new(0),
    })
}

/// Configure the world pool's bounds: an entry cap and an optional byte
/// budget over [`World::approx_bytes`] estimates. The default is the
/// eight-entry cap with no byte budget — right for one-shot CLI runs;
/// `repro serve` raises the entry cap and sets a budget so a long-lived
/// process bounds its resident set by memory, not by a guess at how many
/// distinct configs its clients rotate through. Shrinking the bounds
/// evicts immediately (oldest first). Purely a performance knob: cached
/// and freshly built worlds are bit-identical.
pub fn configure_world_pool(max_entries: usize, max_bytes: Option<u64>) {
    let pool = world_pool();
    pool.max_entries
        .store(max_entries.max(1), Ordering::Relaxed);
    pool.max_bytes
        .store(max_bytes.unwrap_or(0), Ordering::Relaxed);
    let mut entries = pool.entries.lock().expect("memo cache lock");
    evict_to_bounds(pool, &mut entries);
}

/// Resident world-pool load: `(entries, estimated bytes)`.
pub fn world_pool_stats() -> (usize, u64) {
    let entries = world_pool().entries.lock().expect("memo cache lock");
    let bytes = entries.iter().map(|(_, _, b)| b).sum();
    (entries.len(), bytes)
}

/// Look up a resident world by content address without building on a
/// miss. The pool's entries double as *snapshot parents* for
/// [`World::fork`]: a long-running server job that wants to perturb a
/// hot world forks the pooled snapshot (refcount bumps) instead of
/// rebuilding, and the fork's incremental probe finds the parent's probe
/// set under the same address. A hit counts as a use (moves the entry to
/// most-recently-used).
pub fn world_snapshot(fp: u64) -> Option<Arc<World>> {
    let pool = world_pool();
    let mut entries = pool.entries.lock().expect("memo cache lock");
    let pos = entries.iter().position(|(k, _, _)| *k == fp)?;
    let entry = entries.remove(pos).expect("position came from this deque");
    let world = entry.1.clone();
    entries.push_back(entry);
    Some(world)
}

/// Drop least-recently-used entries until both bounds hold. The byte
/// budget never evicts the last entry: a single world larger than the
/// budget still caches (evicting it would just thrash rebuilds).
fn evict_to_bounds(pool: &WorldPool, entries: &mut VecDeque<(u64, Arc<World>, u64)>) {
    let max_entries = pool.max_entries.load(Ordering::Relaxed).max(1);
    let max_bytes = pool.max_bytes.load(Ordering::Relaxed);
    let mut total: u64 = entries.iter().map(|(_, _, b)| b).sum();
    while entries.len() > max_entries || (max_bytes > 0 && total > max_bytes && entries.len() > 1) {
        if let Some((_, _, b)) = entries.pop_front() {
            total -= b;
            rp_obs::counter!("core.memo.world_evict").add(1);
        }
    }
    rp_obs::gauge!("core.memo.world_bytes").record_max(total);
}

fn probe_cache() -> &'static LruCache<(u64, u64), ProbeSet> {
    static CACHE: OnceLock<LruCache<(u64, u64), ProbeSet>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Look `key` up in `cache`, computing (outside the lock) and inserting on
/// a miss; hits move to the back (most-recently-used). On a concurrent
/// double-compute the first inserter wins and the second copy is dropped —
/// both are deterministic, so either is correct.
fn get_or_insert<K: Eq + Copy, V>(
    cache: &LruCache<K, V>,
    key: K,
    compute: impl FnOnce() -> V,
) -> Arc<V> {
    if let Some(hit) = lru_find(&mut cache.lock().expect("memo cache lock"), key) {
        return hit;
    }
    let value = Arc::new(compute());
    let mut c = cache.lock().expect("memo cache lock");
    if let Some(raced) = lru_find(&mut c, key) {
        return raced;
    }
    while c.len() >= CACHE_CAP {
        c.pop_front();
    }
    c.push_back((key, value.clone()));
    value
}

/// Find `key`, moving its entry to the most-recently-used position.
fn lru_find<K: Eq + Copy, V>(entries: &mut VecDeque<(K, Arc<V>)>, key: K) -> Option<Arc<V>> {
    let pos = entries.iter().position(|(k, _)| *k == key)?;
    let entry = entries.remove(pos).expect("position came from this deque");
    let value = entry.1.clone();
    entries.push_back(entry);
    Some(value)
}

/// Fetch or build the world keyed `fp` (the fingerprint of its config).
pub(crate) fn world_cached(fp: u64, build: impl FnOnce() -> World) -> Arc<World> {
    let pool = world_pool();
    {
        let mut entries = pool.entries.lock().expect("memo cache lock");
        if let Some(pos) = entries.iter().position(|(k, _, _)| *k == fp) {
            let entry = entries.remove(pos).expect("position came from this deque");
            let world = entry.1.clone();
            entries.push_back(entry);
            rp_obs::counter!("core.memo.world_hit").add(1);
            return world;
        }
    }
    let world = Arc::new(build());
    let bytes = world.approx_bytes();
    let mut entries = pool.entries.lock().expect("memo cache lock");
    if let Some(pos) = entries.iter().position(|(k, _, _)| *k == fp) {
        let entry = entries.remove(pos).expect("position came from this deque");
        let raced = entry.1.clone();
        entries.push_back(entry);
        rp_obs::counter!("core.memo.world_hit").add(1);
        return raced;
    }
    entries.push_back((fp, world.clone(), bytes));
    evict_to_bounds(pool, &mut entries);
    drop(entries);
    rp_obs::counter!("core.memo.world_miss").add(1);
    world
}

/// Look up the probe set keyed `(world key, campaign key)` without
/// computing on a miss. This is how a fork finds its parent's probe set
/// to seed [`Campaign::probe_all_incremental`](crate::Campaign::probe_all_incremental):
/// the world pool keeps snapshot parents resident across jobs, and their
/// probe sets sit here under the parent's content address.
pub(crate) fn probes_lookup(key: (u64, u64)) -> Option<Arc<ProbeSet>> {
    lru_find(&mut probe_cache().lock().expect("memo cache lock"), key)
}

/// Fetch or compute the probe set keyed `(world key, campaign key)`.
pub(crate) fn probes_cached(key: (u64, u64), probe: impl FnOnce() -> ProbeSet) -> Arc<ProbeSet> {
    let mut missed = false;
    let probes = get_or_insert(probe_cache(), key, || {
        missed = true;
        probe()
    });
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

    #[test]
    fn lru_hit_protects_an_entry_from_eviction() {
        let cache: Mutex<VecDeque<(u64, Arc<u64>)>> = Mutex::new(VecDeque::new());
        for k in 0..CACHE_CAP as u64 {
            get_or_insert(&cache, k, || k);
        }
        // Touching key 0 makes it most-recently-used, so the next insert
        // evicts key 1 instead.
        let hit = get_or_insert(&cache, 0, || 999);
        assert_eq!(*hit, 0, "must be a hit, not a recompute");
        get_or_insert(&cache, 100, || 100);
        let c = cache.lock().unwrap();
        assert!(c.iter().any(|(k, _)| *k == 0), "recently used key survives");
        assert!(
            !c.iter().any(|(k, _)| *k == 1),
            "oldest untouched key evicts"
        );
    }

    #[test]
    fn byte_budget_evicts_oldest_first_but_keeps_the_last_entry() {
        let world = Arc::new(World::build(&WorldConfig::test_scale(4301)));
        assert!(world.approx_bytes() > 0);
        let pool = WorldPool {
            entries: Mutex::new(VecDeque::new()),
            max_entries: AtomicUsize::new(8),
            max_bytes: AtomicU64::new(0),
        };
        let mut e = pool.entries.lock().unwrap();
        for k in 0..4u64 {
            e.push_back((k, world.clone(), 100));
        }
        // No budget: everything under the entry cap stays.
        evict_to_bounds(&pool, &mut e);
        assert_eq!(e.len(), 4);
        // 250-byte budget: the two oldest 100-byte entries go.
        pool.max_bytes.store(250, Ordering::Relaxed);
        evict_to_bounds(&pool, &mut e);
        assert_eq!(e.len(), 2);
        assert_eq!(e.front().unwrap().0, 2);
        // A budget smaller than any single entry keeps the last survivor:
        // evicting it would only thrash rebuilds.
        pool.max_bytes.store(10, Ordering::Relaxed);
        evict_to_bounds(&pool, &mut e);
        assert_eq!(e.len(), 1);
        assert_eq!(e.front().unwrap().0, 3);
    }

    #[test]
    fn caches_stay_bounded_and_evict_oldest_first() {
        let cache: Mutex<VecDeque<(u64, Arc<u64>)>> = Mutex::new(VecDeque::new());
        for k in 0..(3 * CACHE_CAP as u64) {
            let v = get_or_insert(&cache, k, || k * 10);
            assert_eq!(*v, k * 10);
        }
        let c = cache.lock().unwrap();
        assert_eq!(c.len(), CACHE_CAP);
        // FIFO: only the newest CACHE_CAP keys survive.
        let oldest_kept = 3 * CACHE_CAP as u64 - CACHE_CAP as u64;
        assert!(c.iter().all(|(k, _)| *k >= oldest_kept));
    }
}
