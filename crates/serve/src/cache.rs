//! Size-bounded LRU of instrumented modules, shared by every worker.
//!
//! Entries are `Arc`ed [`Image`]s keyed by the 128-bit content hash from
//! [`crate::proto::cache_key`]. The image inside an entry carries its
//! translation, so a hit reuses the translated ops as well —
//! a warm request touches no frontend, lowering, instrumentation,
//! optimization, or translation code at all.
//!
//! Eviction never invalidates in-flight work: the cache only drops its
//! *own* `Arc` strong count, so a worker holding an entry across an
//! eviction keeps a fully live image until it finishes (property-tested
//! in `crate::tests`).
//!
//! Poison-recovery policy (DESIGN §11): the map mutex is only held for
//! pure map manipulation — no user code runs under it — so a panic while
//! holding it cannot leave a half-applied state worse than a missing or
//! stale entry. Every lock therefore recovers the guard from a poisoned
//! mutex instead of unwrapping, the same policy as the telemetry sink.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rsti_core::InstrumentStats;
use rsti_vm::Image;

/// One cached module: the shared image plus the instrumentation stats
/// reported back on both cold and warm `compile` responses.
#[derive(Debug)]
pub struct CacheEntry {
    /// The content-hash key this entry lives under.
    pub key: u128,
    /// The instrumented and pre-translated image. Cloning the `Arc` is
    /// the whole point: hits share it.
    pub img: Arc<Image>,
    /// Instrumentation-site counters (`None` for the baseline).
    pub instr: Option<InstrumentStats>,
}

struct Slot {
    entry: Arc<CacheEntry>,
    last_used: u64,
}

/// The shared module cache. All methods take `&self`; the internal map is
/// mutex-guarded and safe to call from any worker.
pub struct ModuleCache {
    cap: usize,
    tick: AtomicU64,
    map: Mutex<HashMap<u128, Slot>>,
}

impl ModuleCache {
    /// A cache holding at most `cap` entries (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        ModuleCache { cap: cap.max(1), tick: AtomicU64::new(0), map: Mutex::new(HashMap::new()) }
    }

    fn guard(&self) -> MutexGuard<'_, HashMap<u128, Slot>> {
        self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Capacity bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn get(&self, key: u128) -> Option<Arc<CacheEntry>> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.guard();
        map.get_mut(&key).map(|slot| {
            slot.last_used = now;
            Arc::clone(&slot.entry)
        })
    }

    /// Inserts `entry`, evicting least-recently-used entries down to
    /// capacity. Returns how many entries were evicted. If two workers
    /// race to build the same key, the later insert wins — both images
    /// are equivalent (the build is a pure function of the key), so the
    /// only cost is the duplicated build work.
    pub fn insert(&self, entry: Arc<CacheEntry>) -> u64 {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.guard();
        map.insert(entry.key, Slot { entry, last_used: now });
        let mut evicted = 0;
        while map.len() > self.cap {
            // Oldest `last_used` first; ties (impossible with the atomic
            // tick, but cheap to pin down) break toward the smaller key
            // so eviction order is deterministic.
            let victim = map
                .iter()
                .map(|(k, s)| (s.last_used, *k))
                .min()
                .map(|(_, k)| k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: u128) -> Arc<CacheEntry> {
        let module = rsti_frontend::compile("int main() { return 0; }", "<cache-test>").unwrap();
        Arc::new(CacheEntry { key, img: Arc::new(Image::baseline(&module)), instr: None })
    }

    #[test]
    fn lru_evicts_the_least_recently_used_key() {
        let cache = ModuleCache::new(2);
        cache.insert(entry(1));
        cache.insert(entry(2));
        assert!(cache.get(1).is_some(), "freshen key 1 so key 2 is now LRU");
        let evicted = cache.insert(entry(3));
        assert_eq!(evicted, 1);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none(), "key 2 was least recently used");
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_does_not_invalidate_held_entries() {
        let cache = ModuleCache::new(1);
        cache.insert(entry(10));
        let held = cache.get(10).expect("just inserted");
        cache.insert(entry(11)); // evicts key 10 from the cache...
        assert!(cache.get(10).is_none());
        // ...but the held Arc keeps the image alive and runnable.
        let mut vm = rsti_vm::Vm::new(&held.img);
        let r = vm.run();
        assert_eq!(r.status, rsti_vm::Status::Exited(0));
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one() {
        let cache = ModuleCache::new(0);
        cache.insert(entry(1));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(1).is_some());
    }
}
