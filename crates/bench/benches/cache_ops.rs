//! Microbenchmarks of the cache substrate: single-array operations and
//! full hierarchy traversals under each inclusion policy.

use bench::micro::Group;
use cache_sim::{
    Cache, CacheConfig, DeepHierarchy, HierarchyConfig, InclusionPolicy, ReplacementPolicy,
    Traversal,
};

fn single_cache() {
    let g = Group::new("cache", 1);
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Srrip,
    ] {
        let mut cache = Cache::new(CacheConfig {
            capacity_bytes: 512 << 10,
            assoc: 16,
            block_bytes: 64,
            policy,
        });
        // Warm with a resident working set.
        for b in 0..4096u64 {
            cache.fill(b, false);
        }
        let mut x = 0u64;
        g.bench(&format!("{policy:?}_hit"), || {
            x = (x + 1) % 4096;
            cache.access(x, false)
        });
        let mut y = 1u64 << 32;
        g.bench(&format!("{policy:?}_fill_evict"), || {
            y += 1;
            cache.fill(y, false)
        });
    }
}

fn hierarchy_walks() {
    let g = Group::new("hierarchy", 1);
    for policy in [
        InclusionPolicy::Inclusive,
        InclusionPolicy::Exclusive,
        InclusionPolicy::Hybrid,
    ] {
        let cfg = HierarchyConfig {
            cores: 2,
            private_levels: vec![
                CacheConfig::lru(32 << 10, 4, 64),
                CacheConfig::lru(256 << 10, 8, 64),
                CacheConfig::lru(512 << 10, 16, 64),
            ],
            shared_llc: CacheConfig::lru(8 << 20, 16, 64),
            policy,
        };
        let mut h = DeepHierarchy::new(&cfg);
        let mut t = Traversal::new();
        let mut x = 0x9e37_79b9u64;
        g.bench(&format!("{policy:?}_demand_mixed"), || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 75% hot (32 KB), 25% cold sweep.
            let block = if !x.is_multiple_of(4) {
                x % 512
            } else {
                (1 << 24) + (x >> 40)
            };
            let core = (x % 2) as usize;
            t.clear();
            if !h.access_first(core, block, false, &mut t) {
                let mut hit = false;
                for lvl in 1..h.levels() {
                    if h.lookup(core, lvl, block, &mut t) {
                        h.promote(core, lvl, block, false, &mut t);
                        hit = true;
                        break;
                    }
                }
                if !hit {
                    h.fill_from_memory(core, block, false, &mut t);
                }
            }
            t.hit_level
        });
    }
}

/// Steady-state memory fills on the full 8-core Demo inclusive hierarchy
/// with a warm, full LLC, so every fill evicts an LLC line and
/// back-invalidates it. `disjoint`: each core has its own address space
/// (the paper's multi-programmed setup), so a victim's sharer mask names
/// one core. `shared`: every warm line was promoted into all 8 cores, so
/// each victim's mask names every core — the worst case, which visits all
/// 8 × 3 private arrays. A sample is a batch of half the LLC's lines
/// filled round-robin from the cores, every one evicting a warm line;
/// read the Melem/s column as millions of fills per second.
fn back_invalidation() {
    let platform = energy_model::presets::demo_scale();
    let level = |l: &energy_model::CacheSpec| CacheConfig::lru(l.capacity_bytes, l.assoc, 64);
    let (llc, private) = platform.levels.split_last().expect("levels");
    let cfg = HierarchyConfig {
        cores: platform.cores,
        private_levels: private.iter().map(level).collect(),
        shared_llc: level(llc),
        policy: InclusionPolicy::Inclusive,
    };
    let cores = cfg.cores as u64;
    let llc_lines = llc.capacity_bytes / 64;
    let batch = llc_lines / 2;
    let g = Group::new("back_invalidation", batch);
    for shared in [false, true] {
        // Core `c`'s `n`-th block; sequential `n` spreads over the sets.
        let block = move |c: u64, n: u64| if shared { n } else { (c << 38) | n };
        let mut warm = DeepHierarchy::new(&cfg);
        let mut t = Traversal::new();
        let llc_level = warm.llc_level();
        for n in 0..llc_lines {
            let owner = n % cores;
            t.clear();
            warm.fill_from_memory(owner as usize, block(owner, n), false, &mut t);
            if shared {
                for c in (0..cores).filter(|&c| c != owner) {
                    t.clear();
                    assert!(warm.lookup(c as usize, llc_level, n, &mut t));
                    warm.promote(c as usize, llc_level, n, false, &mut t);
                }
            }
        }
        let name = if shared {
            "fill_evict_shared"
        } else {
            "fill_evict_disjoint"
        };
        g.bench_with_setup(
            name,
            || warm.clone(),
            |mut h| {
                let mut t = Traversal::new();
                for n in llc_lines..llc_lines + batch {
                    let c = n % cores;
                    t.clear();
                    h.fill_from_memory(c as usize, block(c, n), false, &mut t);
                }
                t.removed.len()
            },
        );
    }
}

fn main() {
    single_cache();
    hierarchy_walks();
    back_invalidation();
}
