//! Consistent-hash ring: deterministic dataset → backend placement.
//!
//! The router shards by *dataset*, because a dataset is the unit of
//! state a daemon accumulates (prepared index, dominance cache, watch
//! subscriptions): every request for one dataset must land on the same
//! backend or the cache-reuse economics of the paper (§IV-B) evaporate
//! at the fleet level.
//!
//! # Placement, exactly
//!
//! The ring is the textbook consistent-hash construction, pinned here
//! so operators can predict (and tests can re-derive) placement:
//!
//! 1. Hash function: **FNV-1a, 64-bit** (offset basis
//!    `0xcbf29ce484222325`, prime `0x100000001b3`) over UTF-8 bytes,
//!    then the **splitmix64 finalizer** (`h ^= h >> 30; h *=
//!    0xbf58476d1ce4e5b9; h ^= h >> 27; h *= 0x94d049bb133111eb;
//!    h ^= h >> 31`). Hand-rolled because the build is offline; both
//!    stages are endian-free and stable across platforms, so a
//!    placement computed on one machine holds on any other. The
//!    finalizer is load-bearing: raw FNV-1a barely avalanches its
//!    trailing bytes, so sequentially-named datasets (`run@300`,
//!    `run@301`, …) hash into one sliver of the ring and pile onto a
//!    single backend — the mixer spreads exactly that common case.
//! 2. Each backend address `a` contributes `virtual_nodes` points at
//!    `place_hash("{a}#{i}")` for `i` in `0..virtual_nodes`.
//! 3. A dataset named `d` hashes to `h = place_hash(d)` (the raw name,
//!    no suffix) and is owned by the backend of the **first vnode
//!    clockwise**: the smallest vnode hash `>= h`, wrapping to the
//!    ring's smallest hash when none is.
//! 4. Vnode hash collisions (astronomically unlikely at 64 bits) are
//!    broken by backend address order, lexicographically — still
//!    deterministic.
//!
//! The ring is **static**: built once from the configured backend list
//! and never rebalanced at runtime. A dead backend keeps its arcs and
//! its datasets answer typed `503 unavailable` until it returns —
//! remapping them to survivors would land requests on daemons that
//! never registered the dataset and (worse) silently fork append
//! streams. Scale-out is a config change and a restart, which is when
//! placement is allowed to move.

/// 64-bit FNV-1a over raw bytes. Stable, dependency-free, and fast
/// enough to hash a dataset name per request without showing up in a
/// profile.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The splitmix64 finalizer: full-width avalanche over a 64-bit state.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// The ring's point hash: `mix64(fnv1a64(key))`. FNV-1a alone leaves
/// trailing-byte differences nearly adjacent on the ring (a one-digit
/// name change moves the hash by roughly one multiple of the FNV
/// prime), which defeats vnode spreading for sequentially-named
/// datasets; the finalizer restores uniformity.
pub fn place_hash(key: &str) -> u64 {
    mix64(fnv1a64(key.as_bytes()))
}

/// The static consistent-hash ring over backend addresses.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Backend addresses in configuration order.
    backends: Vec<String>,
    /// `(vnode hash, backend index)`, sorted by hash then index.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds the ring: `virtual_nodes` points per backend, placed at
    /// `fnv1a64("{addr}#{replica}")`. Callers guarantee a non-empty,
    /// duplicate-free backend list and `virtual_nodes >= 1`
    /// ([`RouterConfig::validate`](crate::router::RouterConfig::validate)
    /// checks both).
    pub fn new(backends: &[String], virtual_nodes: usize) -> HashRing {
        assert!(!backends.is_empty(), "ring needs at least one backend");
        assert!(virtual_nodes >= 1, "ring needs at least one vnode");
        let mut points = Vec::with_capacity(backends.len() * virtual_nodes);
        for (index, addr) in backends.iter().enumerate() {
            for replica in 0..virtual_nodes {
                points.push((place_hash(&format!("{addr}#{replica}")), index));
            }
        }
        // Ties (same vnode hash) break by backend order — deterministic
        // either way.
        points.sort_unstable();
        HashRing {
            backends: backends.to_vec(),
            points,
        }
    }

    /// The backend addresses, in configuration order.
    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// Index (into [`HashRing::backends`]) of the backend owning this
    /// dataset: first vnode clockwise from `fnv1a64(dataset)`.
    pub fn owner_index(&self, dataset: &str) -> usize {
        let h = place_hash(dataset);
        let at = self.points.partition_point(|&(p, _)| p < h);
        let (_, index) = self.points[if at == self.points.len() { 0 } else { at }];
        index
    }

    /// Address of the backend owning this dataset.
    pub fn owner(&self, dataset: &str) -> &str {
        &self.backends[self.owner_index(dataset)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7071")).collect()
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        // Reference values for the canonical 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn place_hash_is_pinned() {
        // The documented two-stage construction, frozen: operators
        // re-derive placement from these numbers.
        assert_eq!(place_hash(""), 0xf52a_15e9_a9b5_e89b);
        assert_eq!(place_hash("foobar"), 0x404d_a9e3_b740_78c2);
        assert_eq!(place_hash("SW1@600"), 0x4f4c_87a7_7a3b_ba7c);
    }

    #[test]
    fn sequentially_named_datasets_spread_across_backends() {
        // Raw FNV-1a leaves `name@300`..`name@315` nearly adjacent on
        // the ring (trailing bytes barely avalanche), piling all of
        // them onto one backend; the finalizer must spread them.
        let ring = HashRing::new(&addrs(2), 64);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for i in 0..16 {
            *counts
                .entry(ring.owner(&format!("SW1@{}", 300 + i)))
                .or_default() += 1;
        }
        assert_eq!(
            counts.len(),
            2,
            "sequential names all landed on one backend: {counts:?}"
        );
    }

    #[test]
    fn placement_is_deterministic_across_constructions() {
        let a = HashRing::new(&addrs(3), 64);
        let b = HashRing::new(&addrs(3), 64);
        for i in 0..200 {
            let ds = format!("dataset-{i}");
            assert_eq!(a.owner(&ds), b.owner(&ds));
        }
    }

    #[test]
    fn vnodes_spread_ownership_across_backends() {
        let ring = HashRing::new(&addrs(3), 64);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for i in 0..3000 {
            *counts.entry(ring.owner(&format!("ds-{i}"))).or_default() += 1;
        }
        assert_eq!(counts.len(), 3, "every backend owns something");
        // With 64 vnodes the split is coarse but nobody should hold
        // almost everything or almost nothing.
        for (&addr, &n) in &counts {
            assert!(
                (300..=2000).contains(&n),
                "{addr} owns {n} of 3000 — vnode spread is broken"
            );
        }
    }

    #[test]
    fn removing_one_backend_only_remaps_its_own_datasets() {
        // The consistency property that justifies the construction: a
        // 3-backend ring and the 2-backend ring with the third removed
        // agree on every dataset the removed backend did not own.
        let three = HashRing::new(&addrs(3), 64);
        let removed = &addrs(3)[2];
        let two = HashRing::new(&addrs(2), 64);
        let mut moved = 0usize;
        for i in 0..2000 {
            let ds = format!("ds-{i}");
            if three.owner(&ds) == removed {
                moved += 1;
            } else {
                assert_eq!(three.owner(&ds), two.owner(&ds), "{ds} moved needlessly");
            }
        }
        assert!(moved > 0, "the removed backend owned nothing — bad spread");
    }

    #[test]
    fn owner_wraps_past_the_largest_vnode() {
        // A single backend with a single vnode owns everything,
        // including datasets hashing above its vnode point.
        let ring = HashRing::new(&["only:1".to_string()], 1);
        for ds in ["a", "zzz", "SW1@600", "cF_10k_5N@600"] {
            assert_eq!(ring.owner(ds), "only:1");
        }
    }
}
