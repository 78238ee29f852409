//! Store-reader totality properties (seed-replayable via the proptest
//! shim's `VBP_PROPTEST_SEED`), mirroring the service's
//! `protocol_props.rs` for the on-disk surface.
//!
//! The store's contract is that *no* sequence of bytes read from disk
//! may panic a reader or smuggle an invalid snapshot past validation —
//! corruption must always come back as a typed [`StoreError`]. Three
//! hostile layers:
//!
//! 1. arbitrary byte soup through every decoder entry point;
//! 2. every strict truncation of a valid snapshot file;
//! 3. single-bit flips anywhere in a valid snapshot file, which the
//!    two-layer CRC design (header CRC over magic + directory, per-
//!    section CRCs over payloads) must always catch.

use proptest::collection;
use proptest::prelude::*;
use proptest::proptest;
use vbp_geom::Point2;
use vbp_rtree::SharedPoints;
use vbp_store::{
    decode_cache_records, section_id, ByteWriter, CacheRecord, Container, ContainerWriter,
    DatasetMeta, DatasetSnapshot, IndexSnapshot,
};

/// A structurally valid index snapshot over `coords` (decode-level
/// validity: bijective permutation, finite points, sane parameters).
fn valid_index(coords: &[(f64, f64)]) -> IndexSnapshot {
    let points: SharedPoints = coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
    let n = points.len();
    // A rotation is a cheap non-trivial bijection.
    let permutation: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n.max(1) as u32).collect();
    IndexSnapshot {
        points,
        permutation,
        chosen_r: 2,
        fanout: 16,
        build_time_ns: 1_000,
        appended_since_sort: 0,
    }
}

/// A complete, valid dataset snapshot.
fn valid_snapshot(coords: &[(f64, f64)], with_cache: bool) -> DatasetSnapshot {
    let index = valid_index(coords);
    let cache = if with_cache && !coords.is_empty() {
        // All-noise labels are trivially finished and dense.
        vec![CacheRecord {
            eps: 0.5,
            minpts: 4,
            labels: vec![u32::MAX; coords.len()],
        }]
    } else {
        Vec::new()
    };
    DatasetSnapshot {
        meta: DatasetMeta {
            name: "props_ds".to_string(),
            suggested_eps: Some(0.25),
        },
        index,
        cache,
    }
}

/// A complete, valid, encoded dataset snapshot file.
fn valid_file(coords: &[(f64, f64)], with_cache: bool) -> Vec<u8> {
    valid_snapshot(coords, with_cache).encode()
}

/// `current` as older versions wrote it after tuning `r`: the index
/// meta flag byte (its last) set to 1 and a `TUNE` section (best `r`,
/// sample size, then `(r, ns)` timings) after the permutation. The
/// current writer emits neither.
fn legacy_tuned_file(current: &[u8], r: usize, n: usize) -> Vec<u8> {
    let c = Container::parse(current.to_vec()).expect("valid file");
    let mut tune = ByteWriter::new();
    tune.u64(r as u64);
    tune.u64(n as u64);
    tune.u64(2);
    for (r, ns) in [(r as u64, 10_000), (1, 25_000)] {
        tune.u64(r);
        tune.u64(ns);
    }
    let mut tune = Some(tune.finish());
    let mut w = ContainerWriter::new();
    for info in c.sections() {
        let mut payload = c.section(info.id).expect("listed section").to_vec();
        if info.id == section_id::INDEX_META {
            *payload.last_mut().expect("flag byte") = 1;
        }
        w.section(info.id, payload);
        if info.id == section_id::PERMUTATION {
            w.section(section_id::TUNE, tune.take().expect("one permutation"));
        }
    }
    w.finish()
}

/// The file the property runs on: the current writer's, or the legacy
/// tuned shape of the same snapshot.
fn some_file(coords: &[(f64, f64)], legacy: bool, with_cache: bool) -> Vec<u8> {
    let current = valid_file(coords, with_cache);
    if legacy {
        legacy_tuned_file(&current, 2, coords.len())
    } else {
        current
    }
}

/// Every decoder entry point, driven over the same byte slice. Panics
/// (not `Err`s) propagate and fail the property.
fn exercise_all_readers(bytes: &[u8]) {
    let _ = Container::parse(bytes.to_vec());
    let _ = DatasetSnapshot::decode(bytes);
    let _ = IndexSnapshot::decode(bytes);
    let _ = decode_cache_records(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Layer 1: pure byte soup. No decoder may panic, whatever arrives.
    #[test]
    fn readers_are_total_on_byte_soup(bytes in collection::vec(any::<u8>(), 0..512)) {
        exercise_all_readers(&bytes);
    }

    /// Layer 1b: byte soup wearing the right magic and version, so the
    /// directory and section parsers actually run instead of bailing at
    /// the first header check.
    #[test]
    fn readers_are_total_behind_a_valid_magic(bytes in collection::vec(any::<u8>(), 0..512)) {
        let mut framed = b"VBPSTORE\x01\x00\x00\x00".to_vec();
        framed.extend_from_slice(&bytes);
        exercise_all_readers(&framed);
    }

    /// Layer 2: every strict truncation of a valid file is rejected with
    /// a typed error — a partial write can never restore as a smaller
    /// snapshot.
    #[test]
    fn truncations_always_fail_typed(
        coords in collection::vec((-1e6f64..1e6, -1e6f64..1e6), 1..24),
        legacy in any::<bool>(),
        cut in any::<u32>(),
    ) {
        let full = some_file(&coords, legacy, true);
        prop_assert!(DatasetSnapshot::decode(&full).is_ok());
        let cut = cut as usize % full.len();
        let truncated = &full[..cut];
        exercise_all_readers(truncated);
        let err = DatasetSnapshot::decode(truncated);
        prop_assert!(err.is_err(), "truncation to {} of {} bytes decoded", cut, full.len());
        prop_assert!(!err.unwrap_err().to_string().is_empty());
    }

    /// Layer 3: a single flipped bit anywhere in the file always fails a
    /// checksum (or an even earlier structural check) — never decodes,
    /// never panics. This is the load-bearing property of the two-layer
    /// CRC design: payload flips fail the section CRC, directory and
    /// header flips (including flips *of* the stored CRCs) fail the
    /// header CRC.
    #[test]
    fn single_bit_flips_always_fail_typed(
        coords in collection::vec((-1e6f64..1e6, -1e6f64..1e6), 1..16),
        with_cache in any::<bool>(),
        flip in any::<u32>(),
    ) {
        let full = valid_file(&coords, with_cache);
        let bit = flip as usize % (full.len() * 8);
        let mut mutated = full.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        exercise_all_readers(&mutated);
        let err = DatasetSnapshot::decode(&mutated);
        prop_assert!(err.is_err(), "bit flip at {} of {} bytes decoded", bit, full.len() * 8);
        prop_assert!(!err.unwrap_err().to_string().is_empty());
    }

    /// Valid files keep round-tripping under arbitrary coordinates: the
    /// encode → decode → encode cycle is byte-stable, so repeated
    /// persists of unchanged state produce identical files. A legacy
    /// tuned file decodes to the same points, permutation and `r` as the
    /// current one and re-encodes without its `TUNE` section.
    #[test]
    fn roundtrip_is_byte_stable(
        coords in collection::vec((-1e6f64..1e6, -1e6f64..1e6), 1..24),
        legacy in any::<bool>(),
        with_cache in any::<bool>(),
    ) {
        let snap = valid_snapshot(&coords, with_cache);
        let full = snap.encode();
        let decoded = DatasetSnapshot::decode(&some_file(&coords, legacy, with_cache))
            .expect("valid file decodes");
        prop_assert_eq!(&decoded, &snap);
        prop_assert_eq!(decoded.encode(), full);
        // The index-only file shape round-trips byte-stably too.
        let index_bytes = decoded.index.encode();
        let index = IndexSnapshot::decode(&index_bytes).expect("valid index decodes");
        prop_assert_eq!(index.encode(), index_bytes);
    }
}
