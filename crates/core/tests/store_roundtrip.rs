//! Warm-state store round-trip equivalence suite.
//!
//! The contract under test: a [`PreparedIndex`] that went through the
//! store (`snapshot` → bytes → `restore`) is *indistinguishable* from
//! the original handle —
//!
//! 1. **Byte-stable**: snapshot → restore → snapshot is byte-identical,
//!    pinning the container format against accidental drift;
//! 2. **Bit-identical labels**: every variant clustered over the
//!    restored handle produces exactly the raw label vector (not merely
//!    an isomorphic one) and exactly the `chosen_r` the original does;
//! 3. **Generation-proof**: both append branches (in-place maintain and
//!    the `APPEND_RESORT_FRACTION` full re-sort) survive the round
//!    trip, as does an explicit [`Engine::resort_prepared`] flush.

use variantdbscan::{Engine, EngineConfig, PreparedIndex, RunRequest, Variant, VariantSet};
use vbp_geom::Point2;

/// Deterministic clustered cloud (no RNG: fixed LCG) with a few dense
/// blobs plus scattered background.
fn cloud(n: usize, seed: u64) -> Vec<Point2> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let centers = [(2.0, 2.5), (7.0, 6.5), (4.5, 8.0)];
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                Point2::new(next() * 10.0, next() * 10.0)
            } else {
                let (cx, cy) = centers[i % centers.len()];
                Point2::new(cx + next() * 0.8, cy + next() * 0.8)
            }
        })
        .collect()
}

fn variants() -> VariantSet {
    VariantSet::new(vec![
        Variant::new(0.3, 4),
        Variant::new(0.5, 4),
        Variant::new(0.5, 8),
        Variant::new(0.9, 3),
    ])
}

/// Points per leaf for most of the suite: not the default, so the round
/// trip has to carry `r` rather than fall back to it.
const R: usize = 30;

fn engine() -> Engine {
    Engine::new(EngineConfig::default().with_r(R))
}

fn roundtrip(index: &PreparedIndex) -> PreparedIndex {
    let bytes = index.snapshot_bytes();
    let restored = PreparedIndex::restore(&mut bytes.as_slice()).unwrap();
    assert_eq!(
        restored.snapshot_bytes(),
        bytes,
        "snapshot → restore → snapshot must be byte-identical"
    );
    restored
}

/// Asserts the two handles are operationally indistinguishable: same
/// shape, same `chosen_r`, and bit-identical raw labels for every
/// variant, in both tree order and caller order.
fn assert_equivalent(engine: &Engine, original: &PreparedIndex, restored: &PreparedIndex) {
    assert_eq!(restored.len(), original.len());
    assert_eq!(restored.chosen_r(), original.chosen_r());
    assert_eq!(restored.permutation(), original.permutation());
    assert_eq!(
        restored.appended_since_sort(),
        original.appended_since_sort()
    );

    let vs = variants();
    let a = engine
        .execute(&RunRequest::prepared(original, &vs))
        .unwrap();
    let b = engine
        .execute(&RunRequest::prepared(restored, &vs))
        .unwrap();
    assert_eq!(a.results.len(), b.results.len());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(
            ra.labels().iter_raw().collect::<Vec<_>>(),
            rb.labels().iter_raw().collect::<Vec<_>>(),
            "restored handle must label bit-identically"
        );
    }
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(
            original.labels_in_caller_order(ra),
            restored.labels_in_caller_order(rb)
        );
    }
}

#[test]
fn fresh_prepare_roundtrips() {
    let engine = engine();
    let points = cloud(1200, 0xA11CE);
    let index = engine.prepare(&points, None).unwrap();
    assert_eq!(index.chosen_r(), R);
    let restored = roundtrip(&index);
    assert_eq!(restored.chosen_r(), R);
    assert_equivalent(&engine, &index, &restored);
}

#[test]
fn default_r_restores_at_80() {
    let engine = Engine::new(EngineConfig::default());
    let points = cloud(500, 0xBEEF);
    let index = engine.prepare(&points, None).unwrap();
    assert_eq!(index.chosen_r(), 80);
    let restored = roundtrip(&index);
    assert_eq!(restored.chosen_r(), 80);
    assert_equivalent(&engine, &index, &restored);
}

#[test]
fn empty_dataset_roundtrips() {
    let engine = engine();
    let index = engine.prepare(&[], None).unwrap();
    let restored = roundtrip(&index);
    assert_eq!(restored.len(), 0);
    assert_equivalent(&engine, &index, &restored);
}

#[test]
fn maintained_append_generation_roundtrips() {
    let engine = engine();
    let points = cloud(1000, 0x5EED);
    let index = engine.prepare(&points, None).unwrap();
    // Small batch: stays under APPEND_RESORT_FRACTION → maintain branch.
    let extra = cloud(60, 0xD00D);
    let (index, report) = engine.append_to_prepared(&index, &extra).unwrap();
    assert!(!report.resorted);
    assert!(index.appended_since_sort() > 0);
    let restored = roundtrip(&index);
    assert_equivalent(&engine, &index, &restored);
}

#[test]
fn resorted_append_generation_roundtrips() {
    let engine = engine();
    let points = cloud(600, 0xF00D);
    let index = engine.prepare(&points, None).unwrap();
    // Large batch: crosses APPEND_RESORT_FRACTION → full re-sort.
    let extra = cloud(400, 0xCAFE);
    let (index, report) = engine.append_to_prepared(&index, &extra).unwrap();
    assert!(report.resorted);
    assert_eq!(index.appended_since_sort(), 0);
    let restored = roundtrip(&index);
    assert_equivalent(&engine, &index, &restored);
}

#[test]
fn appends_resume_on_a_restored_handle() {
    // restore → append must behave exactly like append on the original.
    let engine = engine();
    let points = cloud(800, 0x1234);
    let extra = cloud(50, 0x5678);
    let original = engine.prepare(&points, None).unwrap();
    let restored = roundtrip(&original);

    let (a, _) = engine.append_to_prepared(&original, &extra).unwrap();
    let (b, _) = engine.append_to_prepared(&restored, &extra).unwrap();
    assert_equivalent(&engine, &a, &b);
}

#[test]
fn resort_prepared_flushes_the_tail_and_roundtrips() {
    let engine = engine();
    let points = cloud(900, 0x9999);
    let index = engine.prepare(&points, None).unwrap();
    let (dirty, report) = engine
        .append_to_prepared(&index, &cloud(80, 0x8888))
        .unwrap();
    assert!(!report.resorted);

    let clean = engine.resort_prepared(&dirty);
    assert_eq!(clean.appended_since_sort(), 0);
    assert_eq!(clean.len(), dirty.len());
    assert_eq!(clean.chosen_r(), dirty.chosen_r());
    // Same database, label-identical in caller order (tree orders differ).
    let vs = variants();
    let a = engine.execute(&RunRequest::prepared(&dirty, &vs)).unwrap();
    let b = engine.execute(&RunRequest::prepared(&clean, &vs)).unwrap();
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(
            dirty.labels_in_caller_order(ra),
            clean.labels_in_caller_order(rb)
        );
    }
    // A clean handle resorts to a cheap clone.
    let again = engine.resort_prepared(&clean);
    assert_eq!(again.permutation(), clean.permutation());

    let restored = roundtrip(&clean);
    assert_equivalent(&engine, &clean, &restored);
}

#[test]
fn corrupt_snapshots_are_rejected_with_typed_errors() {
    let engine = engine();
    let index = engine.prepare(&cloud(300, 0x7777), None).unwrap();
    let bytes = index.snapshot_bytes();

    // Every truncation fails; none panics.
    for len in 0..bytes.len() {
        assert!(
            PreparedIndex::restore(&mut &bytes[..len]).is_err(),
            "truncation to {len} bytes was accepted"
        );
    }
    // A sample of single-bit flips all fail (the exhaustive sweep lives
    // in the store crate's property suite).
    for i in (0..bytes.len()).step_by(97) {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x10;
        assert!(
            PreparedIndex::restore(&mut flipped.as_slice()).is_err(),
            "bit flip at byte {i} was accepted"
        );
    }
}
