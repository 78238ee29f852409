//! Persistent warm-state store for VariantDBSCAN.
//!
//! The expensive part of serving a dataset is preparing it: bin-sorting
//! the points and packing the R-tree. This crate makes that work
//! durable. A snapshot is a single versioned, checksummed container
//! file — fixed header, section directory, length-prefixed CRC-validated
//! sections — holding everything a daemon needs to resume serving a
//! dataset without re-sorting anything: the tree-order
//! point array, the permutation back to caller order, `r`,
//! the append generation counter, and the surviving
//! dominance-cache entries. The tree level MBBs themselves are *not*
//! stored — the packed tree is a pure O(n) function of the tree-order
//! points and the stored parameters, so a restore re-derives them
//! bit-identically from already-validated data instead of trusting
//! (and having to re-validate) redundant geometry from disk.
//!
//! Design rules, in priority order:
//!
//! 1. **Never wrong labels.** Anything a decoder accepts must be safe to
//!    serve. Structural invariants (permutation bijectivity, finished
//!    dense labels, finite coordinates) are proven during decode, before
//!    any engine type is constructed.
//! 2. **Never panic on arbitrary bytes.** All readers are bounded and
//!    total: hard caps on file and section sizes, element counts
//!    cross-checked against the bytes actually present, typed
//!    [`StoreError`] for every failure.
//! 3. **Byte-stable round trips.** Floats travel as raw IEEE-754 bits
//!    and section order is fixed, so snapshot → restore → snapshot is
//!    byte-identical — which is what lets equivalence tests pin the
//!    format.
//!
//! Corruption detection is two-layer: a header CRC covers the magic,
//! version, flags, and the whole section directory (including each
//! section's recorded CRC), and every section payload is covered by its
//! directory CRC. Any single-bit flip anywhere in a file therefore fails
//! exactly one of the two layers.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bytes;
pub mod container;
pub mod crc32;
pub mod error;
pub mod snapshot;

pub use bytes::{ByteReader, ByteWriter};
pub use container::{
    Container, ContainerWriter, SectionInfo, DIR_ENTRY_BYTES, FIXED_HEADER_BYTES, FORMAT_VERSION,
    MAGIC, MAX_FILE_BYTES, MAX_SECTIONS, MAX_SECTION_BYTES,
};
pub use crc32::crc32;
pub use error::StoreError;
pub use snapshot::{
    cluster_result_from_raw, decode_cache_records, encode_cache_records, section_id,
    validate_finished_labels, CacheRecord, DatasetMeta, DatasetSnapshot, IndexSnapshot,
    MAX_NAME_BYTES,
};
