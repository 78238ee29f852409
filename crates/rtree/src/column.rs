//! Append-only columns: the arrays a streaming APPEND grows in place.
//!
//! A [`Column`] is a handle onto a shared buffer with spare capacity: it
//! sees exactly its own prefix `[0, len)` of the buffer, as a `&[T]`
//! through `Deref`, so every reader (the ε-kernel included) is a plain
//! slice loop. [`Column::appended`] returns a successor handle that sees
//! `len + k` items. When the handle is the buffer's latest — its length
//! equals the buffer's *filled mark* — and capacity allows, the successor
//! shares the buffer and only the `k` new items are written. Otherwise
//! (a full buffer, or a second append to a handle that already has a
//! successor) the successor gets a fresh buffer holding a copy. Either
//! way no handle ever observes a change: a column is immutable from
//! every handle's point of view, and old generations stay valid for as
//! long as anyone holds them.
//!
//! The crate's `unsafe` code is in two places:
//!
//! - this module, whose buffer writes and reads rest on the invariant
//!   below;
//! - the ε-scan kernels' dispatch (`scan.rs`), which calls a
//!   `#[target_feature]` copy of a kernel only on a host where
//!   `is_x86_feature_detected!` found its features.
//!
//! The invariant this module keeps: **a slot is written once, before
//! any handle covering it exists, and is never written again.** A writer
//! first claims the slots `[len, len + k)` by moving the buffer's filled
//! mark from `len` to `len + k` with one compare-and-swap (the mark only
//! ever grows, so a slot is claimed at most once), writes them, and only
//! then creates the handle that covers them. Handles reach other threads through the usual
//! synchronisation (a lock, a channel, a thread spawn), which orders the
//! writes before any read through the handle.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bounded slack: a buffer that must grow gets room for at least an
/// eighth of its length more than the items being added.
const GROWTH_DIVISOR: usize = 8;

/// The capacity a buffer holding `len` items grows to when `additional`
/// more do not fit: `len + max(additional, len / 8)`. Slack is therefore
/// at most an eighth of the length, and a run of small appends copies
/// the buffer once per `len / 8` items instead of once per append.
pub fn grown_capacity(len: usize, additional: usize) -> usize {
    len + additional.max(len / GROWTH_DIVISOR)
}

/// A shared, append-only array: cheap to clone, immutable through every
/// handle, and grown in place by [`Column::appended`]. See the
/// [module docs](self) for the invariant that makes this sound.
pub struct Column<T: Copy> {
    buf: Arc<Buffer<T>>,
    /// `buf.ptr`, kept in the handle so a read costs what a slice's does.
    ptr: NonNull<T>,
    len: usize,
}

/// The storage behind one or more [`Column`] handles. The allocation is a
/// `Vec<T>`'s (so a `Vec` is adopted without copying); `filled` is the
/// end of the claimed slots.
struct Buffer<T: Copy> {
    ptr: NonNull<T>,
    cap: usize,
    filled: AtomicUsize,
}

// SAFETY: `ptr` and `cap` describe an allocation the buffer owns like a
// `Vec<T>` does, and `filled` is an atomic. Through a shared `&Buffer`,
// threads read only slots written before the reading handle was created
// (so `T: Sync`), and write only slots claimed by a successful
// compare-and-swap on `filled`, which no handle covers yet (so values of
// `T` move in from the writing thread: `T: Send`); no slot is ever read
// and written concurrently.
unsafe impl<T: Copy + Send + Sync> Send for Buffer<T> {}
// SAFETY: see the `Send` impl above.
unsafe impl<T: Copy + Send + Sync> Sync for Buffer<T> {}
// SAFETY: `buf` is `Send + Sync` by the impls above; `ptr` is a copy of
// `buf.ptr`, read through only below `len`, and `len` is a plain count
// no other handle can change.
unsafe impl<T: Copy + Send + Sync> Send for Column<T> {}
// SAFETY: see the `Send` impl above.
unsafe impl<T: Copy + Send + Sync> Sync for Column<T> {}

impl<T: Copy> Drop for Buffer<T> {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `cap` came from a `Vec<T>` in
        // `Column::from`; a length of 0 frees the allocation without
        // reading any slot (and `T: Copy` has no drop glue).
        unsafe { drop(Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap)) }
    }
}

impl<T: Copy> Column<T> {
    /// The successor handle: this column's items followed by `items`.
    /// Writes only the new items when this handle is its buffer's latest
    /// and the buffer has room; otherwise copies into a new buffer of
    /// [`grown_capacity`]. `self` is unchanged either way.
    ///
    /// # Panics
    ///
    /// Panics if `items` yields fewer items than its `len()` promised.
    pub fn appended<I>(&self, items: I) -> Self
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        let k = items.len();
        if k == 0 {
            return self.clone();
        }
        let end = self.len.checked_add(k).expect("column length overflow");
        // `Relaxed` is enough: the mark publishes no data (slots become
        // readable only through a handle, and a handle reaches another
        // thread through synchronisation that orders the writes before
        // it), and claiming needs only the atomicity of one
        // compare-and-swap on one location.
        let claimed = end <= self.buf.cap
            && self
                .buf
                .filled
                .compare_exchange(self.len, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
        if !claimed {
            let mut copy = Vec::with_capacity(grown_capacity(self.len, k));
            copy.extend_from_slice(self);
            copy.extend(items);
            return Self::from(copy);
        }
        let mut written = 0;
        for item in items.take(k) {
            // SAFETY: the compare-and-swap above moved the filled mark
            // from `self.len` to `end`, so slots `[self.len, end)` are
            // claimed by this call alone, lie inside the allocation
            // (`end <= cap`), and no handle covers them yet.
            unsafe { self.ptr.as_ptr().add(self.len + written).write(item) };
            written += 1;
        }
        // A short iterator leaves claimed slots unwritten; they are never
        // covered by a handle, so bailing out here keeps the invariant.
        assert_eq!(written, k, "an ExactSizeIterator under-reported");
        self.prefix_unchecked(end)
    }

    /// A handle onto the first `len` items of this one, sharing its
    /// buffer. Appending to it copies (the buffer's filled mark is past
    /// `len`), which is how a column is grown from a rewritten position.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds this handle's length.
    pub(crate) fn prefix(&self, len: usize) -> Self {
        assert!(len <= self.len, "prefix {len} of a column of {}", self.len);
        self.prefix_unchecked(len)
    }

    /// A handle of `len` items on this buffer; every slot below `len`
    /// must already be written.
    fn prefix_unchecked(&self, len: usize) -> Self {
        Self {
            buf: Arc::clone(&self.buf),
            ptr: self.ptr,
            len,
        }
    }
}

impl<T: Copy> Deref for Column<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: every slot below `len` was written before this handle
        // was created and is never written again; `ptr` is non-null and
        // aligned (a `Vec`'s pointer) even when the buffer is empty.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> From<Vec<T>> for Column<T> {
    /// Adopts `items`' allocation, capacity included, without copying.
    fn from(items: Vec<T>) -> Self {
        let mut items = ManuallyDrop::new(items);
        let (len, cap) = (items.len(), items.capacity());
        let ptr = NonNull::new(items.as_mut_ptr()).expect("a Vec's pointer is non-null");
        Self {
            buf: Arc::new(Buffer {
                ptr,
                cap,
                filled: AtomicUsize::new(len),
            }),
            ptr,
            len,
        }
    }
}

impl<T: Copy> FromIterator<T> for Column<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<T: Copy> Clone for Column<T> {
    fn clone(&self) -> Self {
        self.prefix_unchecked(self.len)
    }
}

impl<T: Copy> Default for Column<T> {
    fn default() -> Self {
        Self::from(Vec::new())
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Copy + PartialEq> PartialEq for Column<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latest_handle_grows_in_place_and_older_handles_keep_their_prefix() {
        let base: Column<u32> = Vec::with_capacity(8).into();
        let one = base.appended([1, 2, 3]);
        let two = one.appended([4, 5]);
        assert!(base.is_empty());
        assert_eq!(*one, [1, 2, 3]);
        assert_eq!(*two, [1, 2, 3, 4, 5]);
        assert!(
            Arc::ptr_eq(&base.buf, &two.buf),
            "no copy while room is left"
        );
    }

    #[test]
    fn a_second_append_to_one_handle_copies() {
        let base: Column<u32> = Vec::with_capacity(64).into();
        let base = base.appended(0..32);
        let left = base.appended([1]);
        let right = base.appended([2, 3]);
        assert!(left[..32].iter().copied().eq(0..32) && left[32..] == [1]);
        assert!(right[..32].iter().copied().eq(0..32) && right[32..] == [2, 3]);
        assert!(Arc::ptr_eq(&base.buf, &left.buf));
        assert!(!Arc::ptr_eq(&base.buf, &right.buf));
        // The copy has slack, so the fork's own successor claims in place.
        let further = right.appended([4]);
        assert!(Arc::ptr_eq(&right.buf, &further.buf));
        assert_eq!(further[32..], [2, 3, 4]);
    }

    #[test]
    fn a_full_buffer_grows_with_bounded_slack() {
        let mut col: Column<u32> = (0..64).collect();
        assert_eq!(col.buf.cap, 64, "a collected column is exact");
        for i in 64..1000u32 {
            col = col.appended([i]);
            assert!(col.buf.cap - col.len() <= col.len() / GROWTH_DIVISOR);
        }
        assert!(col.iter().copied().eq(0..1000));
        let big = col.appended(0..5000);
        assert_eq!(big.buf.cap, 6000, "a large batch gets exactly its room");
    }

    #[test]
    fn prefix_appends_copy_and_leave_the_original() {
        let col: Column<u32> = (0..10).collect();
        let col = col.appended([10]);
        let cut = col.prefix(4).appended([99]);
        assert_eq!(*cut, [0, 1, 2, 3, 99]);
        assert!(col.iter().copied().eq(0..11));
    }

    #[test]
    fn empty_appends_and_equality() {
        let empty = Column::<u32>::default();
        assert_eq!(empty.appended([]), empty);
        assert_eq!(empty.appended([5]), Column::from(vec![5]));
        assert_eq!(format!("{:?}", empty.appended([5, 6])), "[5, 6]");
    }

    #[test]
    #[should_panic(expected = "under-reported")]
    fn a_lying_iterator_is_caught() {
        struct Liar(u32);
        impl Iterator for Liar {
            type Item = u32;
            fn next(&mut self) -> Option<u32> {
                (self.0 > 0).then(|| {
                    self.0 -= 1;
                    self.0
                })
            }
        }
        impl ExactSizeIterator for Liar {
            fn len(&self) -> usize {
                5
            }
        }
        let col: Column<u32> = Vec::with_capacity(8).into();
        let _ = col.appended(Liar(2));
    }
}
