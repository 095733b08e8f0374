//! Device global/constant memory objects.
//!
//! Storage is a slice of `AtomicU32` words. This keeps concurrent kernel
//! execution free of Rust-level data races without per-access locking:
//! relaxed word-sized atomics compile to plain loads and stores on every
//! mainstream ISA. OpenCL gives no coherence guarantees for cross-work-group
//! races, so racing relaxed accesses here is a faithful (and sound) model:
//! the worst outcome is a torn 64-bit value, which is already permitted
//! behaviour for racy OpenCL programs.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::types::DeviceScalar;

/// Host visibility/usage flags, a simplified `CL_MEM_*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAccess {
    /// Kernels may only read the buffer.
    ReadOnly,
    /// Kernels may only write the buffer.
    WriteOnly,
    /// Kernels may read and write (default).
    ReadWrite,
}

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// A device memory allocation. Cheap to clone (shared handle).
#[derive(Debug, Clone)]
pub struct Buffer {
    inner: Arc<BufferInner>,
}

#[derive(Debug)]
struct BufferInner {
    id: u64,
    len_bytes: usize,
    access: MemAccess,
    words: Box<[AtomicU32]>,
}

impl Buffer {
    /// Allocate a buffer of `len_bytes` bytes, zero-initialised.
    ///
    /// Normally called through [`crate::context::Context::create_buffer`],
    /// which also enforces the device memory capacity.
    pub fn new(len_bytes: usize, access: MemAccess) -> Buffer {
        let words = len_bytes.div_ceil(4);
        let storage: Box<[AtomicU32]> = (0..words).map(|_| AtomicU32::new(0)).collect();
        Buffer {
            inner: Arc::new(BufferInner {
                id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
                len_bytes,
                access,
                words: storage,
            }),
        }
    }

    /// Unique id of the allocation.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Size in bytes as requested at allocation.
    pub fn len_bytes(&self) -> usize {
        self.inner.len_bytes
    }

    /// Access flags.
    pub fn access(&self) -> MemAccess {
        self.inner.access
    }

    fn check_range(&self, offset: usize, len: usize) -> Result<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.inner.len_bytes)
        {
            return Err(Error::InvalidBufferAccess(format!(
                "range {offset}..{} exceeds buffer of {} bytes",
                offset.saturating_add(len),
                self.inner.len_bytes
            )));
        }
        Ok(())
    }

    /// Byte offset and byte length of `len` elements of `T` from element
    /// `elem_offset` on, after checking that they lie inside the buffer. The
    /// element → byte products are checked: a wrapped one would pass for a
    /// small in-range offset.
    pub(crate) fn elem_range<T>(&self, elem_offset: usize, len: usize) -> Result<(usize, usize)> {
        let esize = std::mem::size_of::<T>();
        match (elem_offset.checked_mul(esize), len.checked_mul(esize)) {
            (Some(offset), Some(len_bytes)) => {
                self.check_range(offset, len_bytes)?;
                Ok((offset, len_bytes))
            }
            _ => Err(Error::InvalidBufferAccess(format!(
                "{len} elements of {esize} bytes at element {elem_offset} overflow usize"
            ))),
        }
    }

    /// Copy host bytes into the buffer at `offset`.
    pub fn write_bytes(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.write_slice(offset, data)
    }

    /// Copy bytes from the buffer at `offset` into `out`.
    pub fn read_bytes(&self, offset: usize, out: &mut [u8]) -> Result<()> {
        self.read_slice(offset, out)
    }

    /// Typed write of a whole slice starting at element `elem_offset`: one
    /// pass that stores the elements' little-endian bits straight into the
    /// words. Only a sub-word `T` at an unaligned offset has partial words,
    /// at most one at each end, and only those are read-modify-written.
    pub fn write_slice<T: DeviceScalar>(&self, elem_offset: usize, data: &[T]) -> Result<()> {
        let esize = std::mem::size_of::<T>();
        let (offset, _) = self.elem_range::<T>(elem_offset, data.len())?;
        let words = &self.inner.words;
        if esize == 8 {
            for (w, v) in words[offset / 4..].chunks_exact(2).zip(data) {
                let bits = v.to_bits64();
                w[0].store(bits as u32, Ordering::Relaxed);
                w[1].store((bits >> 32) as u32, Ordering::Relaxed);
            }
            return Ok(());
        }
        // the elements sharing one word, as (mask, value) of that word;
        // `shift` is the bit position of the first
        let pack = |elems: &[T], shift: usize| {
            elems
                .iter()
                .enumerate()
                .fold((0u32, 0u32), |(mask, val), (i, v)| {
                    let m = ((u64::MAX >> (64 - 8 * esize)) as u32) << (shift + 8 * esize * i);
                    (
                        mask | m,
                        val | ((v.to_bits64() as u32) << (shift + 8 * esize * i)) & m,
                    )
                })
        };
        let merge = |at: usize, elems: &[T]| {
            if !elems.is_empty() {
                let (mask, val) = pack(elems, at % 4 * 8);
                words[at / 4]
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                        Some((w & !mask) | val)
                    })
                    .expect("fetch_update closure never returns None");
            }
        };
        let (head, body) = word_split(esize, offset, data.len());
        let (head, rest) = data.split_at(head);
        let (body, tail) = rest.split_at(body);
        let body_offset = offset + std::mem::size_of_val(head);
        merge(offset, head);
        merge(body_offset + std::mem::size_of_val(body), tail);
        for (w, chunk) in words[body_offset / 4..]
            .iter()
            .zip(body.chunks_exact(4 / esize))
        {
            w.store(pack(chunk, 0).1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Typed read of `out.len()` elements starting at element `elem_offset`
    /// into `out`: the mirror image of [`Buffer::write_slice`].
    pub fn read_slice<T: DeviceScalar>(&self, elem_offset: usize, out: &mut [T]) -> Result<()> {
        let esize = std::mem::size_of::<T>();
        let (offset, _) = self.elem_range::<T>(elem_offset, out.len())?;
        let words = &self.inner.words;
        if esize == 8 {
            for (w, v) in words[offset / 4..].chunks_exact(2).zip(out) {
                let lo = w[0].load(Ordering::Relaxed) as u64;
                let hi = w[1].load(Ordering::Relaxed) as u64;
                *v = T::from_bits64(lo | (hi << 32));
            }
            return Ok(());
        }
        // the elements of `word` from bit `shift` on
        let unpack = |elems: &mut [T], word: u32, shift: usize| {
            for (i, v) in elems.iter_mut().enumerate() {
                let bits = word >> (shift + 8 * esize * i);
                *v = T::from_bits64(bits as u64 & (u64::MAX >> (64 - 8 * esize)));
            }
        };
        let edge = |at: usize, elems: &mut [T]| {
            if !elems.is_empty() {
                unpack(elems, words[at / 4].load(Ordering::Relaxed), at % 4 * 8);
            }
        };
        let (head, body) = word_split(esize, offset, out.len());
        let (head, rest) = out.split_at_mut(head);
        let (body, tail) = rest.split_at_mut(body);
        let body_offset = offset + std::mem::size_of_val(head);
        edge(offset, head);
        edge(body_offset + std::mem::size_of_val(body), tail);
        for (w, chunk) in words[body_offset / 4..]
            .iter()
            .zip(body.chunks_exact_mut(4 / esize))
        {
            unpack(chunk, w.load(Ordering::Relaxed), 0);
        }
        Ok(())
    }

    /// Typed read of `len` elements starting at element `elem_offset`.
    pub fn read_vec<T: DeviceScalar>(&self, elem_offset: usize, len: usize) -> Result<Vec<T>> {
        // validated before the result is sized from a caller-supplied length
        self.elem_range::<T>(elem_offset, len)?;
        let mut out = vec![T::from_bits64(0); len];
        self.read_slice(elem_offset, &mut out)?;
        Ok(out)
    }

    /// Zero the entire buffer.
    pub fn fill_zero(&self) {
        for w in self.inner.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    // ---- device-side accessors used by the interpreter ------------------

    /// Whether a device access of `size` bytes at `byte_addr` is in range
    /// and naturally aligned.
    #[inline]
    pub(crate) fn device_access_ok(&self, byte_addr: u64, size: usize) -> bool {
        byte_addr.is_multiple_of(size as u64)
            && (byte_addr as usize)
                .checked_add(size)
                .is_some_and(|e| e <= self.inner.len_bytes)
    }

    /// Raw word storage — the same relaxed-atomic cells `device_load` /
    /// `device_store` go through, exposed so a pre-validated bulk access
    /// pass can hoist the slice lookup and size dispatch out of its lane
    /// loop.
    #[inline]
    pub(crate) fn device_words(&self) -> &[AtomicU32] {
        &self.inner.words
    }

    /// Load `size` (1/2/4/8) bytes at `byte_addr`, zero-extended into u64.
    /// Caller must have validated with [`Buffer::device_access_ok`].
    #[inline]
    pub(crate) fn device_load(&self, byte_addr: u64, size: usize) -> u64 {
        let words = &self.inner.words;
        let word_idx = (byte_addr / 4) as usize;
        match size {
            8 => {
                let lo = words[word_idx].load(Ordering::Relaxed) as u64;
                let hi = words[word_idx + 1].load(Ordering::Relaxed) as u64;
                lo | (hi << 32)
            }
            4 => words[word_idx].load(Ordering::Relaxed) as u64,
            2 => {
                let sh = (byte_addr % 4) * 8;
                ((words[word_idx].load(Ordering::Relaxed) >> sh) & 0xFFFF) as u64
            }
            1 => {
                let sh = (byte_addr % 4) * 8;
                ((words[word_idx].load(Ordering::Relaxed) >> sh) & 0xFF) as u64
            }
            _ => unreachable!("scalar sizes are 1/2/4/8"),
        }
    }

    /// Store the low `size` bytes of `bits` at `byte_addr`.
    /// Caller must have validated with [`Buffer::device_access_ok`].
    #[inline]
    pub(crate) fn device_store(&self, byte_addr: u64, size: usize, bits: u64) {
        let words = &self.inner.words;
        let word_idx = (byte_addr / 4) as usize;
        match size {
            8 => {
                words[word_idx].store(bits as u32, Ordering::Relaxed);
                words[word_idx + 1].store((bits >> 32) as u32, Ordering::Relaxed);
            }
            4 => words[word_idx].store(bits as u32, Ordering::Relaxed),
            2 | 1 => {
                let sh = (byte_addr % 4) * 8;
                let mask = if size == 2 { 0xFFFFu32 } else { 0xFFu32 } << sh;
                let val = ((bits as u32) << sh) & mask;
                words[word_idx]
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                        Some((w & !mask) | val)
                    })
                    .expect("fetch_update closure never returns None");
            }
            _ => unreachable!("scalar sizes are 1/2/4/8"),
        }
    }

    /// Atomic 32-bit add at `byte_addr` (for `atomic_add` & friends);
    /// returns the previous value.
    #[inline]
    pub(crate) fn device_atomic_add_u32(&self, byte_addr: u64, operand: u32) -> u32 {
        let word_idx = (byte_addr / 4) as usize;
        self.inner.words[word_idx].fetch_add(operand, Ordering::Relaxed)
    }

    /// Atomic 32-bit compare-exchange; returns the previous value.
    #[inline]
    pub(crate) fn device_atomic_cmpxchg_u32(&self, byte_addr: u64, expected: u32, new: u32) -> u32 {
        let word_idx = (byte_addr / 4) as usize;
        match self.inner.words[word_idx].compare_exchange(
            expected,
            new,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(prev) | Err(prev) => prev,
        }
    }
}

/// Number of leading elements of a transfer of `len` elements of `esize`
/// (1, 2 or 4) bytes at byte `offset` that precede the first word boundary,
/// and the number of elements in whole words after them.
fn word_split(esize: usize, offset: usize, len: usize) -> (usize, usize) {
    let head = ((4 - offset % 4) % 4 / esize).min(len);
    let per = 4 / esize;
    (head, (len - head) / per * per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_typed() {
        let b = Buffer::new(64, MemAccess::ReadWrite);
        b.write_slice(0, &[1.5f32, -2.0, 3.25]).unwrap();
        assert_eq!(b.read_vec::<f32>(0, 3).unwrap(), vec![1.5, -2.0, 3.25]);
        b.write_slice(2, &[9.0f32]).unwrap();
        assert_eq!(b.read_vec::<f32>(0, 3).unwrap(), vec![1.5, -2.0, 9.0]);
    }

    #[test]
    fn round_trip_f64_and_i64() {
        let b = Buffer::new(64, MemAccess::ReadWrite);
        b.write_slice(0, &[1.25f64, -0.5]).unwrap();
        assert_eq!(b.read_vec::<f64>(0, 2).unwrap(), vec![1.25, -0.5]);
        b.write_slice(2, &[-42i64]).unwrap();
        assert_eq!(b.read_vec::<i64>(2, 1).unwrap(), vec![-42]);
    }

    /// `write_slice`/`read_vec` of `T` at every offset/length of the table
    /// agree with the byte path on the same little-endian bytes, in both
    /// directions, and leave the bytes around the transfer alone.
    fn bulk_matches_bytes<T: DeviceScalar + PartialEq + std::fmt::Debug>(
        from_index: impl Fn(usize) -> T,
    ) {
        let esize = std::mem::size_of::<T>();
        let le = |v: T| v.to_bits64().to_le_bytes()[..esize].to_vec();
        for elem_offset in [0usize, 1, 3] {
            for len in [0usize, 1, 5, 1031] {
                let what = format!("{:?} offset {elem_offset} len {len}", T::SCALAR);
                let data: Vec<T> = (0..len).map(&from_index).collect();
                let bytes: Vec<u8> = data.iter().flat_map(|&v| le(v)).collect();
                let total = (elem_offset + len + 3) * esize + 3;
                let (typed, bytewise) = (
                    Buffer::new(total, MemAccess::ReadWrite),
                    Buffer::new(total, MemAccess::ReadWrite),
                );
                for b in [&typed, &bytewise] {
                    b.write_bytes(0, &vec![0xA5; total]).unwrap();
                }
                typed.write_slice(elem_offset, &data).unwrap();
                bytewise.write_bytes(elem_offset * esize, &bytes).unwrap();
                let mut expect = vec![0xA5u8; total];
                expect[elem_offset * esize..][..bytes.len()].copy_from_slice(&bytes);
                for b in [&typed, &bytewise] {
                    let mut got = vec![0u8; total];
                    b.read_bytes(0, &mut got).unwrap();
                    assert_eq!(got, expect, "{what}: neighbours or payload differ");
                    assert_eq!(b.read_vec::<T>(elem_offset, len).unwrap(), data, "{what}");
                }
                let mut window = vec![0u8; bytes.len()];
                typed.read_bytes(elem_offset * esize, &mut window).unwrap();
                assert_eq!(window, bytes, "{what}: byte read of a typed write");
                // a range that leaves the buffer is still an error
                let past = typed.write_slice(total / esize + 1, &[from_index(0)]);
                assert!(matches!(past, Err(Error::InvalidBufferAccess(_))), "{what}");
                let past = typed.read_vec::<T>(total / esize, 2);
                assert!(matches!(past, Err(Error::InvalidBufferAccess(_))), "{what}");
            }
        }
    }

    #[test]
    fn bulk_transfers_match_the_byte_path_for_every_scalar_type() {
        // values with every byte distinct and the sign bit in play
        let pattern = |i: usize| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        bulk_matches_bytes(|i| pattern(i) as i8);
        bulk_matches_bytes(|i| pattern(i) as u8);
        bulk_matches_bytes(|i| pattern(i) as i16);
        bulk_matches_bytes(|i| pattern(i) as u16);
        bulk_matches_bytes(|i| pattern(i) as i32);
        bulk_matches_bytes(|i| pattern(i) as u32);
        bulk_matches_bytes(|i| pattern(i) as i64);
        bulk_matches_bytes(pattern);
        bulk_matches_bytes(|i| i as f32 * -1.5 + 0.25);
        bulk_matches_bytes(|i| i as f64 * 3.125 - 7.0);
    }

    #[test]
    fn element_offsets_that_wrap_in_bytes_are_rejected() {
        let b = Buffer::new(64, MemAccess::ReadWrite);
        b.write_slice(0, &[1i32, 2]).unwrap();
        // 2^62 * 4 and (2^61 + 1) * 8 wrap to small in-range byte counts
        let r = b.write_slice(1 << 62, &[99i32]);
        assert!(matches!(r, Err(Error::InvalidBufferAccess(_))), "{r:?}");
        let r = b.read_vec::<i32>((1 << 62) + 1, 1);
        assert!(matches!(r, Err(Error::InvalidBufferAccess(_))), "{r:?}");
        let r = b.read_vec::<i64>(0, (1 << 61) + 1);
        assert!(matches!(r, Err(Error::InvalidBufferAccess(_))), "{r:?}");
        assert_eq!(b.read_vec::<i32>(0, 2).unwrap(), vec![1, 2], "untouched");
    }

    #[test]
    fn unaligned_byte_writes() {
        let b = Buffer::new(16, MemAccess::ReadWrite);
        b.write_bytes(1, &[0xAA, 0xBB, 0xCC, 0xDD, 0xEE]).unwrap();
        let mut out = [0u8; 7];
        b.read_bytes(0, &mut out).unwrap();
        assert_eq!(out, [0x00, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0x00]);
    }

    #[test]
    fn out_of_range_rejected() {
        let b = Buffer::new(8, MemAccess::ReadWrite);
        assert!(b.write_bytes(5, &[0; 4]).is_err());
        let mut out = [0u8; 4];
        assert!(b.read_bytes(6, &mut out).is_err());
        assert!(b.write_bytes(usize::MAX, &[0]).is_err(), "overflow guarded");
    }

    #[test]
    fn device_load_store_all_sizes() {
        let b = Buffer::new(32, MemAccess::ReadWrite);
        b.device_store(0, 8, 0x1122334455667788);
        assert_eq!(b.device_load(0, 8), 0x1122334455667788);
        assert_eq!(b.device_load(0, 4), 0x55667788);
        assert_eq!(b.device_load(4, 4), 0x11223344);
        b.device_store(9, 1, 0xFF);
        assert_eq!(b.device_load(9, 1), 0xFF);
        assert_eq!(b.device_load(8, 1), 0x00);
        b.device_store(10, 2, 0xBEEF);
        assert_eq!(b.device_load(10, 2), 0xBEEF);
        assert_eq!(b.device_load(8, 4), 0xBEEF_FF00);
    }

    #[test]
    fn device_access_bounds_and_alignment() {
        let b = Buffer::new(12, MemAccess::ReadWrite);
        assert!(b.device_access_ok(8, 4));
        assert!(!b.device_access_ok(9, 4), "misaligned");
        assert!(!b.device_access_ok(12, 4), "past end");
        assert!(!b.device_access_ok(8, 8), "straddles end");
        assert!(b.device_access_ok(11, 1));
    }

    #[test]
    fn atomic_add() {
        let b = Buffer::new(8, MemAccess::ReadWrite);
        b.write_slice(0, &[10u32]).unwrap();
        assert_eq!(b.device_atomic_add_u32(0, 5), 10);
        assert_eq!(b.read_vec::<u32>(0, 1).unwrap()[0], 15);
    }

    #[test]
    fn zero_len_buffer() {
        let b = Buffer::new(0, MemAccess::ReadOnly);
        assert_eq!(b.len_bytes(), 0);
        assert!(b.write_bytes(0, &[]).is_ok());
        assert!(b.write_bytes(0, &[1]).is_err());
    }
}
