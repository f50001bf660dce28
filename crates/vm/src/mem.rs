//! The VM's memory model.
//!
//! A 48-bit virtual address space split into segments, mirroring a typical
//! user process:
//!
//! | segment | base | contents | attacker-writable |
//! |---|---|---|---|
//! | external code | `0x0800_...` | addresses of uninstrumented library functions | no |
//! | code          | `0x1000_...` | addresses of program functions | no |
//! | globals       | `0x2000_...` | module globals | **yes** |
//! | strings       | `0x3000_...` | string literals (read-only to the program) | **yes** |
//! | heap          | `0x4000_...` | `malloc` arena | **yes** |
//! | stack         | `0x7F00_...` | frame slots (grows up for simplicity) | **yes** |
//!
//! "Attacker-writable" marks what the memory-corruption primitive of the
//! threat model (§3) may touch: an attacker with an arbitrary-write bug can
//! modify any *data* memory but not code, PA keys (they live outside this
//! address space entirely), or the VM's register file and call stack
//! (shadow-stack assumption).

use std::fmt;

/// Segment bases (within a 48-bit VA).
pub mod layout {
    /// Uninstrumented-library function addresses ("libc").
    pub const EXTERNAL_BASE: u64 = 0x0800_0000_0000;
    /// Program function addresses.
    pub const CODE_BASE: u64 = 0x1000_0000_0000;
    /// Global variables. Re-exported from `rsti-ir`: the base (and the
    /// whole globals layout, [`rsti_ir::Module::global_addresses`]) is a
    /// module-level contract so the optimizer can fold statically-known
    /// addresses into PAC modifiers at optimize time.
    pub const GLOBAL_BASE: u64 = rsti_ir::GLOBAL_SEG_BASE;
    /// String literals.
    pub const STR_BASE: u64 = 0x3000_0000_0000;
    /// Heap arena.
    pub const HEAP_BASE: u64 = 0x4000_0000_0000;
    /// Stack arena.
    pub const STACK_BASE: u64 = 0x7F00_0000_0000;
    /// Bytes between consecutive function addresses.
    pub const CODE_STRIDE: u64 = 16;
    /// Largest size a single data segment may be created with (bytes).
    ///
    /// Segment sizes are program-influenceable (a huge global array grows
    /// the globals segment), so an unchecked `vec![0u8; size]` would turn
    /// a hostile-but-valid program into a host allocation abort instead of
    /// a guest trap. 256 MiB is ~64x the default heap/stack arenas and far
    /// above anything the workloads need, while staying trivially
    /// allocatable on the host.
    pub const MAX_SEGMENT: u64 = 256 << 20;
}

/// A memory access fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemFault {
    /// Address outside every mapped segment (includes poisoned pointers).
    Unmapped {
        /// Faulting address.
        addr: u64,
    },
    /// Write to a read-only segment (code, external code).
    ReadOnly {
        /// Faulting address.
        addr: u64,
    },
    /// Access crosses the end of its segment.
    OutOfRange {
        /// Faulting address.
        addr: u64,
        /// Access size.
        len: u64,
    },
    /// A segment was requested beyond [`layout::MAX_SEGMENT`] — the guest
    /// program's data demands exceed what the VM will host.
    SegmentTooLarge {
        /// Segment base.
        base: u64,
        /// Requested size.
        size: u64,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemFault::ReadOnly { addr } => write!(f, "write to read-only memory {addr:#x}"),
            MemFault::OutOfRange { addr, len } => {
                write!(f, "access of {len} bytes at {addr:#x} crosses segment end")
            }
            MemFault::SegmentTooLarge { base, size } => {
                write!(f, "segment at {base:#x} requested with {size} bytes (limit {})", layout::MAX_SEGMENT)
            }
        }
    }
}

struct Segment {
    base: u64,
    /// Addressable extent in bytes. `data` covers a prefix of it and is
    /// grown on first write; bytes in `data.len()..size` are logically
    /// zero. A fresh VM therefore never pays a memset of the full arena —
    /// the dominant construction cost for short runs and fuzz campaigns,
    /// which build thousands of VMs over mostly-untouched segments.
    size: usize,
    data: Vec<u8>,
    writable: bool,
    /// Whether the attacker's arbitrary-write primitive may target it.
    attacker: bool,
}

impl Segment {
    /// Materializes `data` up to at least `end` bytes (amortized doubling,
    /// capped at the segment extent). Returns `false` when `end` is
    /// outside the segment.
    #[cold]
    fn grow_to(&mut self, end: usize) -> bool {
        if end > self.size {
            return false;
        }
        let new_len = end.max(self.data.len() * 2).min(self.size);
        self.data.resize(new_len, 0);
        true
    }
}

/// The process memory.
pub struct Memory {
    segments: Vec<Segment>,
}

/// In-segment offsets: every data segment's base is exactly its VA tag
/// shifted into place (`tag << 40`, asserted below), so the offset of an
/// address within its segment is a mask — no base load, no subtraction.
const OFF_MASK: u64 = (1 << 40) - 1;

// The dispatch in `seg_idx` and the mask above hard-code the segment
// bases; fail the build if the layout ever moves.
const _: () = {
    assert!(layout::GLOBAL_BASE == 0x20 << 40);
    assert!(layout::STR_BASE == 0x30 << 40);
    assert!(layout::HEAP_BASE == 0x40 << 40);
    assert!(layout::STACK_BASE == 0x7F << 40);
};

/// Segment index for an address's VA tag, ignoring the segment's actual
/// extent (callers probing `data` or `size` handle out-of-extent).
#[inline(always)]
fn seg_idx(addr: u64) -> Option<usize> {
    match addr >> 40 {
        0x20 => Some(0), // GLOBAL_BASE
        0x30 => Some(1), // STR_BASE
        0x40 => Some(2), // HEAP_BASE
        0x7F => Some(3), // STACK_BASE
        _ => None,
    }
}

impl Memory {
    /// Creates memory with the given segment sizes (bytes).
    ///
    /// # Errors
    /// Returns [`MemFault::SegmentTooLarge`] when any requested segment
    /// exceeds [`layout::MAX_SEGMENT`] — segment sizes derive from the
    /// guest program (global arrays, arena configuration), so an absurd
    /// request must become a reportable fault, not a host `vec![0u8; n]`
    /// capacity panic or OOM abort.
    pub fn new(
        global_size: u64,
        str_size: u64,
        heap_size: u64,
        stack_size: u64,
    ) -> Result<Self, MemFault> {
        use layout::*;
        let seg = |base: u64, size: u64, writable: bool, attacker: bool| {
            if size > MAX_SEGMENT {
                return Err(MemFault::SegmentTooLarge { base, size });
            }
            Ok(Segment { base, size: size as usize, data: Vec::new(), writable, attacker })
        };
        Ok(Memory {
            segments: vec![
                seg(GLOBAL_BASE, global_size.max(8), true, true)?,
                seg(STR_BASE, str_size.max(8), false, true)?,
                seg(HEAP_BASE, heap_size.max(64), true, true)?,
                seg(STACK_BASE, stack_size.max(64), true, true)?,
            ],
        })
    }

    /// Segment index for an address. The four segments sit in disjoint
    /// top-byte regions of the 48-bit VA, so the common case is a direct
    /// dispatch on `addr >> 40` instead of a linear scan — this sits under
    /// every load/store the interpreter executes.
    #[inline]
    fn seg_of(&self, addr: u64) -> Option<usize> {
        let si = seg_idx(addr)?;
        let s = &self.segments[si];
        (addr >= s.base && addr < s.base + s.size as u64).then_some(si)
    }

    /// Reads `len` bytes at `addr`. Bytes past the materialized prefix of
    /// the segment read as zero (they have never been written).
    ///
    /// # Errors
    /// Faults when the range is unmapped.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        let si = self.seg_of(addr).ok_or(MemFault::Unmapped { addr })?;
        let s = &self.segments[si];
        // checked_sub, not `-`: the offset must never be computed before
        // (or independently of) the `addr >= base` validation — an
        // unsigned underflow here panics in debug and silently wraps to a
        // huge offset in release.
        let off = addr.checked_sub(s.base).ok_or(MemFault::OutOfRange { addr, len })? as usize;
        let end = off.checked_add(len as usize).ok_or(MemFault::OutOfRange { addr, len })?;
        if end > s.size {
            return Err(MemFault::OutOfRange { addr, len });
        }
        let mut out = vec![0u8; len as usize];
        let prefix = s.data.get(off..).unwrap_or_default();
        let avail = prefix.len().min(len as usize);
        out[..avail].copy_from_slice(&prefix[..avail]);
        Ok(out)
    }

    /// Writes bytes at `addr`, honouring segment permissions.
    ///
    /// # Errors
    /// Faults when the range is unmapped or read-only.
    #[inline]
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let si = self.seg_of(addr).ok_or(MemFault::Unmapped { addr })?;
        let s = &mut self.segments[si];
        if !s.writable {
            return Err(MemFault::ReadOnly { addr });
        }
        let len = bytes.len() as u64;
        let off = addr.checked_sub(s.base).ok_or(MemFault::OutOfRange { addr, len })? as usize;
        let end = off
            .checked_add(bytes.len())
            .ok_or(MemFault::OutOfRange { addr, len })?;
        if end > s.data.len() && !s.grow_to(end) {
            return Err(MemFault::OutOfRange { addr, len });
        }
        s.data[off..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Zero-fills `len` bytes at `addr` in place (no temporary buffer) —
    /// used by the interpreter to clear fresh stack slots. Bytes past the
    /// materialized prefix are already zero, so the fill never grows the
    /// segment.
    ///
    /// # Errors
    /// Faults when the range is unmapped or read-only.
    pub fn write_zeros(&mut self, addr: u64, len: u64) -> Result<(), MemFault> {
        let si = self.seg_of(addr).ok_or(MemFault::Unmapped { addr })?;
        let s = &mut self.segments[si];
        if !s.writable {
            return Err(MemFault::ReadOnly { addr });
        }
        let off = addr.checked_sub(s.base).ok_or(MemFault::OutOfRange { addr, len })? as usize;
        let end = off.checked_add(len as usize).ok_or(MemFault::OutOfRange { addr, len })?;
        if end > s.size {
            return Err(MemFault::OutOfRange { addr, len });
        }
        let mat = s.data.len();
        if off < mat {
            s.data[off..end.min(mat)].fill(0);
        }
        Ok(())
    }

    /// The attacker's arbitrary-write primitive: may target any
    /// attacker-reachable data segment regardless of program-level
    /// permissions (a buffer overflow does not respect `const`).
    ///
    /// # Errors
    /// Faults only when the range is outside attacker-reachable memory
    /// (code, keys, VM state).
    pub fn attacker_write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let si = self.seg_of(addr).ok_or(MemFault::Unmapped { addr })?;
        let s = &mut self.segments[si];
        if !s.attacker {
            return Err(MemFault::ReadOnly { addr });
        }
        let len = bytes.len() as u64;
        let off = addr.checked_sub(s.base).ok_or(MemFault::OutOfRange { addr, len })? as usize;
        let end = off
            .checked_add(bytes.len())
            .ok_or(MemFault::OutOfRange { addr, len })?;
        if end > s.data.len() && !s.grow_to(end) {
            return Err(MemFault::OutOfRange { addr, len });
        }
        s.data[off..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads a fixed-width scalar. The compile-time length lets the range
    /// check fold to one comparison and the copy to a single move — this
    /// sits under every typed load in both execution engines. The
    /// materialized prefix covers all written memory, so the fast path
    /// misses only on never-written (zero) addresses or genuine faults.
    ///
    /// # Errors
    /// Faults when the range is unmapped.
    #[inline(always)]
    pub fn read_arr<const N: usize>(&self, addr: u64) -> Result<[u8; N], MemFault> {
        let Some(si) = seg_idx(addr) else { return Err(MemFault::Unmapped { addr }) };
        // Segment bases are `tag << 40`, so the offset is a mask and the
        // slice probe subsumes the range check; out-of-extent offsets miss
        // the materialized prefix and sort out their fault in the tail.
        let off = (addr & OFF_MASK) as usize;
        match self.segments[si].data.get(off..off + N) {
            Some(b) => Ok(b.try_into().expect("length checked")),
            None => self.read_arr_slow::<N>(si, off, addr),
        }
    }

    /// Out-of-prefix tail of [`Memory::read_arr`]: reads that touch the
    /// never-materialized (all-zero) region, or genuinely cross the
    /// segment end.
    #[cold]
    #[inline(never)]
    fn read_arr_slow<const N: usize>(
        &self,
        si: usize,
        off: usize,
        addr: u64,
    ) -> Result<[u8; N], MemFault> {
        let s = &self.segments[si];
        // Entirely past the segment extent is unmapped address space (the
        // tag region is 1 TiB; the segment covers a prefix of it); merely
        // crossing the extent is a ranged access fault.
        if off >= s.size {
            return Err(MemFault::Unmapped { addr });
        }
        // `off < s.size <= MAX_SEGMENT` and N <= 8: no overflow.
        if off + N > s.size {
            return Err(MemFault::OutOfRange { addr, len: N as u64 });
        }
        let mut out = [0u8; N];
        // `off` may sit entirely past the materialized prefix (a read of
        // never-written zero-fill): avail is 0 there, and indexing
        // `data[off..off]` would still panic on `off > len`.
        let avail = s.data.len().saturating_sub(off).min(N);
        if avail > 0 {
            out[..avail].copy_from_slice(&s.data[off..off + avail]);
        }
        Ok(out)
    }

    /// Writes a fixed-width scalar; see [`Memory::read_arr`].
    ///
    /// # Errors
    /// Faults when the range is unmapped or read-only.
    #[inline(always)]
    pub fn write_arr<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) -> Result<(), MemFault> {
        let Some(si) = seg_idx(addr) else { return Err(MemFault::Unmapped { addr }) };
        let off = (addr & OFF_MASK) as usize;
        let s = &mut self.segments[si];
        if s.writable {
            if let Some(b) = s.data.get_mut(off..off + N) {
                b.copy_from_slice(&bytes);
                return Ok(());
            }
        }
        // Out of the materialized prefix or a read-only segment: the tail
        // re-derives the precise fault (including unmapped-vs-read-only
        // ordering) or materializes and retries.
        self.write_arr_slow::<N>(si, off, addr, bytes)
    }

    /// Out-of-prefix tail of [`Memory::write_arr`]: materializes the
    /// segment up to the write, or faults past the segment end.
    #[cold]
    #[inline(never)]
    fn write_arr_slow<const N: usize>(
        &mut self,
        si: usize,
        off: usize,
        addr: u64,
        bytes: [u8; N],
    ) -> Result<(), MemFault> {
        let s = &mut self.segments[si];
        // Fault precedence mirrors the segment walk: addresses past the
        // extent are unmapped before permissions are consulted, then
        // read-only, then extent-crossing.
        if off >= s.size {
            return Err(MemFault::Unmapped { addr });
        }
        if !s.writable {
            return Err(MemFault::ReadOnly { addr });
        }
        if !s.grow_to(off + N) {
            return Err(MemFault::OutOfRange { addr, len: N as u64 });
        }
        s.data[off..off + N].copy_from_slice(&bytes);
        Ok(())
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        self.read_arr::<8>(addr).map(u64::from_le_bytes)
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.write_arr::<8>(addr, v.to_le_bytes())
    }
}

/// A bump heap allocator over the heap segment, with free tracking for
/// temporal-safety experiments (RSTI does not *prevent* use-after-free —
/// §7 — so freed memory stays readable; we only record the state).
#[derive(Debug, Clone)]
pub struct Allocator {
    next: u64,
    limit: u64,
    /// Live allocations: (addr, size).
    pub live: Vec<(u64, u64)>,
    /// Freed allocations: (addr, size).
    pub freed: Vec<(u64, u64)>,
}

impl Allocator {
    /// A fresh allocator over the heap segment.
    pub fn new(heap_size: u64) -> Self {
        Allocator {
            next: layout::HEAP_BASE,
            limit: layout::HEAP_BASE.saturating_add(heap_size),
            live: Vec::new(),
            freed: Vec::new(),
        }
    }

    /// Allocates `size` bytes (8-byte aligned); `None` when exhausted.
    ///
    /// Every step is checked: `size` is attacker-influenceable (a guest
    /// `malloc(n)` with arbitrary `n`), and near-`u64::MAX` requests used
    /// to overflow the alignment round-up — a debug panic, and in release
    /// a silent wrap to a tiny allocation. Overflow now reports
    /// exhaustion, which the VM surfaces as a `HeapExhausted` trap.
    pub fn malloc(&mut self, size: u64) -> Option<u64> {
        let size = size.max(1).checked_add(7)? & !7;
        let end = self.next.checked_add(size)?;
        if end > self.limit {
            return None;
        }
        let addr = self.next;
        self.next = end;
        self.live.push((addr, size));
        Some(addr)
    }

    /// Frees an allocation; `false` when `addr` is not a live allocation
    /// base (double free / invalid free).
    pub fn free(&mut self, addr: u64) -> bool {
        if let Some(i) = self.live.iter().position(|&(a, _)| a == addr) {
            let e = self.live.remove(i);
            self.freed.push(e);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmented_read_write() {
        let mut m = Memory::new(64, 64, 256, 256).unwrap();
        m.write_u64(layout::GLOBAL_BASE + 8, 0xDEAD).unwrap();
        assert_eq!(m.read_u64(layout::GLOBAL_BASE + 8).unwrap(), 0xDEAD);
        assert!(matches!(m.read_u64(0x1234), Err(MemFault::Unmapped { .. })));
    }

    #[test]
    fn strings_are_program_read_only_but_attacker_writable() {
        let mut m = Memory::new(64, 64, 64, 64).unwrap();
        let a = layout::STR_BASE;
        assert!(matches!(m.write(a, b"x"), Err(MemFault::ReadOnly { .. })));
        m.attacker_write(a, b"x").unwrap();
        assert_eq!(m.read(a, 1).unwrap(), b"x");
    }

    #[test]
    fn scalar_read_past_materialized_prefix_is_zero_fill() {
        // Materialize only the first 8 bytes, then read a scalar whose
        // whole range sits beyond the prefix but inside the segment: it is
        // never-written zero-fill, not a panic (regression: the empty-copy
        // path used to index `data[off..off]` with `off > len`). The
        // attacker API's byte-range read takes the same range.
        let mut m = Memory::new(64, 64, 64, 64).unwrap();
        m.write_u64(layout::GLOBAL_BASE, 0xBEEF).unwrap();
        assert_eq!(m.read_u64(layout::GLOBAL_BASE + 16).unwrap(), 0);
        assert_eq!(m.read_arr::<4>(layout::GLOBAL_BASE + 24).unwrap(), [0u8; 4]);
        assert_eq!(m.read(layout::GLOBAL_BASE + 16, 8).unwrap(), [0u8; 8]);
    }

    #[test]
    fn out_of_range_detected() {
        let m = Memory::new(16, 16, 16, 16).unwrap();
        assert!(matches!(
            m.read(layout::GLOBAL_BASE + 12, 8),
            Err(MemFault::OutOfRange { .. })
        ));
    }

    #[test]
    fn address_below_segment_base_faults_instead_of_underflowing() {
        // Fuzz-harvested (rsti-fuzz): every accessor used to compute
        // `(addr - s.base) as usize` with an unchecked subtraction; an
        // address below the segment base must fault, never underflow.
        let mut m = Memory::new(64, 64, 64, 64).unwrap();
        for base in [layout::GLOBAL_BASE, layout::STR_BASE, layout::HEAP_BASE, layout::STACK_BASE]
        {
            let below = base - 1;
            assert!(m.read(below, 8).is_err(), "read below {base:#x}");
            assert!(m.write(below, &[0; 8]).is_err(), "write below {base:#x}");
            assert!(m.write_zeros(below, 8).is_err(), "zeros below {base:#x}");
            assert!(m.attacker_write(below, &[0; 8]).is_err(), "attacker below {base:#x}");
        }
    }

    #[test]
    fn oversized_segment_request_is_a_fault_not_a_panic() {
        // Fuzz-harvested: `vec![0u8; size as usize]` on a huge guest-driven
        // size used to abort the host with a capacity panic / OOM.
        assert!(matches!(
            Memory::new(u64::MAX, 8, 8, 8),
            Err(MemFault::SegmentTooLarge { base: layout::GLOBAL_BASE, .. })
        ));
        assert!(matches!(
            Memory::new(8, 8, layout::MAX_SEGMENT + 1, 8),
            Err(MemFault::SegmentTooLarge { base: layout::HEAP_BASE, .. })
        ));
        assert!(Memory::new(8, 8, layout::MAX_SEGMENT, 64).is_ok());
    }

    #[test]
    fn malloc_of_near_max_size_returns_none() {
        // Fuzz-harvested: the 8-byte alignment round-up used to overflow
        // for sizes in the top 8 bytes of the u64 range (debug panic,
        // release wrap-to-tiny-allocation).
        let mut a = Allocator::new(1024);
        assert_eq!(a.malloc(u64::MAX), None);
        assert_eq!(a.malloc(u64::MAX - 7), None);
        assert_eq!(a.malloc(i64::MAX as u64), None);
        // The allocator is still usable after rejecting them.
        assert!(a.malloc(16).is_some());
    }

    #[test]
    fn allocator_bump_and_free() {
        let mut a = Allocator::new(1024);
        let p = a.malloc(10).unwrap();
        let q = a.malloc(10).unwrap();
        assert_eq!(q - p, 16, "rounded to 8-byte multiples");
        assert!(a.free(p));
        assert!(!a.free(p), "double free reported");
        assert_eq!(a.live.len(), 1);
        assert_eq!(a.freed.len(), 1);
    }

    #[test]
    fn allocator_exhaustion() {
        let mut a = Allocator::new(32);
        assert!(a.malloc(16).is_some());
        assert!(a.malloc(16).is_some());
        assert!(a.malloc(1).is_none());
    }
}
