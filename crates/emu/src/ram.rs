//! Guest RAM as 4 KiB pages that commit on their first write.
//!
//! A freshly built machine owns no RAM storage at all: every page starts
//! uncommitted and reads as zero, and the first write into a page
//! allocates it. A provisioned fleet device writes 4 of its 256 pages,
//! so its host footprint (and the time to build it) tracks what the
//! guest and firmware actually wrote rather than the configured
//! `ram_size`.
//!
//! Every RAM access of the machine goes through [`Ram`]. Word accesses
//! and instruction fetches that straddle a page boundary take a
//! byte-wise path; bulk copies walk page-sized chunks.

use sp32::cfg::FetchedInstr;
use sp32::{decode, encoded_len_words};

/// log2 of the RAM page size.
const PAGE_SHIFT: u32 = 12;
/// Bytes per RAM page.
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_SIZE - 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

type Page = Box<[u8; PAGE_SIZE]>;

/// Byte-addressed RAM from address 0 to `len`, committed page by page.
pub(crate) struct Ram {
    pages: Vec<Option<Page>>,
    len: usize,
}

impl Ram {
    /// `len` bytes of all-zero RAM with no page committed.
    pub(crate) fn new(len: u32) -> Self {
        let len = len as usize;
        Ram {
            pages: (0..len.div_ceil(PAGE_SIZE)).map(|_| None).collect(),
            len,
        }
    }

    /// Size in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether `[addr, addr + n)` lies inside RAM.
    fn contains(&self, addr: u32, n: usize) -> bool {
        (addr as usize)
            .checked_add(n)
            .is_some_and(|end| end <= self.len)
    }

    /// Number of pages materialised so far.
    pub(crate) fn committed_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    fn page_mut(&mut self, index: usize) -> &mut [u8; PAGE_SIZE] {
        self.pages[index].get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// The byte at in-range address `a`.
    fn byte(&self, a: usize) -> u8 {
        self.pages[a >> PAGE_SHIFT]
            .as_ref()
            .map_or(0, |page| page[a & PAGE_MASK])
    }

    /// Reads one byte; `None` outside RAM.
    pub(crate) fn read_u8(&self, addr: u32) -> Option<u8> {
        self.contains(addr, 1).then(|| self.byte(addr as usize))
    }

    /// Writes one byte; `false` outside RAM.
    pub(crate) fn write_u8(&mut self, addr: u32, value: u8) -> bool {
        if !self.contains(addr, 1) {
            return false;
        }
        let a = addr as usize;
        self.page_mut(a >> PAGE_SHIFT)[a & PAGE_MASK] = value;
        true
    }

    /// Reads a little-endian word; `None` unless all four bytes are in RAM.
    #[inline]
    pub(crate) fn read_u32(&self, addr: u32) -> Option<u32> {
        if !self.contains(addr, 4) {
            return None;
        }
        let a = addr as usize;
        let off = a & PAGE_MASK;
        if off <= PAGE_SIZE - 4 {
            return Some(self.pages[a >> PAGE_SHIFT].as_ref().map_or(0, |page| {
                u32::from_le_bytes(page[off..off + 4].try_into().expect("4 bytes"))
            }));
        }
        let bytes = [0, 1, 2, 3].map(|i| self.byte(a + i));
        Some(u32::from_le_bytes(bytes))
    }

    /// Writes a little-endian word; `false` unless all four bytes are in
    /// RAM.
    #[inline]
    pub(crate) fn write_u32(&mut self, addr: u32, value: u32) -> bool {
        if !self.contains(addr, 4) {
            return false;
        }
        let a = addr as usize;
        let off = a & PAGE_MASK;
        if off <= PAGE_SIZE - 4 {
            self.page_mut(a >> PAGE_SHIFT)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_from(addr, &value.to_le_bytes());
        }
        true
    }

    /// Copies `len` bytes out of RAM starting at `addr`; `None` if the
    /// range leaves RAM (checked before anything is allocated).
    pub(crate) fn read_vec(&self, addr: u32, len: u32) -> Option<Vec<u8>> {
        if !self.contains(addr, len as usize) {
            return None;
        }
        let mut out = vec![0; len as usize];
        let mut done = 0;
        while done < out.len() {
            let a = addr as usize + done;
            let off = a & PAGE_MASK;
            let n = (out.len() - done).min(PAGE_SIZE - off);
            // An uncommitted page reads as the zeroes `out` starts with.
            if let Some(page) = &self.pages[a >> PAGE_SHIFT] {
                out[done..done + n].copy_from_slice(&page[off..off + n]);
            }
            done += n;
        }
        Some(out)
    }

    /// Copies `bytes` into RAM at `addr`; `false` (and RAM untouched) if
    /// the range leaves RAM.
    pub(crate) fn write_from(&mut self, addr: u32, bytes: &[u8]) -> bool {
        if !self.contains(addr, bytes.len()) {
            return false;
        }
        let mut done = 0;
        while done < bytes.len() {
            let a = addr as usize + done;
            let off = a & PAGE_MASK;
            let n = (bytes.len() - done).min(PAGE_SIZE - off);
            self.page_mut(a >> PAGE_SHIFT)[off..off + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
        true
    }

    /// Fetches and decodes the instruction at `pc`, with the same
    /// acceptance rules as [`sp32::cfg::fetch`] over a flat RAM image:
    /// word-aligned, every encoded word inside RAM, and decodable.
    pub(crate) fn fetch(&self, pc: u32) -> Option<FetchedInstr> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        let first = self.read_u32(pc)?;
        let size = (encoded_len_words(first) * 4) as u32;
        let ext = if size == 8 {
            Some(self.read_u32(pc.checked_add(4)?)?)
        } else {
            None
        };
        let instr = decode(first, ext).ok()?;
        Some(FetchedInstr { pc, instr, size })
    }

    /// FNV-1a over all `len` bytes, identical to hashing a flat copy.
    pub(crate) fn digest(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut remaining = self.len;
        for page in &self.pages {
            let n = remaining.min(PAGE_SIZE);
            match page {
                Some(page) => {
                    for &byte in &page[..n] {
                        hash ^= u64::from(byte);
                        hash = hash.wrapping_mul(FNV_PRIME);
                    }
                }
                // A zero byte leaves the XOR step a no-op, so an
                // uncommitted page folds to one multiplication.
                None => hash = hash.wrapping_mul(FNV_PRIME.wrapping_pow(n as u32)),
            }
            remaining -= n;
        }
        hash
    }
}
