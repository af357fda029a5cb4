//! Paged RAM must be indistinguishable from one flat byte array.
//!
//! Random sequences of byte, word and bulk reads and writes run against a
//! [`Machine`] and against a flat `Vec<u8>` model side by side. Addresses
//! cluster around 4 KiB page boundaries (so word accesses and bulk copies
//! straddle pages), reach pages nothing ever wrote, and run past the end
//! of RAM (where every access must raise the same `Fault::Bus`). Every
//! result is compared, and at the end so are `ram_digest` and the set of
//! pages the writes committed.

use proptest::prelude::*;
use sp_emu::{Fault, Machine, MachineConfig};
use std::collections::BTreeSet;

const PAGE: u32 = 4096;
/// Four whole pages plus a partial fifth, so the tail page is short.
const RAM_SIZE: u32 = 4 * PAGE + 12;

#[derive(Debug, Clone)]
enum Op {
    ReadByte(u32),
    WriteByte(u32, u8),
    ReadWord(u32),
    WriteWord(u32, u32),
    ReadBytes(u32, u32),
    WriteBytes(u32, Vec<u8>),
}

fn arb_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Just below a page boundary: words and bulk copies straddle it.
        (0u32..5, PAGE - 8..PAGE).prop_map(|(page, off)| page * PAGE + off),
        // Just above a page boundary.
        (0u32..5, 0u32..8).prop_map(|(page, off)| page * PAGE + off),
        // Around the end of RAM: partial and wholly out-of-range accesses.
        RAM_SIZE - 8..RAM_SIZE + 8,
        // Anywhere in RAM.
        0..RAM_SIZE,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_addr().prop_map(Op::ReadByte),
        (arb_addr(), any::<u8>()).prop_map(|(a, v)| Op::WriteByte(a, v)),
        arb_addr().prop_map(Op::ReadWord),
        (arb_addr(), any::<u32>()).prop_map(|(a, v)| Op::WriteWord(a, v)),
        (arb_addr(), 0u32..9000).prop_map(|(a, n)| Op::ReadBytes(a, n)),
        (arb_addr(), proptest::collection::vec(any::<u8>(), 0..6000))
            .prop_map(|(a, bytes)| Op::WriteBytes(a, bytes)),
    ]
}

/// The flat reference: one `Vec<u8>`, with the machine's bus rules.
struct Flat {
    bytes: Vec<u8>,
    /// Pages any successful non-empty write touched.
    written: BTreeSet<u32>,
}

impl Flat {
    fn range(&self, addr: u32, len: usize) -> Result<std::ops::Range<usize>, Fault> {
        let start = addr as usize;
        match start.checked_add(len) {
            Some(end) if end <= self.bytes.len() => Ok(start..end),
            _ => Err(Fault::Bus { addr }),
        }
    }

    fn read(&self, addr: u32, len: usize) -> Result<Vec<u8>, Fault> {
        self.range(addr, len).map(|r| self.bytes[r].to_vec())
    }

    fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), Fault> {
        let r = self.range(addr, data.len())?;
        if !data.is_empty() {
            let (first, last) = (r.start as u32 / PAGE, (r.end as u32 - 1) / PAGE);
            self.written.extend(first..=last);
        }
        self.bytes[r].copy_from_slice(data);
        Ok(())
    }

    fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in &self.bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

fn word(bytes: Vec<u8>) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn paged_ram_matches_a_flat_array(ops in proptest::collection::vec(arb_op(), 1..48)) {
        let mut machine = Machine::new(MachineConfig {
            ram_size: RAM_SIZE,
            ..MachineConfig::default()
        });
        let mut flat = Flat {
            bytes: vec![0; RAM_SIZE as usize],
            written: BTreeSet::new(),
        };
        prop_assert_eq!(machine.committed_ram_pages(), 0);
        prop_assert_eq!(machine.ram_digest(), flat.digest());
        for op in &ops {
            match op {
                Op::ReadByte(a) => prop_assert_eq!(
                    machine.read_byte(*a),
                    flat.read(*a, 1).map(|b| b[0]),
                    "{:?}", op
                ),
                Op::WriteByte(a, v) => prop_assert_eq!(
                    machine.write_byte(*a, *v),
                    flat.write(*a, &[*v]),
                    "{:?}", op
                ),
                Op::ReadWord(a) => prop_assert_eq!(
                    machine.read_word(*a),
                    flat.read(*a, 4).map(word),
                    "{:?}", op
                ),
                Op::WriteWord(a, v) => prop_assert_eq!(
                    machine.write_word(*a, *v),
                    flat.write(*a, &v.to_le_bytes()),
                    "{:?}", op
                ),
                Op::ReadBytes(a, n) => prop_assert_eq!(
                    machine.read_bytes(*a, *n),
                    flat.read(*a, *n as usize),
                    "read_bytes({:#x}, {})", a, n
                ),
                Op::WriteBytes(a, bytes) => prop_assert_eq!(
                    machine.write_bytes(*a, bytes),
                    flat.write(*a, bytes),
                    "write_bytes({:#x}, {} bytes)", a, bytes.len()
                ),
            }
        }
        prop_assert_eq!(machine.ram_digest(), flat.digest());
        prop_assert_eq!(machine.committed_ram_pages(), flat.written.len());
    }
}

#[test]
fn untouched_default_ram_digests_like_a_zeroed_megabyte() {
    let machine = Machine::new(MachineConfig::default());
    let flat = Flat {
        bytes: vec![0; machine.ram_size() as usize],
        written: BTreeSet::new(),
    };
    assert_eq!(machine.ram_digest(), flat.digest());
    assert_eq!(machine.committed_ram_pages(), 0);
}

#[test]
fn reads_never_commit_pages() {
    let mut machine = Machine::new(MachineConfig::default());
    assert_eq!(machine.read_word(0x1ffe), Ok(0));
    assert_eq!(
        machine.read_bytes(0, 3 * PAGE).unwrap(),
        vec![0; 3 * PAGE as usize]
    );
    assert_eq!(machine.committed_ram_pages(), 0);
    // An out-of-range bulk read faults before allocating its buffer.
    assert_eq!(
        machine.read_bytes(0x10, u32::MAX),
        Err(Fault::Bus { addr: 0x10 })
    );
    // A word straddling a boundary commits both pages it touches.
    machine.write_word(0x1ffe, 0xa1b2_c3d4).unwrap();
    assert_eq!(machine.committed_ram_pages(), 2);
    assert_eq!(machine.read_word(0x1ffe), Ok(0xa1b2_c3d4));
    assert_eq!(machine.read_byte(0x2001), Ok(0xa1));
}
