//! Host-speed calibration.
//!
//! The host's speed drifts by tens of percent over minutes, and a
//! wall-clock metric drifts with it. After every timed call the benchmark
//! runs one reference work unit that touches the same kinds of host
//! resource the fleet does: a SHA-1 pass (compute), zeroed allocations
//! touched page by page (memory and page faults) and channel round trips
//! with a freshly spawned thread (thread start-up and wake-ups). The
//! end-to-end timings are reported at reference host speed: each call's
//! time is scaled by [`REFERENCE_UNIT_S`] over the unit's time measured
//! right after it.
//!
//! The unit uses only this file and `std`, never the program under test,
//! so a change to the program cannot move its own yardstick.

use std::sync::mpsc::channel;
use std::time::Instant;

/// Reference-unit time of the host the benchmark was tuned on (a 2-vCPU
/// Xeon VM): the median of the unit's times there.
pub const REFERENCE_UNIT_S: f64 = 0.006;

const SHA1_BYTES: usize = 1 << 20;
const ALLOCATIONS: usize = 8;
const ALLOCATION_BYTES: usize = 1 << 20;
const PAGE: usize = 4096;
const ROUND_TRIPS: u32 = 300;

/// The reference work unit and the times it took.
pub struct HostProbe {
    buf: Vec<u8>,
    sha1_rates: Vec<f64>,
    units: Vec<f64>,
}

impl HostProbe {
    /// A probe whose buffer is allocated at its first unit, so that a
    /// peak-memory reading taken before then does not include it.
    pub fn new() -> Self {
        HostProbe {
            buf: Vec::new(),
            sha1_rates: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Runs the unit once; returns the host's slowdown against the
    /// reference host (`> 1` means slower).
    pub fn slowdown(&mut self) -> f64 {
        if self.buf.is_empty() {
            self.buf = (0..SHA1_BYTES as u32).map(|i| (i * 31 + 7) as u8).collect();
        }
        let began = Instant::now();
        std::hint::black_box(sha1(std::hint::black_box(&self.buf)));
        let sha1_s = began.elapsed().as_secs_f64();
        for _ in 0..ALLOCATIONS {
            let mut page = vec![0u8; ALLOCATION_BYTES];
            for i in (0..ALLOCATION_BYTES).step_by(PAGE) {
                page[i] = 1;
            }
            std::hint::black_box(&page);
        }
        ping_pong();
        let unit = began.elapsed().as_secs_f64();
        self.sha1_rates.push(SHA1_BYTES as f64 / 1e6 / sha1_s);
        self.units.push(unit);
        unit / REFERENCE_UNIT_S
    }

    /// Median SHA-1 throughput of the units run, in MB/s (10^6 bytes/s).
    pub fn sha1_mb_per_s(&self) -> f64 {
        crate::stats::median(&self.sha1_rates)
    }

    /// Median time of the units run, in seconds.
    pub fn unit_s(&self) -> f64 {
        crate::stats::median(&self.units)
    }
}

/// `ROUND_TRIPS` messages echoed by a freshly spawned thread.
fn ping_pong() {
    let (to_echo, echo_in) = channel::<u32>();
    let (echo_out, from_echo) = channel::<u32>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for x in echo_in {
                if echo_out.send(x).is_err() {
                    break;
                }
            }
        });
        for i in 0..ROUND_TRIPS {
            to_echo.send(i).expect("echo thread is alive");
            from_echo.recv().expect("echo thread is alive");
        }
        drop(to_echo);
    });
}

/// SHA-1 (FIPS 180-4) of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [
        0x6745_2301,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];
    let whole = data.len() - data.len() % 64;
    let mut tail = data[whole..].to_vec();
    tail.push(0x80);
    while tail.len() % 64 != 56 {
        tail.push(0);
    }
    tail.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in data[..whole].chunks_exact(64).chain(tail.chunks_exact(64)) {
        let mut w = [0u32; 80];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = h;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            (e, d, c, b, a) = (d, c, b.rotate_left(30), a, t);
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e]) {
            *x = x.wrapping_add(y);
        }
    }
    let mut out = [0u8; 20];
    for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytan_crypto::{Digest, Sha1};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha1_known_answers() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        let two_blocks = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            hex(&sha1(two_blocks)),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn sha1_agrees_with_the_program_at_every_padding_length() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(
                sha1(&data[..len]).to_vec(),
                Sha1::digest(&data[..len]),
                "{len}"
            );
        }
    }

    #[test]
    fn probe_records_each_unit() {
        let mut probe = HostProbe::new();
        assert!(probe.slowdown() > 0.0);
        assert!(probe.slowdown() > 0.0);
        assert_eq!(probe.units.len(), 2);
        assert!(probe.sha1_mb_per_s() > 0.0 && probe.unit_s() > 0.0);
    }
}
