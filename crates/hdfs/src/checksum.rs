//! CRC-32 (IEEE 802.3 polynomial) used for block and SequenceFile
//! checksums, matching Hadoop's use of CRC32 for data integrity.
//!
//! Slicing-by-8: eight 256-entry tables, built at compile time, fold
//! eight input bytes per step. Table 0 is the classic byte-at-a-time
//! table; table `k` advances a byte's contribution by `k` more zero
//! bytes, so the eight lookups of one step are independent.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Compute the CRC-32 of `data` (polynomial 0xEDB88320, init 0xFFFFFFFF).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition the tables are checked against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn tables_agree_with_the_bitwise_definition() {
        // xorshift64*: a fixed, dependency-free byte stream.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        };
        // Every length around the 8-byte step, including the remainders.
        let short: Vec<u8> = (0..64).map(|_| next()).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&short[..len]), crc32_bitwise(&short[..len]), "{len}");
        }
        // Buffers of up to 4 KiB at every start offset 0..8.
        for _ in 0..40 {
            let len = 1 + ((next() as usize) << 4 | (next() as usize & 15));
            let buf: Vec<u8> = (0..len + 8).map(|_| next()).collect();
            for start in 0..8 {
                let part = &buf[start..start + len];
                assert_eq!(crc32(part), crc32_bitwise(part), "len {len} at {start}");
            }
        }
    }
}
