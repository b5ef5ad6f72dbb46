//! CRC-32 (IEEE 802.3 polynomial, the zlib/`crc32fast` variant), vendored
//! because the build environment has no registry access. Slicing-by-8:
//! eight compile-time tables fold eight input bytes per step with eight
//! independent lookups, several times the speed of the classic one lookup
//! per byte. The checksum is unchanged, so every segment and log written
//! with the bytewise loop reads back as before. WAL records are checksummed
//! on every append, where a bytewise CRC cost more than encoding the
//! record.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes. Built at compile
/// time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (matches zlib's `crc32(0, ...)`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition, independent of every table.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"datacell"), crc32(b"datacell"));
        assert_ne!(crc32(b"datacell"), crc32(b"datacelk"));
    }

    #[test]
    fn matches_the_bytewise_reference_at_every_length_and_alignment() {
        // A deterministic byte pattern with every bit position exercised.
        let data: Vec<u8> = (0..1_100 + 8u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=1_100 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), reference(bytes), "start {start}, len {len}");
            }
        }
    }
}
