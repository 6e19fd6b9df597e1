//! Self-contained integrity primitives for the pool format.
//!
//! Capsule headers carry a CRC-32 (IEEE, reflected) so a scan can reject a
//! torn header cheaply; capsule payload sections carry a CRC-64/ECMA over
//! the packed strand bytes; the manifest text and key fingerprints use
//! FNV-1a (64-bit), matching the hash used by the repo's golden
//! conformance tables.

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-64/ECMA (reflected polynomial `0xC96C5795D7870F42`), used for the
/// capsule trailer over the packed strand bytes.
pub fn crc64(data: &[u8]) -> u64 {
    crc64_extend(0, data)
}

/// Continues a CRC-64: `crc64_extend(crc64(a), b) == crc64(a ++ b)`, so a
/// writer can checksum a section as it streams it out.
///
/// Slice-by-8: each step folds eight input bytes through eight tables
/// built at compile time (table `k` advances a byte across `k` more zero
/// bytes), and the tail of fewer than eight bytes goes byte by byte.
pub fn crc64_extend(crc: u64, data: &[u8]) -> u64 {
    const TABLES: [[u64; 256]; 8] = crc64_tables();
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let v = crc ^ u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        crc = TABLES[7][(v & 0xFF) as usize]
            ^ TABLES[6][((v >> 8) & 0xFF) as usize]
            ^ TABLES[5][((v >> 16) & 0xFF) as usize]
            ^ TABLES[4][((v >> 24) & 0xFF) as usize]
            ^ TABLES[3][((v >> 32) & 0xFF) as usize]
            ^ TABLES[2][((v >> 40) & 0xFF) as usize]
            ^ TABLES[1][((v >> 48) & 0xFF) as usize]
            ^ TABLES[0][(v >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u64::from(b)) & 0xFF) as usize];
    }
    !crc
}

const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// FNV-1a 64-bit, the repo's golden-table hash: manifest fingerprints and
/// encryption-key fingerprints.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        // The CRC catalogue check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc64_check_value() {
        // The CRC catalogue check value for CRC-64/XZ (reflected ECMA).
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        for split in 0..=9 {
            let (a, b) = b"123456789".split_at(split);
            assert_eq!(crc64_extend(crc64(a), b), 0x995D_C9BB_DF19_39FA);
        }
    }

    /// The byte-at-a-time CRC-64 the slice-by-8 loop replaced.
    fn crc64_bytewise(crc: u64, data: &[u8]) -> u64 {
        let table = crc64_tables()[0];
        let mut crc = !crc;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ u64::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_table() {
        // Lengths 0-17 cover an empty input, pure tails, one whole word
        // with and without a tail, and two words; every offset into the
        // buffer makes the words unaligned; every split point exercises
        // extending across a word boundary.
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=17 {
                let slice = &data[start..start + len];
                let want = crc64_bytewise(0, slice);
                assert_eq!(crc64(slice), want, "start {start} len {len}");
                for split in 0..=len {
                    let (a, b) = slice.split_at(split);
                    assert_eq!(crc64_extend(crc64(a), b), want, "split {split}");
                    assert_eq!(crc64_extend(crc64_bytewise(0, a), b), want);
                }
            }
        }
        // A long unaligned run, seeded with a non-zero running CRC.
        let long: Vec<u8> = (0..4099u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(
            crc64_extend(0x1234_5678_9ABC_DEF0, &long[3..]),
            crc64_bytewise(0x1234_5678_9ABC_DEF0, &long[3..])
        );
    }

    #[test]
    fn fnv64_check_value() {
        // Classic FNV-1a vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn checksums_differ_on_bit_flip() {
        let a = b"capsule payload".to_vec();
        let mut b = a.clone();
        b[3] ^= 1;
        assert_ne!(crc32(&a), crc32(&b));
        assert_ne!(crc64(&a), crc64(&b));
        assert_ne!(fnv64(&a), fnv64(&b));
    }
}
