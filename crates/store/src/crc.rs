//! CRC-32 (IEEE 802.3 polynomial, reflected), table-driven and std-only.
//!
//! Every store record's payload is checksummed so recovery can tell a
//! torn or bit-rotted record from a valid one without trusting the length
//! prefix alone.
//!
//! The checksum is computed slicing-by-8: eight derived tables fold eight
//! input bytes per step, so recovery's scan over a whole store file costs
//! about a quarter of one table lookup per byte. The polynomial and the
//! checksums are exactly those of the classic bytewise table.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state of byte `b` followed by `k` zero bytes.
const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = tables();

/// CRC-32 (IEEE) of `bytes` — the checksum carried in every store
/// record's header.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = crc32(b"synchronous computation");
        let mut bytes = b"synchronous computation".to_vec();
        for i in 0..bytes.len() {
            bytes[i] ^= 1;
            assert_ne!(crc32(&bytes), base, "flip at byte {i} undetected");
            bytes[i] ^= 1;
        }
    }
}
