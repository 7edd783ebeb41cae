//! Little-endian encoding helpers and the CRC-32 checksum shared by the WAL
//! and checkpoint formats.
//!
//! Everything here is hand-rolled over `std` — the build environment is
//! offline, so the store vendors no serialization or checksum crates.  The
//! checksum is the IEEE CRC-32 (the polynomial used by gzip/PNG), which
//! guarantees detection of any single-bit error in a record body.

/// IEEE CRC-32 lookup table (reflected polynomial `0xEDB88320`), built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The IEEE CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends a `u32` in little-endian order.
pub(crate) fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub(crate) fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (`u32` byte length + bytes).
pub(crate) fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

/// A bounds-checked reader over a byte slice.  Every method returns `None`
/// instead of panicking when the input is truncated or malformed, so decoders
/// built on it reject corrupt data gracefully.
#[derive(Clone)]
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(slice)
    }

    /// Advances to absolute offset `pos` (forward only).
    pub(crate) fn seek_to(&mut self, pos: usize) -> Option<()> {
        if pos < self.pos || pos > self.bytes.len() {
            return None;
        }
        self.pos = pos;
        Some(())
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("four bytes")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }

    pub(crate) fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_any_single_bit_flip() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let reference = crc32(data);
        let mut copy = data.to_vec();
        for bit in 0..copy.len() * 8 {
            copy[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&copy), reference, "flip of bit {bit} undetected");
            copy[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn cursor_round_trips_scalars_and_strings() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "ligne α");
        let mut cursor = Cursor::new(&out);
        assert_eq!(cursor.u32(), Some(0xDEAD_BEEF));
        assert_eq!(cursor.u64(), Some(u64::MAX - 1));
        assert_eq!(cursor.string().as_deref(), Some("ligne α"));
        assert!(cursor.is_empty());
    }

    #[test]
    fn cursor_rejects_truncation_without_panicking() {
        let mut out = Vec::new();
        put_str(&mut out, "hello");
        // Claim more bytes than are present.
        out[0] = 200;
        let mut cursor = Cursor::new(&out);
        assert_eq!(cursor.string(), None);
        // Invalid UTF-8 payload.
        let bad = [2, 0, 0, 0, 0xFF, 0xFE];
        assert_eq!(Cursor::new(&bad).string(), None);
        // Backward seeks are rejected.
        let mut cursor = Cursor::new(&out);
        cursor.take(3).unwrap();
        assert_eq!(cursor.seek_to(1), None);
        assert_eq!(cursor.seek_to(100), None);
    }
}
