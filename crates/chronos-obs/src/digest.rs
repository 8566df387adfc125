//! The FNV-1a 64 accumulator behind every pinned digest in the workspace:
//! decision traces, serve decisions, allocation ledgers and report JSON.

/// FNV-1a 64-bit hash state. Bytes are hashed in the order written, so a
/// digest is reproducible across hosts as long as callers write integers
/// in a fixed byte order (the workspace uses little-endian) and never
/// floats or wall-clock readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Hashes `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash as 16 lowercase hex digits.
    #[must_use]
    pub fn finish_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Digest {
    /// An empty digest (the FNV-1a 64 offset basis).
    fn default() -> Self {
        Digest(Self::OFFSET_BASIS)
    }
}

#[cfg(test)]
mod tests {
    use super::Digest;

    fn hex(bytes: &[u8]) -> String {
        let mut digest = Digest::default();
        digest.write(bytes);
        digest.finish_hex()
    }

    #[test]
    fn matches_the_fnv1a_64_reference_vectors() {
        assert_eq!(hex(b""), "cbf29ce484222325");
        assert_eq!(hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(hex(b"foobar"), "85944171f73967e8");
        // Writes accumulate: split input hashes like the whole.
        let mut split = Digest::default();
        split.write(b"foo");
        split.write(b"bar");
        assert_eq!(split.finish_hex(), hex(b"foobar"));
    }
}
