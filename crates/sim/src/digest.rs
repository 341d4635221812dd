//! FNV-1a digests over experiment outputs.
//!
//! One 64-bit FNV-1a hasher serves three consumers that all need the same
//! property — a cheap, dependency-free, platform-stable fingerprint:
//!
//! * [`crate::oracle::completion_digest`], whose values over the
//!   serviced-request streams of fixed workloads are pinned in
//!   `crates/sim/tests/event_equivalence.rs` and `tests/rank_cache.rs`;
//! * the sweep runner's content-addressed result cache, which keys
//!   persisted results by the digest of the canonicalized spec cell;
//! * the service-scale determinism tests, which compare whole result-line
//!   streams across execution paths by digest.

/// Incremental 64-bit FNV-1a hasher.
///
/// # Example
///
/// ```
/// use stfm_sim::digest::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_bytes(b"stfm");
/// h.write_u64(42);
/// assert_eq!(h.finish(), {
///     let mut h2 = Fnv64::new();
///     h2.write_bytes(b"stfm");
///     h2.write_u64(42);
///     h2.finish()
/// });
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 { state: OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Absorbs a `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a string's UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a digest of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// One-shot FNV-1a digest of a string, formatted as the fixed-width hex
/// key used by the persistent result cache.
pub fn hex_digest(s: &str) -> String {
    format!("{:016x}", fnv1a(s.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write_str("foo");
        h.write_str("bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn hex_key_is_fixed_width() {
        let k = hex_digest("");
        assert_eq!(k.len(), 16);
        assert_eq!(k, "cbf29ce484222325");
    }

    #[test]
    fn u64_writes_little_endian() {
        let mut h = Fnv64::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
