//! A hasher for integer ids on hot paths.
//!
//! `std`'s default SipHash-1-3 guards a table against keys chosen to
//! collide. The tables that use [`IdHasher`] hash ids the process
//! assigns itself (customer and vendor indexes), and they
//! are only probed, never iterated into an output, so no result can
//! depend on the hasher. [`IdHasher`] folds up to two `u32` words into
//! one `u64` without loss and runs MurmurHash3's 64-bit finalizer over
//! it: a few multiply-shifts per probe instead of SipHash's rounds. Its
//! state starts from a seed drawn once per process from
//! [`RandomState`], so bucket layouts still differ between runs.
//!
//! Declarations spell the hasher out, as in
//! `HashSet<(u32, u32), BuildHasherDefault<IdHasher>>`, rather than
//! hide it behind an alias, so every declaration shows which hasher it
//! uses. Tables on this hasher are probed, never iterated into an
//! output.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The seed every [`IdHasher`] starts from, drawn on first use.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// A hasher for integer keys: `u32` ids and pairs of them. Build tables
/// with `BuildHasherDefault<IdHasher>`. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher(u64);

impl Default for IdHasher {
    #[inline]
    fn default() -> Self {
        IdHasher(process_seed())
    }
}

impl Hasher for IdHasher {
    /// Rotate the state by half a word, then xor the word in: two `u32`
    /// writes `a`, `b` leave `seed ^ (a << 32 | b)`, a distinct state
    /// for every pair.
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(32) ^ n;
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    /// Other keys, eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// MurmurHash3's `fmix64`: a bijection in which every output bit
    /// depends on every state bit, so the table's low bucket bits and
    /// high control bits both see the whole key.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ h >> 33
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasherDefault, Hash};

    fn hash<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Equal keys hash equal within a process; distinct id pairs, from
    /// dense ranges and from the edges of `u32`, never collide, since
    /// the fold is lossless and the finalizer a bijection.
    #[test]
    fn id_pairs_hash_without_collisions() {
        assert_eq!(hash(&(3u32, 7u32)), hash(&(3u32, 7u32)));
        let edges = [0, 1, 2, 0xffff, 0x1_0000, u32::MAX - 1, u32::MAX];
        let keys: Vec<(u32, u32)> = (0..64u32)
            .flat_map(|a| (0..64u32).map(move |b| (a, b)))
            .chain(
                edges
                    .iter()
                    .flat_map(|&a| edges.iter().map(move |&b| (a, b))),
            )
            .collect();
        let hashes: HashSet<u64> = keys.iter().map(hash).collect();
        let distinct: HashSet<(u32, u32)> = keys.iter().copied().collect();
        assert_eq!(hashes.len(), distinct.len());
        assert_ne!(hash(&(1u32, 2u32)), hash(&(2u32, 1u32)));
        // Byte-wise keys take the eight-byte fallback.
        assert_eq!(hash(&"id"), hash(&"id"));
        assert_ne!(hash(&"id"), hash(&"di"));
    }
}
