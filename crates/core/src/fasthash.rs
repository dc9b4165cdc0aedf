//! A fixed-key hasher for the monitor's hot maps.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-process
//! key: robust against keys an adversary chooses, but costly for the
//! small integer keys the monitor hashes on every trap-and-map fault
//! (`System::page_meta`, keyed by page number) and every cross-cubicle
//! call (`SysStats::call_edges`, keyed by cubicle pair). Those keys are
//! produced by the simulation itself, so a multiply-rotate hash (the
//! FxHash construction) is enough.
//!
//! Iteration order of a map built on it is still unspecified — it
//! depends on capacity and insertion history — so the determinism lint
//! keeps treating these maps as hash-ordered.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-mixed high bits (FxHash's 64-bit constant).
const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher over 64-bit words.
#[derive(Clone, Copy, Default, Debug)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FastHasher`]: spell a map as
/// `HashMap<K, V, FastBuildHasher>` and create it with `default()`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_across_hasher_instances() {
        assert_eq!(hash_of(&(3u16, 7u16)), hash_of(&(3u16, 7u16)));
        assert_eq!(hash_of(&0xdead_beefu64), hash_of(&0xdead_beefu64));
    }

    #[test]
    fn pair_order_matters() {
        assert_ne!(hash_of(&(1u16, 2u16)), hash_of(&(2u16, 1u16)));
    }

    #[test]
    fn consecutive_keys_spread_over_low_bits() {
        // hashbrown picks buckets from the low bits: consecutive page
        // numbers must land in distinct buckets of a 1024-slot table.
        let mut seen = std::collections::BTreeSet::new();
        for page in 0u64..1024 {
            seen.insert(hash_of(&page) & 1023);
        }
        assert_eq!(seen.len(), 1024);
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = FastHasher::default();
        a.write(b"abcdefghi");
        let mut b = FastHasher::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut m: HashMap<u64, u64, FastBuildHasher> = HashMap::default();
        for k in 0..10_000u64 {
            *m.entry(k % 97).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 97);
        assert_eq!(m[&0], 104);
    }
}
