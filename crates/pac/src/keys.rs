//! The five PA key registers.
//!
//! ARMv8.3 defines five 128-bit keys, banked in system registers that only
//! EL1 (the kernel) can write: two instruction keys (`APIAKey`, `APIBKey`),
//! two data keys (`APDAKey`, `APDBKey`), and the generic key (`APGAKey`).
//! The RSTI threat model (§3) trusts the kernel to generate, manage, and
//! store them — the user-level attacker can never read them. The VM
//! enforces that by keeping [`PacKeys`] outside the attacker-addressable
//! memory space.

use rsti_rng::Rng64;

/// Identifies one of the five key registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyId {
    /// Instruction key A.
    Ia,
    /// Instruction key B.
    Ib,
    /// Data key A (RSTI's data-pointer key; `pacda`/`autda`).
    Da,
    /// Data key B.
    Db,
    /// Generic key (`pacga`).
    Ga,
}

impl KeyId {
    /// All key ids, in register order.
    pub const ALL: [KeyId; 5] = [KeyId::Ia, KeyId::Ib, KeyId::Da, KeyId::Db, KeyId::Ga];

    /// The register's mnemonic suffix (`da` as in `pacda`/`autda`), the
    /// label incidents carry.
    pub fn name(self) -> &'static str {
        match self {
            KeyId::Ia => "ia",
            KeyId::Ib => "ib",
            KeyId::Da => "da",
            KeyId::Db => "db",
            KeyId::Ga => "ga",
        }
    }
}

/// A full bank of PA keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacKeys {
    ia: u128,
    ib: u128,
    da: u128,
    db: u128,
    ga: u128,
}

impl PacKeys {
    /// Generates a fresh random key bank (what the kernel does at `exec`).
    pub fn random(rng: &mut Rng64) -> Self {
        PacKeys {
            ia: rng.next_u128(),
            ib: rng.next_u128(),
            da: rng.next_u128(),
            db: rng.next_u128(),
            ga: rng.next_u128(),
        }
    }

    /// A fixed, documented key bank for reproducible tests and benches.
    /// Real deployments must use [`PacKeys::random`].
    pub fn test_keys() -> Self {
        PacKeys {
            ia: 0x0011_2233_4455_6677_8899_AABB_CCDD_EEFF,
            ib: 0x1122_3344_5566_7788_99AA_BBCC_DDEE_FF00,
            da: 0x2233_4455_6677_8899_AABB_CCDD_EEFF_0011,
            db: 0x3344_5566_7788_99AA_BBCC_DDEE_FF00_1122,
            ga: 0x4455_6677_8899_AABB_CCDD_EEFF_0011_2233,
        }
    }

    /// The 128-bit key behind a register id.
    pub fn key(&self, id: KeyId) -> u128 {
        match id {
            KeyId::Ia => self.ia,
            KeyId::Ib => self.ib,
            KeyId::Da => self.da,
            KeyId::Db => self.db,
            KeyId::Ga => self.ga,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_keys_are_distinct_across_registers() {
        let mut rng = Rng64::seed_from_u64(7);
        let k = PacKeys::random(&mut rng);
        let all: Vec<u128> = KeyId::ALL.iter().map(|&id| k.key(id)).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn test_keys_are_stable() {
        assert_eq!(PacKeys::test_keys(), PacKeys::test_keys());
        assert_ne!(PacKeys::test_keys().key(KeyId::Da), PacKeys::test_keys().key(KeyId::Db));
    }
}
