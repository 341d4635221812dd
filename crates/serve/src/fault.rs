//! Deterministic, seeded fault injection (behind the `fault-inject`
//! feature).
//!
//! A [`FaultPlan`] decides, purely from a seed and a cell's
//! content-address key, which faults strike which cells: worker panics,
//! slow cells (timeouts) and cache write failures.
//! Decisions are per-key hashes, so they are independent of worker
//! count, completion order, and retry interleaving — the injected run is
//! exactly reproducible, which is what lets the harness assert that the
//! transcript of *unaffected* cells is byte-identical to a clean run.
//!
//! The plan never touches the code under test directly: the serve worker
//! loop consults it at explicit injection points (`should_panic`,
//! `slow_attempt_ms`), and the cache exposes a write-fault
//! hook wired from [`FaultPlan::fails_cache_write`]. Mid-stream client
//! disconnects are injected at the harness level (a writer that starts
//! failing), not here.

use stfm_sim::digest::fnv1a;

/// Per-key fault decisions derived from one seed. All rates are
/// "1 in N" (0 = never).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Base seed mixed into every decision.
    pub seed: u64,
    /// 1-in-N cells whose first simulation attempt panics.
    pub panic_1_in: u64,
    /// 1-in-N cells whose *first* attempt is slow (the retry is fast, so
    /// these cells recover via the bounded retry).
    pub slow_once_1_in: u64,
    /// 1-in-N cells where *every* attempt is slow (these cells time out
    /// for good).
    pub slow_always_1_in: u64,
    /// Injected delay for slow attempts, in milliseconds.
    pub slow_ms: u64,
    /// 1-in-N cells whose result-cache disk write is dropped.
    pub cache_write_fail_1_in: u64,
}

/// splitmix64 finalizer: a cheap, well-mixed hash for decision bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled; set rates via
    /// struct update syntax.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// One decision stream per (key, salt): hashes the key, mixes in the
    /// seed and the per-fault salt, and samples 1-in-N.
    fn fires(&self, key: &str, salt: u64, one_in: u64) -> bool {
        if one_in == 0 {
            return false;
        }
        let h = fnv1a(key.as_bytes());
        mix(h ^ self.seed.wrapping_mul(0x517c_c1b7_2722_0a95) ^ salt).is_multiple_of(one_in)
    }

    /// Whether this cell's first simulation attempt panics.
    #[must_use]
    pub fn should_panic(&self, key: &str) -> bool {
        self.fires(key, 0x01, self.panic_1_in)
    }

    /// Injected delay in milliseconds for `attempt` (0-based) on this
    /// cell, or 0 for no delay. Panic takes precedence over slowness so
    /// each cell exercises exactly one fault class per attempt.
    #[must_use]
    pub fn slow_attempt_ms(&self, key: &str, attempt: u32) -> u64 {
        if self.should_panic(key) {
            return 0;
        }
        if self.fires(key, 0x02, self.slow_always_1_in) {
            return self.slow_ms;
        }
        if attempt == 0 && self.fires(key, 0x03, self.slow_once_1_in) {
            return self.slow_ms;
        }
        0
    }

    /// Whether this cell's result-cache disk write is dropped.
    #[must_use]
    pub fn fails_cache_write(&self, key: &str) -> bool {
        self.fires(key, 0x04, self.cache_write_fail_1_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_key_local() {
        let plan = FaultPlan {
            panic_1_in: 3,
            slow_once_1_in: 3,
            slow_ms: 10,
            cache_write_fail_1_in: 2,
            ..FaultPlan::new(42)
        };
        for key in ["00aa", "bb11", "cc22", "dd33"] {
            assert_eq!(plan.should_panic(key), plan.should_panic(key));
            assert_eq!(plan.slow_attempt_ms(key, 0), plan.slow_attempt_ms(key, 0));
            assert_eq!(plan.fails_cache_write(key), plan.fails_cache_write(key));
        }
    }

    #[test]
    fn zero_rate_never_fires_and_rates_do_fire() {
        let quiet = FaultPlan::new(7);
        let noisy = FaultPlan {
            panic_1_in: 1,
            slow_always_1_in: 1,
            slow_ms: 5,
            ..FaultPlan::new(7)
        };
        for i in 0..64u64 {
            let key = format!("{i:016x}");
            assert!(!quiet.should_panic(&key));
            assert_eq!(quiet.slow_attempt_ms(&key, 0), 0);
            assert!(!quiet.fails_cache_write(&key));
            assert!(noisy.should_panic(&key), "1-in-1 must always fire");
            // Panic precedence: a panicking cell is never also slow.
            assert_eq!(noisy.slow_attempt_ms(&key, 0), 0);
        }
    }

    #[test]
    fn slow_once_affects_only_the_first_attempt() {
        let plan = FaultPlan {
            slow_once_1_in: 1,
            slow_ms: 30,
            ..FaultPlan::new(1)
        };
        assert_eq!(plan.slow_attempt_ms("feed", 0), 30);
        assert_eq!(plan.slow_attempt_ms("feed", 1), 0, "retry must be fast");
    }

    #[test]
    fn seeds_produce_different_strike_sets() {
        let a = FaultPlan {
            panic_1_in: 4,
            ..FaultPlan::new(1)
        };
        let b = FaultPlan {
            panic_1_in: 4,
            ..FaultPlan::new(2)
        };
        let hits = |p: &FaultPlan| -> Vec<bool> {
            (0..256u64)
                .map(|i| p.should_panic(&format!("{i:016x}")))
                .collect()
        };
        assert_ne!(hits(&a), hits(&b), "seed must steer the strike set");
    }
}
