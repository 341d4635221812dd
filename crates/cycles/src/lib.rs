//! Clock-domain newtypes for the STFM simulator.
//!
//! The simulator runs two clock domains: the DRAM channel ticks at the
//! DDR2-800 bus clock (tCK = 2.5 ns) while cores tick at 4 GHz, exactly
//! 10× faster (paper Table 2). Every latency, deadline, and STFM
//! quantity (T_shared, T_interference, slowdown) is defined in one
//! specific domain, and silently mixing them is the classic cycle-level
//! modelling bug. This crate makes the domains part of the type system:
//!
//! * [`DramCycle`] / [`CpuCycle`] — *instants*, points on a domain's
//!   timeline (cycle numbers since simulation start).
//! * [`DramDelta`] / [`CpuDelta`] — *durations*, distances between two
//!   instants of the same domain (timing parameters, latencies).
//! * [`ClockRatio`] — the **only** way to move a value across domains.
//!   Every conversion is an explicit, greppable method call.
//!
//! Same-domain arithmetic is closed and shape-checked (`Instant + Delta
//! → Instant`, `Instant − Instant → Delta`, `Delta ± Delta → Delta`);
//! cross-domain arithmetic does not compile:
//!
//! ```compile_fail
//! use stfm_cycles::{CpuCycle, DramCycle};
//! let d = DramCycle::new(100);
//! let c = CpuCycle::new(1000);
//! let _boom = d - c; // no impl: DramCycle − CpuCycle is meaningless
//! ```
//!
//! ```compile_fail
//! use stfm_cycles::{CpuCycle, DramCycle};
//! fn takes_dram(_: DramCycle) {}
//! takes_dram(CpuCycle::new(7)); // wrong domain: rejected at compile time
//! ```
//!
//! ```compile_fail
//! use stfm_cycles::{CpuDelta, DramDelta};
//! let _boom = DramDelta::new(6) + CpuDelta::new(60); // durations don't mix either
//! ```
//!
//! Nor can an `as` cast smuggle a value in or out — the compiler rejects
//! `as` to or from a non-primitive type (E0605), so `new()`/`get()` are
//! the only doors and no lint is needed to keep them so:
//!
//! ```compile_fail,E0605
//! use stfm_cycles::DramCycle;
//! let _boom = 5u64 as DramCycle;
//! ```
//!
//! ```compile_fail,E0605
//! use stfm_cycles::DramCycle;
//! let _boom = DramCycle::new(5) as u64;
//! ```
//!
//! Raw `u64` literals remain convenient on *either* side (`now + 1`,
//! `t >= 4`): a bare literal carries no domain, so allowing it does not
//! weaken the cross-domain guarantee — only *typed* values refuse to mix.

use std::fmt;

/// Generates one clock domain: an instant type and a delta type with
/// closed same-domain arithmetic. Cross-domain impls are never generated,
/// which is what makes domain mixups compile errors.
macro_rules! define_domain {
    (
        $(#[$imeta:meta])*
        instant = $Instant:ident,
        $(#[$dmeta:meta])*
        delta = $Delta:ident
    ) => {
        $(#[$imeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        #[repr(transparent)]
        pub struct $Instant(u64);

        $(#[$dmeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        #[repr(transparent)]
        pub struct $Delta(u64);

        impl $Instant {
            /// Cycle zero — the start of simulated time.
            pub const ZERO: Self = Self(0);
            /// The largest representable instant.
            pub const MAX: Self = Self(u64::MAX);

            /// Wraps a raw cycle number.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw cycle number.
            #[inline]
            pub const fn get(self) -> u64 {
                self.0
            }

            /// The raw cycle number as a float (for rates and averages).
            #[inline]
            pub const fn as_f64(self) -> f64 {
                self.0 as f64
            }

            /// Instant `delta` before `self`, clamped at cycle zero.
            #[inline]
            pub fn saturating_sub(self, delta: impl Into<$Delta>) -> Self {
                Self(self.0.saturating_sub(delta.into().0))
            }

            /// Elapsed time since `earlier`, clamped at zero if `earlier`
            /// is actually later (e.g. a deadline still in the future).
            #[inline]
            pub const fn saturating_since(self, earlier: Self) -> $Delta {
                $Delta(self.0.saturating_sub(earlier.0))
            }

            /// True when the cycle number is divisible by `n`.
            #[inline]
            pub const fn is_multiple_of(self, n: u64) -> bool {
                self.0 % n == 0
            }
        }

        impl $Delta {
            /// The zero-length duration.
            pub const ZERO: Self = Self(0);
            /// The largest representable duration.
            pub const MAX: Self = Self(u64::MAX);

            /// Wraps a raw cycle count.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw cycle count.
            #[inline]
            pub const fn get(self) -> u64 {
                self.0
            }

            /// The raw cycle count as a float (for rates and averages).
            #[inline]
            pub const fn as_f64(self) -> f64 {
                self.0 as f64
            }

            /// Duration shortened by `other`, clamped at zero.
            #[inline]
            pub fn saturating_sub(self, other: impl Into<Self>) -> Self {
                Self(self.0.saturating_sub(other.into().0))
            }

            /// The instant this duration after cycle zero (useful when a
            /// test treats time as starting at zero).
            #[inline]
            pub const fn after_zero(self) -> $Instant {
                $Instant(self.0)
            }
        }

        impl fmt::Display for $Instant {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl fmt::Display for $Delta {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl From<u64> for $Instant {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<u64> for $Delta {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$Instant> for u64 {
            #[inline]
            fn from(v: $Instant) -> u64 {
                v.0
            }
        }

        impl From<$Delta> for u64 {
            #[inline]
            fn from(v: $Delta) -> u64 {
                v.0
            }
        }

        // Instant + Delta → Instant (and the unit-less u64 convenience).
        impl std::ops::Add<$Delta> for $Instant {
            type Output = $Instant;
            #[inline]
            fn add(self, rhs: $Delta) -> $Instant {
                $Instant(self.0 + rhs.0)
            }
        }

        impl std::ops::Add<u64> for $Instant {
            type Output = $Instant;
            #[inline]
            fn add(self, rhs: u64) -> $Instant {
                $Instant(self.0 + rhs)
            }
        }

        impl std::ops::AddAssign<$Delta> for $Instant {
            #[inline]
            fn add_assign(&mut self, rhs: $Delta) {
                self.0 += rhs.0;
            }
        }

        impl std::ops::AddAssign<u64> for $Instant {
            #[inline]
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        // Instant − Delta → Instant; Instant − Instant → Delta.
        impl std::ops::Sub<$Delta> for $Instant {
            type Output = $Instant;
            #[inline]
            fn sub(self, rhs: $Delta) -> $Instant {
                $Instant(self.0 - rhs.0)
            }
        }

        impl std::ops::Sub<u64> for $Instant {
            type Output = $Instant;
            #[inline]
            fn sub(self, rhs: u64) -> $Instant {
                $Instant(self.0 - rhs)
            }
        }

        impl std::ops::Sub<$Instant> for $Instant {
            type Output = $Delta;
            #[inline]
            fn sub(self, rhs: $Instant) -> $Delta {
                $Delta(self.0 - rhs.0)
            }
        }

        // Delta ± Delta → Delta; Delta × scalar → Delta.
        impl std::ops::Add for $Delta {
            type Output = $Delta;
            #[inline]
            fn add(self, rhs: $Delta) -> $Delta {
                $Delta(self.0 + rhs.0)
            }
        }

        impl std::ops::Add<u64> for $Delta {
            type Output = $Delta;
            #[inline]
            fn add(self, rhs: u64) -> $Delta {
                $Delta(self.0 + rhs)
            }
        }

        impl std::ops::AddAssign for $Delta {
            #[inline]
            fn add_assign(&mut self, rhs: $Delta) {
                self.0 += rhs.0;
            }
        }

        impl std::ops::AddAssign<u64> for $Delta {
            #[inline]
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl std::ops::Sub for $Delta {
            type Output = $Delta;
            #[inline]
            fn sub(self, rhs: $Delta) -> $Delta {
                $Delta(self.0 - rhs.0)
            }
        }

        impl std::ops::Sub<u64> for $Delta {
            type Output = $Delta;
            #[inline]
            fn sub(self, rhs: u64) -> $Delta {
                $Delta(self.0 - rhs)
            }
        }

        impl std::ops::Mul<u64> for $Delta {
            type Output = $Delta;
            #[inline]
            fn mul(self, rhs: u64) -> $Delta {
                $Delta(self.0 * rhs)
            }
        }

        impl std::ops::Mul<$Delta> for u64 {
            type Output = $Delta;
            #[inline]
            fn mul(self, rhs: $Delta) -> $Delta {
                $Delta(self * rhs.0)
            }
        }

        // Unit-less comparisons against raw numbers (both directions):
        // literals carry no domain, so this is safe convenience.
        impl PartialEq<u64> for $Instant {
            #[inline]
            fn eq(&self, other: &u64) -> bool {
                self.0 == *other
            }
        }

        impl PartialEq<$Instant> for u64 {
            #[inline]
            fn eq(&self, other: &$Instant) -> bool {
                *self == other.0
            }
        }

        impl PartialOrd<u64> for $Instant {
            #[inline]
            fn partial_cmp(&self, other: &u64) -> Option<std::cmp::Ordering> {
                self.0.partial_cmp(other)
            }
        }

        impl PartialOrd<$Instant> for u64 {
            #[inline]
            fn partial_cmp(&self, other: &$Instant) -> Option<std::cmp::Ordering> {
                self.partial_cmp(&other.0)
            }
        }

        impl PartialEq<u64> for $Delta {
            #[inline]
            fn eq(&self, other: &u64) -> bool {
                self.0 == *other
            }
        }

        impl PartialEq<$Delta> for u64 {
            #[inline]
            fn eq(&self, other: &$Delta) -> bool {
                *self == other.0
            }
        }

        impl PartialOrd<u64> for $Delta {
            #[inline]
            fn partial_cmp(&self, other: &u64) -> Option<std::cmp::Ordering> {
                self.0.partial_cmp(other)
            }
        }

        impl PartialOrd<$Delta> for u64 {
            #[inline]
            fn partial_cmp(&self, other: &$Delta) -> Option<std::cmp::Ordering> {
                self.partial_cmp(&other.0)
            }
        }
    };
}

define_domain! {
    /// An instant on the DRAM bus clock timeline (DDR2-800: tCK = 2.5 ns).
    instant = DramCycle,
    /// A duration in DRAM bus clock cycles (timing parameters, latencies).
    delta = DramDelta
}

define_domain! {
    /// An instant on the CPU core clock timeline (4 GHz: 0.25 ns/cycle).
    instant = CpuCycle,
    /// A duration in CPU core clock cycles (stall times, round trips).
    delta = CpuDelta
}

/// The frequency ratio between the CPU and DRAM clock domains — the
/// single, explicit point where values cross domains.
///
/// The ratio is constrained to an integral number of CPU cycles per DRAM
/// cycle, matching the paper's setup (4 GHz core, 400 MHz DDR2-800 bus:
/// exactly 10). DRAM→CPU conversions are exact; CPU→DRAM conversions
/// round *down* to the DRAM cycle in which the CPU instant falls.
///
/// ```
/// use stfm_cycles::{ClockRatio, CpuCycle, DramCycle};
/// let r = ClockRatio::PAPER;
/// assert_eq!(r.dram_to_cpu(DramCycle::new(7)), CpuCycle::new(70));
/// assert_eq!(r.cpu_to_dram(CpuCycle::new(79)), DramCycle::new(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockRatio {
    cpu_per_dram: u64,
}

impl ClockRatio {
    /// The paper's configuration: 4 GHz cores over a DDR2-800 bus.
    pub const PAPER: ClockRatio = ClockRatio::new(10);

    /// A ratio of `cpu_per_dram` CPU cycles per DRAM cycle.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) if `cpu_per_dram` is 0.
    #[inline]
    pub const fn new(cpu_per_dram: u64) -> Self {
        assert!(cpu_per_dram > 0, "clock ratio must be positive");
        ClockRatio { cpu_per_dram }
    }

    /// CPU cycles per DRAM cycle, as a raw factor.
    #[inline]
    pub const fn cpu_per_dram(self) -> u64 {
        self.cpu_per_dram
    }

    /// The CPU-clock instant of the start of DRAM cycle `t` (exact).
    #[inline]
    pub const fn dram_to_cpu(self, t: DramCycle) -> CpuCycle {
        CpuCycle(t.0 * self.cpu_per_dram)
    }

    /// The DRAM cycle containing CPU instant `t` (rounds down).
    #[inline]
    pub const fn cpu_to_dram(self, t: CpuCycle) -> DramCycle {
        DramCycle(t.0 / self.cpu_per_dram)
    }

    /// A DRAM-domain duration expressed in CPU cycles (exact).
    #[inline]
    pub const fn dram_delta_to_cpu(self, d: DramDelta) -> CpuDelta {
        CpuDelta(d.0 * self.cpu_per_dram)
    }

    /// A CPU-domain duration expressed in whole DRAM cycles (rounds down).
    #[inline]
    pub const fn cpu_delta_to_dram(self, d: CpuDelta) -> DramDelta {
        DramDelta(d.0 / self.cpu_per_dram)
    }

    /// True when CPU instant `t` lands exactly on a DRAM clock edge.
    #[inline]
    pub const fn is_dram_edge(self, t: CpuCycle) -> bool {
        t.0.is_multiple_of(self.cpu_per_dram)
    }
}

/// CPU cycles per DRAM cycle in the paper's configuration (Table 2:
/// 4 GHz cores, DDR2-800). Kept as a raw factor for loop bounds; actual
/// domain conversions go through [`ClockRatio`].
pub const CPU_CYCLES_PER_DRAM_CYCLE: u64 = ClockRatio::PAPER.cpu_per_dram();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_delta_shapes() {
        let t0 = DramCycle::new(100);
        let d = DramDelta::new(6);
        assert_eq!(t0 + d, DramCycle::new(106));
        assert_eq!(t0 - d, DramCycle::new(94));
        assert_eq!(t0 + d - t0, d);
        let mut t = t0;
        t += d;
        t += 4;
        assert_eq!(t, 110);
        assert_eq!(d + d, 12);
        assert_eq!(d * 3, DramDelta::new(18));
        assert_eq!(3 * d, DramDelta::new(18));
    }

    #[test]
    fn saturating_ops_clamp_at_zero() {
        let early = CpuCycle::new(5);
        assert_eq!(early.saturating_sub(CpuDelta::new(9)), CpuCycle::ZERO);
        assert_eq!(early.saturating_sub(2), CpuCycle::new(3));
        assert_eq!(early.saturating_since(CpuCycle::new(9)), CpuDelta::ZERO);
        assert_eq!(CpuCycle::new(9).saturating_since(early), CpuDelta::new(4));
        assert_eq!(CpuDelta::new(3).saturating_sub(7), CpuDelta::ZERO);
    }

    #[test]
    fn unitless_comparisons() {
        assert!(DramCycle::new(7) > 6);
        assert!(6 < DramCycle::new(7));
        assert_eq!(DramDelta::new(18), 18);
        assert!(18 <= DramDelta::new(18));
        assert_eq!(CpuCycle::new(0), CpuCycle::ZERO);
    }

    #[test]
    fn conversions_are_exact_and_floor() {
        let r = ClockRatio::PAPER;
        assert_eq!(r.cpu_per_dram(), CPU_CYCLES_PER_DRAM_CYCLE);
        assert_eq!(r.dram_to_cpu(DramCycle::new(3)), CpuCycle::new(30));
        assert_eq!(r.cpu_to_dram(CpuCycle::new(30)), DramCycle::new(3));
        assert_eq!(r.cpu_to_dram(CpuCycle::new(39)), DramCycle::new(3));
        assert_eq!(r.dram_delta_to_cpu(DramDelta::new(4)), CpuDelta::new(40));
        assert_eq!(r.cpu_delta_to_dram(CpuDelta::new(45)), DramDelta::new(4));
        assert!(r.is_dram_edge(CpuCycle::new(40)));
        assert!(!r.is_dram_edge(CpuCycle::new(41)));
        // Round trip through CPU domain is exact for DRAM-born values.
        let t = DramCycle::new(12345);
        assert_eq!(r.cpu_to_dram(r.dram_to_cpu(t)), t);
    }

    #[test]
    fn display_prints_raw_numbers() {
        assert_eq!(DramCycle::new(42).to_string(), "42");
        assert_eq!(CpuDelta::new(7).to_string(), "7");
        assert_eq!(format!("{:>5}", DramDelta::new(9)), "    9");
    }

    #[test]
    fn after_zero_reads_delta_as_instant() {
        assert_eq!(DramDelta::new(18).after_zero(), DramCycle::new(18));
    }
}
