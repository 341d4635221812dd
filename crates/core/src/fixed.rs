//! Hardware-style fixed-point arithmetic.
//!
//! The paper's STFM implementation stores each thread's `Slowdown` and the
//! `α` threshold in 8-bit-fraction fixed-point registers (Table 1) and
//! computes with adders, shifters and approximate dividers. [`Fx8`] mirrors
//! that: an unsigned value with 8 fractional bits. Using it (rather than
//! `f64`) for the slowdown pipeline keeps the reproduction faithful to what
//! the proposed hardware could actually compute.

use std::fmt;

/// Unsigned fixed-point number with 8 fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx8(u32);

impl Fx8 {
    /// Number of fractional bits.
    pub const FRAC_BITS: u32 = 8;
    /// The value 1.0.
    pub const ONE: Fx8 = Fx8(1 << Self::FRAC_BITS);
    /// The value 0.
    pub const ZERO: Fx8 = Fx8(0);
    /// Largest representable value (saturation target).
    pub const MAX: Fx8 = Fx8(u32::MAX);

    /// Creates a fixed-point value from its raw representation.
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        Fx8(raw)
    }

    /// The raw representation (value × 2^8).
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Converts from `f64`, saturating to `[0, MAX]`.
    ///
    /// Intended for configuration values like `α = 1.10`; the slowdown
    /// pipeline itself never goes through floating point.
    pub fn from_f64(v: f64) -> Self {
        if !v.is_finite() || v <= 0.0 {
            return Fx8::ZERO;
        }
        let scaled = v * f64::from(1u32 << Self::FRAC_BITS);
        if scaled >= f64::from(u32::MAX) {
            Fx8::MAX
        } else {
            Fx8(scaled.round() as u32)
        }
    }

    /// Converts to `f64` (exact: the mantissa always fits).
    #[inline]
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / f64::from(1u32 << Self::FRAC_BITS)
    }

    /// Fixed-point ratio of two counters, `num / den`, saturating.
    /// Returns [`Fx8::MAX`] when `den` is zero — the hardware analogue of
    /// an overflowing divider.
    #[inline]
    pub fn from_ratio(num: u64, den: u64) -> Self {
        if den == 0 {
            return Fx8::MAX;
        }
        let q = (num << Self::FRAC_BITS) / den;
        if q > u64::from(u32::MAX) {
            Fx8::MAX
        } else {
            Fx8(q as u32)
        }
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Fx8) -> Fx8 {
        Fx8(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (floors at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: Fx8) -> Fx8 {
        Fx8(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication.
    #[inline]
    pub fn saturating_mul(self, rhs: Fx8) -> Fx8 {
        let wide = (u64::from(self.0) * u64::from(rhs.0)) >> Self::FRAC_BITS;
        if wide > u64::from(u32::MAX) {
            Fx8::MAX
        } else {
            Fx8(wide as u32)
        }
    }

    /// Fixed-point division, saturating; `MAX` on division by zero.
    #[inline]
    pub fn saturating_div(self, rhs: Fx8) -> Fx8 {
        Fx8::from_ratio(u64::from(self.0), u64::from(rhs.0))
    }

    /// Multiplication by a small integer (e.g. a thread weight).
    #[inline]
    pub fn saturating_mul_int(self, rhs: u32) -> Fx8 {
        let wide = u64::from(self.0) * u64::from(rhs);
        if wide > u64::from(u32::MAX) {
            Fx8::MAX
        } else {
            Fx8(wide as u32)
        }
    }
}

impl fmt::Display for Fx8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_and_zero() {
        assert_eq!(Fx8::ONE.to_f64(), 1.0);
        assert_eq!(Fx8::ZERO.to_f64(), 0.0);
        assert_eq!(Fx8::from_f64(5.0).to_f64(), 5.0);
    }

    #[test]
    fn quantization_is_one_over_256() {
        let a = Fx8::from_f64(1.10);
        assert!((a.to_f64() - 1.10).abs() <= 1.0 / 256.0);
    }

    #[test]
    fn ratio_of_counters() {
        // Tshared = 3000 cycles, Talone = 2000 cycles → slowdown 1.5.
        let s = Fx8::from_ratio(3000, 2000);
        assert_eq!(s.to_f64(), 1.5);
        assert_eq!(Fx8::from_ratio(1, 0), Fx8::MAX);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Fx8::MAX.saturating_add(Fx8::ONE), Fx8::MAX);
        assert_eq!(Fx8::ZERO.saturating_sub(Fx8::ONE), Fx8::ZERO);
        assert_eq!(Fx8::MAX.saturating_mul(Fx8::from_f64(2.0)), Fx8::MAX);
        assert_eq!(Fx8::ONE.saturating_div(Fx8::ZERO), Fx8::MAX);
    }

    #[test]
    fn division_and_multiplication_roundtrip() {
        let a = Fx8::from_f64(7.25);
        let b = Fx8::from_f64(2.0);
        assert_eq!(a.saturating_div(b).to_f64(), 3.625);
        assert_eq!(b.saturating_mul(b).to_f64(), 4.0);
        assert_eq!(b.saturating_mul_int(10).to_f64(), 20.0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use stfm_dram::rng::SmallRng;

    /// Fx8 tracks f64 arithmetic within quantization error.
    #[test]
    fn ratio_matches_float() {
        let mut rng = SmallRng::seed_from_u64(0xF180001);
        for _ in 0..5_000 {
            let num = rng.random_range(0u64..1_000_000_000);
            let den = rng.random_range(1u64..1_000_000_000);
            let fx = Fx8::from_ratio(num, den).to_f64();
            let fl = num as f64 / den as f64;
            if fl < 1_000_000.0 {
                assert!(
                    (fx - fl).abs() <= 1.0 / 256.0 + fl * 1e-9,
                    "fx={fx} float={fl}"
                );
            }
        }
    }

    /// Ordering of ratios is preserved (monotonicity the scheduler
    /// relies on when comparing slowdowns).
    #[test]
    fn ordering_preserved() {
        let mut rng = SmallRng::seed_from_u64(0xF180002);
        for _ in 0..5_000 {
            let a = rng.random_range(1u64..1_000_000);
            let b = rng.random_range(1u64..1_000_000);
            let c = rng.random_range(1u64..1_000_000);
            let base = Fx8::from_ratio(a, c);
            let bigger = Fx8::from_ratio(a + b, c);
            assert!(bigger >= base, "a={a} b={b} c={c}");
        }
    }

    /// from_f64 -> to_f64 stays within half a quantum.
    #[test]
    fn f64_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0xF180003);
        for _ in 0..5_000 {
            let v = rng.random_f64() * 10_000.0;
            let fx = Fx8::from_f64(v);
            assert!((fx.to_f64() - v).abs() <= 0.5 / 256.0 + 1e-9, "v={v}");
        }
    }
}
