//! Whole-memory-system configuration (geometry + timing).

use crate::timing::TimingParams;
use crate::DramDelta;

/// Cache-line (and DRAM burst) size in bytes (paper Table 2).
pub const LINE_BYTES: u32 = 64;

/// Rows per bank (paper Table 2: 2^14).
pub const ROWS: u32 = 1 << 14;

/// DRAM chips ganged on the DIMM (eight x8 chips → 64-bit interface).
pub const CHIPS_PER_DIMM: u32 = 8;

/// Extra uncontended controller + on-chip/off-chip bus overhead added to
/// every request's round trip, in DRAM cycles (10 ns = 4 cycles), so that
/// the round-trip L2-miss latencies are 35 / 50 / 70 ns for row hit /
/// closed / conflict.
pub const CONTROLLER_OVERHEAD: DramDelta = DramDelta::new(4);

/// Configuration of the DRAM memory system: the geometry and timing that
/// experiments vary.
///
/// The default matches the paper's Table 2 baseline: a single-rank DIMM of
/// [`CHIPS_PER_DIMM`] DDR2-800 x8 chips (64-bit data interface), 8 banks,
/// 2 KB row buffer per chip (16 KB per bank at DIMM level) and [`ROWS`]
/// rows per bank, carrying [`LINE_BYTES`] cache lines.
///
/// Construct with [`DramConfig::ddr2_800`] and adjust fields, or apply
/// the Table 5 sensitivity overrides with [`DramConfig::with_geometry`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Number of independent channels (each with its own controller).
    pub channels: u32,
    /// Banks per channel. Paper baseline: 8.
    pub banks: u32,
    /// Row-buffer size per DRAM chip in bytes (2 KB baseline). The DIMM-level
    /// row is [`CHIPS_PER_DIMM`] times larger.
    pub row_buffer_bytes_per_chip: u32,
    /// Whether periodic refresh is modeled.
    pub refresh_enabled: bool,
    /// DDR timing constraints.
    pub timing: TimingParams,
}

impl DramConfig {
    /// The paper's baseline configuration with one channel.
    pub fn ddr2_800() -> Self {
        DramConfig {
            channels: 1,
            banks: 8,
            row_buffer_bytes_per_chip: 2048,
            refresh_enabled: true,
            timing: TimingParams::ddr2_800(),
        }
    }

    /// Baseline configuration with the paper's core-count-scaled channel
    /// count: 1, 1, 2, 4 channels for 2, 4, 8, 16 cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn for_cores(cores: u32) -> Self {
        assert!(cores > 0, "core count must be positive");
        let channels = match cores {
            1..=4 => 1,
            5..=8 => 2,
            _ => 4,
        };
        DramConfig {
            channels,
            ..Self::ddr2_800()
        }
    }

    /// Returns a copy with `banks` banks per channel and a `row_kb` KB row
    /// buffer per chip, each where given (the Table 5 sweep).
    ///
    /// # Errors
    ///
    /// A count that is not a power of two, or a row whose DIMM-level bytes
    /// (`row_kb * 1024 * CHIPS_PER_DIMM`) overflow a `u32`.
    pub fn with_geometry(
        mut self,
        banks: Option<u32>,
        row_kb: Option<u32>,
    ) -> Result<Self, String> {
        if let Some(banks) = banks {
            if !banks.is_power_of_two() {
                return Err(format!("banks must be a power of two, got {banks}"));
            }
            self.banks = banks;
        }
        if let Some(kb) = row_kb {
            let fits = |b: &u32| b.is_power_of_two() && b.checked_mul(CHIPS_PER_DIMM).is_some();
            self.row_buffer_bytes_per_chip =
                kb.checked_mul(1024).filter(fits).ok_or_else(|| {
                    format!("row_kb must be a power of two whose row fits in 32 bits, got {kb}")
                })?;
        }
        Ok(self)
    }

    /// DIMM-level row size in bytes (per-chip row buffer × chips).
    #[inline]
    pub fn row_bytes(&self) -> u32 {
        self.row_buffer_bytes_per_chip * CHIPS_PER_DIMM
    }

    /// Cache lines per DIMM-level row (= number of line-sized columns).
    #[inline]
    pub fn columns(&self) -> u32 {
        self.row_bytes() / LINE_BYTES
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr2_800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = DramConfig::ddr2_800();
        assert_eq!(c.banks, 8);
        assert_eq!(c.row_bytes(), 16 * 1024);
        // The row-hit streak of paper Section 2.5's 2KB*8/64B example.
        assert_eq!(c.columns(), 256);
    }

    #[test]
    fn channels_scale_with_cores() {
        assert_eq!(DramConfig::for_cores(2).channels, 1);
        assert_eq!(DramConfig::for_cores(4).channels, 1);
        assert_eq!(DramConfig::for_cores(8).channels, 2);
        assert_eq!(DramConfig::for_cores(16).channels, 4);
    }

    #[test]
    fn geometry_overrides() {
        let c = DramConfig::ddr2_800()
            .with_geometry(Some(16), Some(4))
            .unwrap();
        assert_eq!(c.banks, 16);
        assert_eq!(c.row_bytes(), 32 * 1024);
        assert_eq!(c.columns(), 512);
        assert_eq!(c.clone().with_geometry(None, None), Ok(c));
    }

    /// Every override that is not a power of two, and every row whose
    /// 8-chip size overflows a `u32`, is an error rather than a panic or
    /// a wrapped size; the largest row that fits is 256 MB per chip.
    #[test]
    fn geometry_errors_name_the_override() {
        let base = DramConfig::ddr2_800();
        let largest = base.clone().with_geometry(None, Some(262_144)).unwrap();
        assert_eq!(largest.row_bytes(), 1 << 31);
        assert!(largest.columns().is_power_of_two());
        for (banks, row_kb, needle) in [
            (Some(6), None, "banks must be a power of two"),
            (Some(0), None, "banks must be a power of two"),
            (None, Some(3), "row_kb must be"),
            (None, Some(0), "row_kb must be"),
            (None, Some(524_288), "row_kb must be"),
            (None, Some(4_194_304), "row_kb must be"),
            (None, Some(1 << 31), "row_kb must be"),
        ] {
            let err = base.clone().with_geometry(banks, row_kb).unwrap_err();
            assert!(err.contains(needle), "{banks:?} {row_kb:?}: {err}");
        }
    }
}
