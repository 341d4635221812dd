//! Physical-address to DRAM-coordinate mapping.
//!
//! The layout interleaves consecutive cache lines across channels, keeps an
//! entire DIMM-level row's worth of lines in consecutive column indices
//! (so streaming access enjoys row-buffer hits), and permutes the bank index
//! by XOR-ing it with the low row bits — the XOR-based bank-interleaving
//! scheme the paper adopts from Frailong et al. and Zhang et al. ([6, 32] in
//! the paper) to spread row-conflicting streams across banks.
//!
//! Bit layout, LSB first:
//!
//! ```text
//! | line offset | channel | column | bank (XOR row) | row |
//! ```

use crate::command::{BankId, ChannelId};
use crate::config::DramConfig;
use std::fmt;

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Returns the address of the cache line containing this address.
    #[inline]
    pub fn line_aligned(self, line_bytes: u32) -> PhysAddr {
        PhysAddr(self.0 & !(u64::from(line_bytes) - 1))
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// DRAM coordinates of one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Channel the line maps to.
    pub channel: ChannelId,
    /// Physical (post-XOR) bank within the channel.
    pub bank: BankId,
    /// Row within the bank.
    pub row: u32,
    /// Line-sized column within the row.
    pub col: u32,
}

/// Translates physical addresses to DRAM coordinates and back.
///
/// # Example
///
/// ```
/// use stfm_dram::{AddressMapping, DramConfig, PhysAddr};
///
/// let m = AddressMapping::new(&DramConfig::ddr2_800());
/// let d = m.decode(PhysAddr(0x4000_1240));
/// assert_eq!(m.encode(d).0, 0x4000_1240 & !63); // line-aligned round trip
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    offset_bits: u32,
    channel_bits: u32,
    column_bits: u32,
    bank_bits: u32,
    row_bits: u32,
    xor_banks: bool,
}

impl AddressMapping {
    /// Builds the mapping for `config`, with XOR bank permutation enabled.
    pub fn new(config: &DramConfig) -> Self {
        Self::with_xor(config, true)
    }

    /// Builds the mapping with the XOR bank permutation explicitly enabled
    /// or disabled (disabled is useful for ablations and adversarial
    /// bank-conflict workloads).
    pub fn with_xor(config: &DramConfig, xor_banks: bool) -> Self {
        assert!(config.channels.is_power_of_two());
        assert!(config.banks.is_power_of_two());
        assert!(config.rows.is_power_of_two());
        assert!(config.columns().is_power_of_two());
        assert!(config.line_bytes.is_power_of_two());
        AddressMapping {
            offset_bits: config.line_bytes.trailing_zeros(),
            channel_bits: config.channels.trailing_zeros(),
            column_bits: config.columns().trailing_zeros(),
            bank_bits: config.banks.trailing_zeros(),
            row_bits: config.rows.trailing_zeros(),
            xor_banks,
        }
    }

    /// Total meaningful address bits; addresses are wrapped to this width.
    #[inline]
    pub fn address_bits(&self) -> u32 {
        self.offset_bits + self.channel_bits + self.column_bits + self.bank_bits + self.row_bits
    }

    fn mask(bits: u32) -> u64 {
        if bits == 0 {
            0
        } else {
            (1u64 << bits) - 1
        }
    }

    /// Decodes a physical address into DRAM coordinates.
    ///
    /// Addresses beyond the configured capacity wrap (high bits ignored), so
    /// any `u64` is a valid input.
    pub fn decode(&self, addr: PhysAddr) -> DecodedAddr {
        let mut a = addr.0 >> self.offset_bits;
        let channel = (a & Self::mask(self.channel_bits)) as u32;
        a >>= self.channel_bits;
        let col = (a & Self::mask(self.column_bits)) as u32;
        a >>= self.column_bits;
        let bank_field = (a & Self::mask(self.bank_bits)) as u32;
        a >>= self.bank_bits;
        let row = (a & Self::mask(self.row_bits)) as u32;
        let bank = if self.xor_banks {
            bank_field ^ (row & Self::mask(self.bank_bits) as u32)
        } else {
            bank_field
        };
        DecodedAddr {
            channel: ChannelId(channel),
            bank: BankId(bank),
            row,
            col,
        }
    }

    /// Encodes DRAM coordinates back into the (line-aligned) physical
    /// address. Inverse of [`AddressMapping::decode`] on line-aligned
    /// addresses within the configured capacity.
    pub fn encode(&self, d: DecodedAddr) -> PhysAddr {
        let bank_field = if self.xor_banks {
            d.bank.0 ^ (d.row & Self::mask(self.bank_bits) as u32)
        } else {
            d.bank.0
        };
        let mut a = u64::from(d.row);
        a = (a << self.bank_bits) | u64::from(bank_field);
        a = (a << self.column_bits) | u64::from(d.col);
        a = (a << self.channel_bits) | u64::from(d.channel.0);
        PhysAddr(a << self.offset_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> AddressMapping {
        AddressMapping::new(&DramConfig::ddr2_800())
    }

    #[test]
    fn sequential_lines_share_a_row() {
        let m = mapping();
        let base = m.decode(PhysAddr(0));
        for i in 1..256u64 {
            let d = m.decode(PhysAddr(i * 64));
            assert_eq!(d.row, base.row, "line {i} left the row");
            assert_eq!(d.bank, base.bank);
            assert_eq!(d.col, i as u32);
        }
        // The 257th line moves on (next bank or row).
        let next = m.decode(PhysAddr(256 * 64));
        assert_ne!((next.bank, next.row, next.col), (base.bank, base.row, 256));
    }

    #[test]
    fn xor_permutes_banks_across_rows() {
        let m = mapping();
        let cfg = DramConfig::ddr2_800();
        let row_stride = u64::from(cfg.row_bytes()) * u64::from(cfg.banks);
        // Same bank field, consecutive rows: physical banks must differ
        // thanks to the XOR permutation.
        let d0 = m.decode(PhysAddr(0));
        let d1 = m.decode(PhysAddr(row_stride));
        assert_eq!(d1.row, d0.row + 1);
        assert_ne!(d1.bank, d0.bank);
    }

    #[test]
    fn no_xor_keeps_bank_field() {
        let m = AddressMapping::with_xor(&DramConfig::ddr2_800(), false);
        let cfg = DramConfig::ddr2_800();
        let row_stride = u64::from(cfg.row_bytes()) * u64::from(cfg.banks);
        let d0 = m.decode(PhysAddr(0));
        let d1 = m.decode(PhysAddr(row_stride));
        assert_eq!(d1.bank, d0.bank);
    }

    #[test]
    fn multi_channel_interleaves_lines() {
        let cfg = DramConfig::for_cores(16); // 4 channels
        let m = AddressMapping::new(&cfg);
        for i in 0..8u64 {
            assert_eq!(m.decode(PhysAddr(i * 64)).channel.0, (i % 4) as u32);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = mapping();
        for addr in [0u64, 64, 4096, 0x1234_5640, 0x7fff_ffc0] {
            let d = m.decode(PhysAddr(addr));
            assert_eq!(
                m.encode(d),
                PhysAddr(addr),
                "round trip failed for {addr:#x}"
            );
        }
    }

    #[test]
    fn line_alignment() {
        assert_eq!(PhysAddr(0x12345).line_aligned(64), PhysAddr(0x12340));
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::rng::SmallRng;

    /// decode → encode is the identity on line-aligned in-range addresses.
    #[test]
    fn round_trip_any_address() {
        let mut rng = SmallRng::seed_from_u64(0xADD2_0001);
        for _ in 0..2_000 {
            let raw = rng.random_range(0u64..(2u64 << 30));
            let banks_log = rng.random_range(2u32..5);
            let xor = rng.random_bool(0.5);
            let cfg = DramConfig::ddr2_800()
                .with_geometry(Some(1 << banks_log), None)
                .unwrap();
            let m = AddressMapping::with_xor(&cfg, xor);
            let addr = PhysAddr(raw & !(63) & ((1u64 << m.address_bits()) - 1));
            let d = m.decode(addr);
            assert!(d.bank.0 < cfg.banks);
            assert!(d.row < cfg.rows);
            assert!(d.col < cfg.columns());
            assert_eq!(m.encode(d), addr);
        }
    }

    /// encode → decode is the identity on valid coordinates.
    #[test]
    fn round_trip_any_coords() {
        let mut rng = SmallRng::seed_from_u64(0xADD2_0002);
        let m = AddressMapping::new(&DramConfig::ddr2_800());
        for _ in 0..2_000 {
            let d = DecodedAddr {
                channel: ChannelId(0),
                bank: BankId(rng.random_range(0u32..8)),
                row: rng.random_range(0u32..(1 << 14)),
                col: rng.random_range(0u32..256),
            };
            assert_eq!(m.decode(m.encode(d)), d);
        }
    }
}
