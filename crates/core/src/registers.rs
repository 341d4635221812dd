//! The STFM register file (paper Table 1).
//!
//! Per hardware thread the controller keeps `Tshared`, `Tinterference`,
//! `Slowdown`, `BankWaitingParallelism` and `BankAccessParallelism`; per
//! thread × bank it keeps `LastRowAddress`; globally it keeps the
//! `IntervalCounter` and `Alpha`. [`state_bits`] reproduces the paper's
//! storage accounting (1808 bits for the 8-thread baseline).

use crate::fixed::Fx8;
use stfm_dram::CpuCycle;
use stfm_mc::ThreadId;

/// Per-thread slowdown-estimation registers.
#[derive(Debug, Clone)]
pub struct ThreadRegs {
    /// Latest cumulative stall counter received from the core.
    pub core_tshared: u64,
    /// Value of `core_tshared` at the last interval reset; the effective
    /// `Tshared` register is the difference.
    pub tshared_base: u64,
    /// Extra stall cycles attributed to inter-thread interference
    /// (CPU cycles; may be negative — paper footnote 10).
    pub tinterference: i64,
    /// Latest computed slowdown (8-bit fixed point, ≥ 1 in practice).
    pub slowdown: Fx8,
    /// Weighted slowdown `1 + (S−1)·W` used for prioritization.
    pub weighted_slowdown: Fx8,
    /// Banks with ≥ 1 waiting request from this thread (maintained
    /// incrementally from request-lifecycle events and republished each
    /// DRAM cycle the scheduler actually runs).
    pub bank_waiting_parallelism: u32,
    /// Banks currently servicing this thread's requests.
    pub bank_access_parallelism: u32,
    /// EMA of the thread's stall fraction `ΔTshared / Δt`. Starts at 1
    /// (assume fully stalled until measured).
    pub stall_rate: Fx8,
    /// Cross-thread interference charged but not yet applied: each DRAM
    /// cycle the thread has a read waiting, at most one DRAM cycle of it
    /// moves into `tinterference`, so attributed interference can never
    /// outrun wall-clock stall.
    pub pending_interference: i64,
    /// Wall-clock CPU cycle of the last stall-rate sample.
    pub last_sample_cpu: CpuCycle,
    /// `core_tshared` at the last stall-rate sample.
    pub last_sample_tshared: u64,
}

impl Default for ThreadRegs {
    fn default() -> Self {
        ThreadRegs {
            core_tshared: 0,
            tshared_base: 0,
            tinterference: 0,
            slowdown: Fx8::ONE,
            weighted_slowdown: Fx8::ONE,
            bank_waiting_parallelism: 0,
            bank_access_parallelism: 0,
            stall_rate: Fx8::ONE,
            pending_interference: 0,
            last_sample_cpu: CpuCycle::ZERO,
            last_sample_tshared: 0,
        }
    }
}

impl ThreadRegs {
    /// Effective `Tshared` (stall cycles accumulated this interval).
    #[inline]
    pub fn tshared(&self) -> u64 {
        self.core_tshared.saturating_sub(self.tshared_base)
    }

    /// `Talone = Tshared − Tinterference` estimate, floored at zero.
    #[inline]
    pub fn talone(&self) -> u64 {
        let t = self.tshared() as i64 - self.tinterference;
        t.max(0) as u64
    }

    /// Recomputes `Slowdown = Tshared / (Tshared − Tinterference)`.
    ///
    /// A thread with no stall time has slowdown 1. Because the
    /// interference estimate is approximate, it can transiently exceed the
    /// observed stall time; physically a thread's extra stall cannot
    /// exceed its total stall, so the denominator is floored at
    /// `Tshared / 16`, capping the estimated slowdown at 16× — a sanity
    /// clamp a hardware divider would implement as saturation.
    pub fn compute_slowdown(&mut self) -> Fx8 {
        let tshared = self.tshared();
        self.slowdown = if tshared == 0 {
            Fx8::ONE
        } else {
            let floor = (tshared / 16).max(1) as i64;
            let denom = (tshared as i64 - self.tinterference).max(floor);
            Fx8::from_ratio(tshared, denom as u64)
        };
        // Negative interference (constructive sharing) can push the ratio
        // below 1; the definition still holds, no clamping there.
        self.slowdown
    }

    /// Resets the interval-relative state at interval expiry, keeping the
    /// core's cumulative counter as the new baseline.
    pub fn reset_interval(&mut self) {
        self.tshared_base = self.core_tshared;
        self.tinterference = 0;
        self.pending_interference = 0;
        self.slowdown = Fx8::ONE;
        self.weighted_slowdown = Fx8::ONE;
    }
}

/// Applies the paper's thread-weight transformation
/// `S' = 1 + (S − 1) · Weight` in fixed point. Slowdowns below 1 (negative
/// interference) are left unscaled.
#[inline]
pub fn weighted_slowdown(s: Fx8, weight: u32) -> Fx8 {
    if s <= Fx8::ONE || weight == 1 {
        return s;
    }
    Fx8::ONE.saturating_add(s.saturating_sub(Fx8::ONE).saturating_mul_int(weight))
}

/// Flat `LastRowAddress` table: row last accessed by
/// (thread, channel, bank), estimating what the bank's row buffer would
/// hold had the thread run alone. Vec-backed and indexed as
/// `thread × 64 + channel × 16 + bank` — the same ≤ 4-channel,
/// ≤ 16-bank slot packing the live estimator aggregates use — so the
/// two lookups every column command performs are array loads instead of
/// tree walks.
#[derive(Debug, Clone, Default)]
pub struct LastRowTable {
    rows: Vec<Option<u32>>,
    len: usize,
}

/// Slots per thread in [`LastRowTable`] (channel-major bank packing).
const LR_SLOTS: usize = 64;

impl LastRowTable {
    fn index(key: &(ThreadId, u32, u32)) -> usize {
        key.0 .0 as usize * LR_SLOTS + key.1 as usize * 16 + key.2 as usize
    }

    /// The recorded row for `key` = (thread, channel, bank), if any.
    pub fn get(&self, key: &(ThreadId, u32, u32)) -> Option<&u32> {
        self.rows.get(Self::index(key)).and_then(|o| o.as_ref())
    }

    /// Records `row` for `key`, growing the table on first touch.
    pub fn insert(&mut self, key: (ThreadId, u32, u32), row: u32) {
        let i = Self::index(&key);
        if i >= self.rows.len() {
            self.rows.resize(i + 1, None);
        }
        if self.rows[i].is_none() {
            self.len += 1;
        }
        self.rows[i] = Some(row);
    }

    /// Forgets every recorded row (interval expiry), keeping capacity.
    pub fn clear(&mut self) {
        self.rows.fill(None);
        self.len = 0;
    }

    /// True if no rows are recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The full STFM register file.
///
/// Thread registers live in a dense `Vec` indexed by thread id — thread
/// ids are small core indices, and the per-command charge loops and
/// per-cycle publish/drain paths look registers up often enough that a
/// map lookup per access is measurable.
#[derive(Debug, Clone, Default)]
pub struct RegisterFile {
    threads: Vec<Option<ThreadRegs>>,
    /// The per-thread per-bank `LastRowAddress` registers.
    pub last_row: LastRowTable,
}

impl RegisterFile {
    /// Registers of `thread`, created zeroed on first touch.
    pub fn thread_mut(&mut self, thread: ThreadId) -> &mut ThreadRegs {
        let t = thread.0 as usize;
        if t >= self.threads.len() {
            self.threads.resize_with(t + 1, || None);
        }
        self.threads[t].get_or_insert_with(ThreadRegs::default)
    }

    /// Registers of `thread`, if it has been seen.
    pub fn thread(&self, thread: ThreadId) -> Option<&ThreadRegs> {
        self.threads.get(thread.0 as usize).and_then(|o| o.as_ref())
    }

    /// All threads seen so far, in ascending thread-id order.
    pub fn threads(&self) -> impl Iterator<Item = (ThreadId, &ThreadRegs)> {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(t, r)| r.as_ref().map(|r| (ThreadId(t as u32), r)))
    }

    /// Mutable iteration over all thread registers, in ascending
    /// thread-id order.
    pub fn threads_mut(&mut self) -> impl Iterator<Item = (ThreadId, &mut ThreadRegs)> {
        self.threads
            .iter_mut()
            .enumerate()
            .filter_map(|(t, r)| r.as_mut().map(|r| (ThreadId(t as u32), r)))
    }

    /// Interval expiry: resets every thread's interval-relative registers
    /// and the `LastRowAddress` table.
    pub fn reset_all_intervals(&mut self) {
        for r in self.threads.iter_mut().flatten() {
            r.reset_interval();
        }
        self.last_row.clear();
    }
}

/// Storage cost of the register file in bits, reproducing the accounting of
/// paper Table 1/Section 5.1.
///
/// With 8 threads, `IntervalLength` = 2^24, 8 banks, 2^14 rows and a
/// 128-entry request buffer this is the paper's 1808 bits.
pub fn state_bits(
    threads: u32,
    banks: u32,
    rows_per_bank: u32,
    buffer_entries: u32,
    interval_length: u64,
) -> u64 {
    let il_bits = u64::from(64 - u64::leading_zeros(interval_length.saturating_sub(1).max(1)));
    let bank_bits = u64::from(32 - u32::leading_zeros(banks.saturating_sub(1).max(1)));
    let row_bits = u64::from(32 - u32::leading_zeros(rows_per_bank.saturating_sub(1).max(1)));
    let tid_bits = u64::from(32 - u32::leading_zeros(threads.saturating_sub(1).max(1)));
    let t = u64::from(threads);
    // Per-thread: Tshared + Tinterference + Slowdown(8) + BWP + BAP.
    let per_thread = il_bits + il_bits + 8 + bank_bits + bank_bits;
    // Per thread × bank: LastRowAddress.
    let last_rows = t * u64::from(banks) * row_bits;
    // Per request-buffer entry: ThreadID.
    let per_request = u64::from(buffer_entries) * tid_bits;
    // Global: IntervalCounter + Alpha.
    let global = il_bits + 8;
    t * per_thread + last_rows + per_request + global
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_storage_accounting_is_1808_bits() {
        assert_eq!(state_bits(8, 8, 1 << 14, 128, 1 << 24), 1808);
    }

    #[test]
    fn slowdown_basics() {
        let mut r = ThreadRegs::default();
        assert_eq!(r.compute_slowdown(), Fx8::ONE); // no stalls yet

        r.core_tshared = 3000;
        r.tinterference = 1000;
        assert_eq!(r.compute_slowdown().to_f64(), 1.5);
        assert_eq!(r.talone(), 2000);

        // All stall time attributed to interference: clamped near 16×.
        r.tinterference = 3000;
        let capped = r.compute_slowdown().to_f64();
        assert!((15.9..=16.1).contains(&capped), "capped = {capped}");

        // Negative interference (thread benefits from sharing): below 1.
        r.tinterference = -1000;
        assert!(r.compute_slowdown() < Fx8::ONE);
    }

    #[test]
    fn interval_reset_rebaselines_tshared() {
        let mut r = ThreadRegs {
            core_tshared: 5000,
            tinterference: 2500,
            ..Default::default()
        };
        r.compute_slowdown();
        r.reset_interval();
        assert_eq!(r.tshared(), 0);
        assert_eq!(r.compute_slowdown(), Fx8::ONE);
        // New stalls accumulate relative to the new baseline.
        r.core_tshared = 6000;
        assert_eq!(r.tshared(), 1000);
    }

    #[test]
    fn weight_transformation_matches_paper_example() {
        // Paper Section 3.3: measured slowdown 1.1 with weight 10 is
        // interpreted as slowdown 2.
        let s = weighted_slowdown(Fx8::from_f64(1.1), 10);
        assert!((s.to_f64() - 2.0).abs() < 0.05);
        // Weight 1 leaves the slowdown unchanged.
        assert_eq!(weighted_slowdown(Fx8::from_f64(1.1), 1), Fx8::from_f64(1.1));
    }

    #[test]
    fn register_file_reset_scopes() {
        let mut rf = RegisterFile::default();
        rf.thread_mut(ThreadId(0)).core_tshared = 100;
        rf.thread_mut(ThreadId(1)).core_tshared = 200;
        rf.last_row.insert((ThreadId(0), 0, 0), 7);
        rf.last_row.insert((ThreadId(1), 0, 0), 9);

        rf.reset_all_intervals();
        assert_eq!(rf.thread(ThreadId(0)).unwrap().tshared(), 0);
        assert_eq!(rf.thread(ThreadId(1)).unwrap().tshared(), 0);
        assert!(rf.last_row.is_empty());
    }
}
