//! Memory requests as seen by the DRAM controller.

use std::fmt;
use stfm_dram::{AccessCategory, Channel, CpuCycle, DecodedAddr, DramCommand, DramCycle, PhysAddr};

/// Identifies a hardware thread (core) in the CMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies one memory request. Ids are handed out monotonically, so a
/// smaller id means an older request (the "arrival time" the paper's
/// oldest-first rules compare).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// Direction of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Cache-line fill (demand L2 miss).
    Read,
    /// Dirty-line writeback.
    Write,
}

/// Lifecycle of a request inside the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Waiting in the request buffer.
    Queued,
    /// Column command issued; data burst in flight until `data_done`
    /// (DRAM cycles).
    InService {
        /// DRAM cycle at which the data burst finishes.
        data_done: DramCycle,
    },
    /// Fully serviced; waiting to be reaped by the completion queue.
    Completed {
        /// CPU cycle at which the requester observes completion.
        finish_cpu: CpuCycle,
    },
}

/// One entry of the controller's request buffer (paper Section 2.2),
/// including the per-request `ThreadID` register of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct Request {
    /// Unique, arrival-ordered id.
    pub id: RequestId,
    /// Thread (core) that generated the request.
    pub thread: ThreadId,
    /// Requested physical address.
    pub addr: PhysAddr,
    /// DRAM coordinates of the address.
    pub loc: DecodedAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// CPU cycle the request entered the controller.
    pub arrival_cpu: CpuCycle,
    /// Lifecycle state.
    pub state: RequestState,
    /// DRAM cycle at which the first command for this request issued.
    pub service_started: Option<DramCycle>,
    /// Row-buffer category observed when service began.
    pub category: Option<AccessCategory>,
}

impl Request {
    /// True once the first DRAM command for this request has issued.
    #[inline]
    pub fn started(&self) -> bool {
        self.service_started.is_some()
    }

    /// True while the request occupies a DRAM bank (started but the data
    /// burst has not finished). Used for the paper's
    /// `BankAccessParallelism`.
    #[inline]
    pub fn in_bank_service(&self, now: DramCycle) -> bool {
        match self.state {
            RequestState::Queued => self.started(),
            RequestState::InService { data_done } => now < data_done,
            RequestState::Completed { .. } => false,
        }
    }

    /// True while the request waits in the buffer with no command issued
    /// yet or its column access still pending.
    #[inline]
    pub fn is_waiting(&self) -> bool {
        matches!(self.state, RequestState::Queued)
    }

    /// True once fully serviced.
    #[inline]
    pub fn is_completed(&self) -> bool {
        matches!(self.state, RequestState::Completed { .. })
    }

    /// The DRAM command this request needs next, given the current state
    /// of its bank in `channel`: the column access on a row hit, a
    /// precharge on a row conflict, an activate on a closed bank.
    pub fn next_command(&self, channel: &Channel) -> DramCommand {
        let bank = self.loc.bank;
        match channel.bank(bank).open_row() {
            Some(open) if open == self.loc.row => match self.kind {
                AccessKind::Read => DramCommand::read(bank, self.loc.row, self.loc.col),
                AccessKind::Write => DramCommand::write(bank, self.loc.row, self.loc.col),
            },
            Some(_) => DramCommand::precharge(bank),
            None => DramCommand::activate(bank, self.loc.row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stfm_dram::{BankId, ChannelId};

    fn request() -> Request {
        Request {
            id: RequestId(7),
            thread: ThreadId(1),
            addr: PhysAddr(0x1000),
            loc: DecodedAddr {
                channel: ChannelId(0),
                bank: BankId(2),
                row: 3,
                col: 4,
            },
            kind: AccessKind::Read,
            arrival_cpu: CpuCycle::new(100),
            state: RequestState::Queued,
            service_started: None,
            category: None,
        }
    }

    #[test]
    fn lifecycle_flags() {
        let mut r = request();
        assert!(r.is_waiting());
        assert!(!r.started());
        assert!(!r.in_bank_service(DramCycle::ZERO));

        r.service_started = Some(DramCycle::new(10));
        assert!(r.in_bank_service(DramCycle::new(10)));
        assert!(r.is_waiting()); // column not yet issued

        r.state = RequestState::InService {
            data_done: DramCycle::new(20),
        };
        assert!(r.in_bank_service(DramCycle::new(19)));
        assert!(!r.in_bank_service(DramCycle::new(20)));
        assert!(!r.is_waiting());

        r.state = RequestState::Completed {
            finish_cpu: CpuCycle::new(300),
        };
        assert!(r.is_completed());
        assert!(!r.in_bank_service(DramCycle::new(25)));
    }

    #[test]
    fn ids_order_by_age() {
        assert!(RequestId(3) < RequestId(5));
    }
}
