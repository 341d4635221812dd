//! Write drain: the hysteresis that switches a channel into and out of
//! draining its buffered writes, and the read/write election it feeds.
//! State: [`WriteDrain`], one per channel; it reads the buffer's counts.

use super::queue::RequestBuffer;
use super::ControllerConfig;
use crate::request::AccessKind;
use stfm_dram::DramCycle;
use stfm_telemetry::{Event, Sink};

/// One channel's write-drain mode and its thresholds.
pub(super) struct WriteDrain {
    active: bool,
    /// Buffered-write counts that start and end a drain.
    high: usize,
    low: usize,
}

impl WriteDrain {
    /// Not draining, with `cfg`'s thresholds.
    pub(super) fn new(cfg: &ControllerConfig) -> Self {
        let (high, low) = (cfg.drain_high, cfg.drain_low);
        WriteDrain {
            active: false,
            high,
            low,
        }
    }

    /// True when the hysteresis flips at the channel's next scheduling
    /// pass. It is evaluated against buffer counts that change *after*
    /// [`WriteDrain::update`] last ran (reaps and enqueues come later in
    /// the tick), so a pending flip fences the channel's whole outlook:
    /// nothing may be elided until the transition, and its telemetry
    /// event, has landed on its exact cycle.
    pub(super) fn will_flip(&self, queue: &RequestBuffer) -> bool {
        let writes = queue.queued(AccessKind::Write);
        if self.active {
            writes <= self.low
        } else {
            writes >= self.high
        }
    }

    /// The read/write election: writes while draining or when no read
    /// waits, reads otherwise. Past the drain fence it is frozen while no
    /// request arrives or completes.
    pub(super) fn eligible_kind(&self, queue: &RequestBuffer) -> AccessKind {
        if self.active || queue.waiting_reads() == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    /// Applies a pending flip at `now` and reports it to `sink`.
    pub(super) fn update(
        &mut self,
        queue: &RequestBuffer,
        channel: u32,
        now: DramCycle,
        sink: &mut dyn Sink,
    ) {
        if !self.will_flip(queue) {
            return;
        }
        self.active = !self.active;
        if sink.is_enabled() {
            let (dram_cycle, queued_writes) = (now, queue.queued(AccessKind::Write) as u32);
            sink.record(&if self.active {
                Event::WriteDrainStart {
                    dram_cycle,
                    channel,
                    queued_writes,
                }
            } else {
                Event::WriteDrainEnd {
                    dram_cycle,
                    channel,
                    queued_writes,
                }
            });
        }
    }
}
