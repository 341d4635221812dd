//! The [`Sink`] trait and the in-memory sink implementations.

use std::any::Any;
use std::collections::VecDeque;

use crate::event::Event;

/// Destination for telemetry [`Event`]s.
///
/// Emission sites hold a `&mut dyn Sink` and call [`Sink::record`] for
/// each occurrence. Building an event can allocate (e.g. the slowdown
/// vector in `SchedulerIntervalUpdate`), so hot paths should guard
/// construction behind [`Sink::is_enabled`]:
///
/// ```
/// # use stfm_telemetry::{Event, NullSink, Sink};
/// # use stfm_cycles::DramCycle;
/// # let mut sink = NullSink;
/// # let sink: &mut dyn Sink = &mut sink;
/// if sink.is_enabled() {
///     sink.record(&Event::RefreshIssued {
///         dram_cycle: DramCycle::new(100),
///         channel: 0,
///         end_cycle: DramCycle::new(205),
///     });
/// }
/// ```
///
/// Sinks observe the simulation; they must never steer it. Attaching or
/// detaching any sink leaves simulation results bit-identical (enforced
/// by a regression test in `stfm-sim`).
pub trait Sink: Any {
    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output to its destination.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// False when recording is a no-op, letting emission sites skip
    /// event construction entirely.
    fn is_enabled(&self) -> bool {
        true
    }

    /// The concrete sink behind a `dyn Sink`, for code that holds one
    /// only as a trait object. Runs hand back the sink they were given by
    /// type (`System::run_observed`, `Experiment::run_traced`), so their
    /// callers need no downcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A boxed sink is a sink, whether its contents are known by type or only
/// at run time (`Box<dyn Sink>`). Every method forwards to the contents,
/// downcasting included, so a box is transparent to `as_any_mut`.
impl<S: Sink + ?Sized> Sink for Box<S> {
    #[inline]
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }

    #[inline]
    fn flush(&mut self) -> std::io::Result<()> {
        (**self).flush()
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    #[inline]
    fn as_any_mut(&mut self) -> &mut dyn Any {
        (**self).as_any_mut()
    }
}

/// An optional sink: `Some` forwards every event to its contents, and
/// `None` is disabled like [`NullSink`], so a [`TeeSink`] can carry a sink
/// that only some runs attach.
impl<S: Sink + 'static> Sink for Option<S> {
    #[inline]
    fn record(&mut self, event: &Event) {
        if let Some(sink) = self {
            sink.record(event);
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.as_mut().map_or(Ok(()), Sink::flush)
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        self.as_ref().is_some_and(Sink::is_enabled)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Discards every event; [`Sink::is_enabled`] is `false`, so guarded
/// emission sites don't even construct them. This is the default sink —
/// an untraced simulation pays one virtual call per guard at most.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _event: &Event) {}

    fn is_enabled(&self) -> bool {
        false
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Bounded in-memory sink: keeps the most recent `capacity` events and
/// counts what it had to drop. Intended for tests and debugging.
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl RingSink {
    /// Creates a sink retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (retained + dropped).
    pub fn total_recorded(&self) -> u64 {
        self.dropped + self.events.len() as u64
    }
}

impl Sink for RingSink {
    fn record(&mut self, event: &Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Fans every event out to two sinks. Nest (`TeeSink<A, TeeSink<B, C>>`)
/// for wider fan-out. Fields are public so the owner of a finished run's
/// tee takes both halves back by type.
#[derive(Debug, Clone, Default)]
pub struct TeeSink<A, B> {
    /// First destination.
    pub first: A,
    /// Second destination.
    pub second: B,
}

impl<A: Sink, B: Sink> TeeSink<A, B> {
    /// Creates a tee over `first` and `second`.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }
}

impl<A: Sink, B: Sink> Sink for TeeSink<A, B> {
    fn record(&mut self, event: &Event) {
        self.first.record(event);
        self.second.record(event);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.first.flush()?;
        self.second.flush()
    }

    fn is_enabled(&self) -> bool {
        self.first.is_enabled() || self.second.is_enabled()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use stfm_cycles::DramCycle;

    fn refresh(cycle: u64) -> Event {
        Event::RefreshIssued {
            dram_cycle: DramCycle::new(cycle),
            channel: 0,
            end_cycle: DramCycle::new(cycle + 105),
        }
    }

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let mut sink = NullSink;
        assert!(!sink.is_enabled());
        sink.record(&refresh(1));
        assert!(sink.flush().is_ok());
    }

    #[test]
    fn ring_sink_bounds_memory_and_counts_drops() {
        let mut ring = RingSink::new(3);
        assert!(ring.is_empty());
        for c in 0..5 {
            ring.record(&refresh(c));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.total_recorded(), 5);
        let kept: Vec<u64> = ring.events().map(|e| e.dram_cycle().get()).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events evicted first");
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = RingSink::new(0);
        ring.record(&refresh(1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn tee_fans_out_and_ors_enablement() {
        let mut tee = TeeSink::new(NullSink, RingSink::new(8));
        assert!(tee.is_enabled(), "ring half keeps the tee enabled");
        tee.record(&refresh(9));
        assert_eq!(tee.second.len(), 1);

        let both_null = TeeSink::new(NullSink, NullSink);
        assert!(!both_null.is_enabled());
    }

    #[test]
    fn an_absent_sink_is_disabled_and_a_present_one_records() {
        let mut none: Option<RingSink> = None;
        assert!(!none.is_enabled());
        none.record(&refresh(1));
        assert!(none.flush().is_ok());

        let mut some = Some(RingSink::new(2));
        assert!(some.is_enabled());
        some.record(&refresh(2));
        assert_eq!(some.map(|r| r.len()), Some(1));
        assert!(!Some(NullSink).is_enabled(), "a disabled sink stays so");
    }

    #[test]
    fn downcast_recovers_concrete_sink() {
        let mut boxed: Box<dyn Sink> = Box::new(RingSink::new(2));
        boxed.record(&refresh(4));
        let ring = boxed
            .as_any_mut()
            .downcast_mut::<RingSink>()
            .expect("downcast");
        assert_eq!(ring.len(), 1);
        // A box known by type is as transparent as a trait object.
        let mut typed = Box::new(RingSink::new(2));
        typed.record(&refresh(5));
        assert!(Sink::as_any_mut(&mut typed).is::<RingSink>());
    }
}
