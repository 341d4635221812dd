//! Cycle-level event tracing and epoch time-series aggregation for the
//! STFM simulator.
//!
//! The paper's analysis (Figures 2, 5, 8, Table 3) depends on
//! *time-resolved* behavior — how per-thread slowdowns, row-hit rates,
//! and bus utilization evolve as the interval-based fairness rule
//! reacts — so this crate gives every layer of the stack a place to
//! report what it is doing, cycle by cycle:
//!
//! * [`Event`] — the typed event vocabulary: DRAM command issue,
//!   request enqueue/service, per-interval scheduler state (with
//!   per-thread estimated slowdowns), write-drain mode changes, and
//!   refreshes, each stamped with the DRAM (and where relevant CPU)
//!   cycle it occurred on.
//! * [`Sink`] — where events go. [`NullSink`] discards everything and
//!   reports itself disabled so hot paths skip building events
//!   entirely; [`RingSink`] keeps a bounded in-memory window for tests;
//!   [`JsonLinesSink`] streams to any [`std::io::Write`];
//!   [`TeeSink`] fans out to two sinks at once.
//! * [`EpochSampler`] — a `Sink` that folds the event stream into
//!   fixed-width time-series rows ([`EpochRow`]): per-thread slowdown,
//!   bandwidth, row-hit rate, data-bus utilization, and time-weighted
//!   queue depth per epoch.
//!
//! This crate sits *below* `stfm-dram` in the dependency graph; it
//! shares only the clock-domain newtypes of `stfm-cycles`, so every
//! event's cycle stamp is domain-checked while identifiers stay
//! primitives (`u32` channel/bank/thread indices, `u64` request ids).
//! It has no external dependencies — serialization is hand-rolled — so
//! the workspace keeps building offline.
//!
//! Tracing must never perturb simulation results: sinks observe, they
//! do not steer. The determinism regression test in `stfm-sim` holds
//! the whole stack to that guarantee.

mod epoch;
mod event;
mod sink;
mod writer;

pub use epoch::{EpochConfig, EpochRow, EpochSampler};
pub use event::{CmdKind, Event};
pub use sink::{NullSink, RingSink, Sink, TeeSink};
pub use writer::JsonLinesSink;
