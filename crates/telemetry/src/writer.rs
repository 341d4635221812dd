//! The streaming sink: events serialized as JSON Lines to any
//! [`std::io::Write`].

use std::any::Any;
use std::io::Write;

use crate::event::Event;
use crate::sink::Sink;

/// Streams each event as one JSON object per line (JSON Lines).
///
/// I/O errors are latched rather than panicking mid-simulation: the
/// first error stops further writes and is surfaced by [`Sink::flush`]
/// (or [`JsonLinesSink::take_error`]).
#[derive(Debug)]
pub struct JsonLinesSink<W> {
    writer: W,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps `writer`; callers wanting buffering should pass a
    /// [`std::io::BufWriter`].
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer,
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Takes the latched I/O error, if any occurred.
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write + 'static> Sink for JsonLinesSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        match writeln!(self.writer, "{}", event.to_json()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CmdKind;
    use stfm_cycles::DramCycle;

    fn cmd(cycle: u64) -> Event {
        Event::DramCommandIssued {
            dram_cycle: DramCycle::new(cycle),
            channel: 0,
            bank: 1,
            cmd: CmdKind::Read,
            row: Some(3),
            thread: Some(0),
            auto_precharge: false,
        }
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.record(&cmd(1));
        sink.record(&cmd(2));
        assert_eq!(sink.lines_written(), 2);
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn io_errors_latch_instead_of_panicking() {
        let mut sink = JsonLinesSink::new(FailingWriter);
        sink.record(&cmd(1));
        sink.record(&cmd(2));
        assert_eq!(sink.lines_written(), 0);
        assert!(sink.flush().is_err(), "flush surfaces the latched error");
        assert!(sink.flush().is_ok(), "error reported once");
    }
}
