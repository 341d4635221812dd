//! The closed-loop client contract: a client that sends spec line *n+1*
//! only after line *n*'s `epoch` has arrived must be answered at any
//! worker count. `serve` therefore has to hand out a line's `epoch` marker
//! *before* it blocks reading the next input line — a feed that reads
//! ahead waits on a client that is waiting on it. Both directions are
//! channel-backed, so the server really blocks between lines, and every
//! wait is bounded: a deadlock fails the test.

// `allow-expect-in-tests` covers `#[test]` fns only, not their helpers.
#![allow(clippy::expect_used)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use stfm_serve::{expand_line, serve, ResultCache, ServeConfig};
use stfm_sim::AloneCache;

/// The receiving end of one direction: blocks until the peer writes, for
/// at most [`WAIT`]. A dropped peer is end of input.
struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
}

const WAIT: Duration = Duration::from_secs(30);

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.recv_timeout(WAIT) {
                Ok(bytes) => self.pending = bytes,
                Err(RecvTimeoutError::Disconnected) => return Ok(0),
                Err(RecvTimeoutError::Timeout) => return Err(io::ErrorKind::TimedOut.into()),
            }
        }
        let n = self.pending.len().min(out.len());
        out[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

/// The sending end of one direction.
struct ChannelWriter(Sender<Vec<u8>>);

impl Write for ChannelWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0
            .send(data.to_vec())
            .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One direction of the connection.
fn pipe() -> (ChannelWriter, BufReader<ChannelReader>) {
    let (tx, rx) = mpsc::channel();
    let pending = Vec::new();
    (
        ChannelWriter(tx),
        BufReader::new(ChannelReader { rx, pending }),
    )
}

/// Spec lines of 1, 3, 1 (a replay of the first) and 2 cells.
const LINES: [&str; 4] = [
    "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 400}",
    "{\"scheduler\": [\"frfcfs\", \"nfq\", \"stfm\"], \"mix\": [\"mcf\", \"hmmer\"], \"insts\": 400}",
    "{\"scheduler\": \"fcfs\", \"mix\": [\"mcf\"], \"insts\": 400}",
    "{\"scheduler\": \"stfm\", \"mix\": [\"libquantum\"], \"seed\": [1, 2], \"insts\": 400}",
];

fn closed_loop_session(jobs: usize) {
    let alone = AloneCache::new();
    let results = ResultCache::in_memory();
    let cfg = ServeConfig::with_jobs(Some(jobs));
    let totals = std::thread::scope(|scope| {
        // The client's ends live inside the scope: if a wait below times
        // out, unwinding drops them, the server sees end of input, and
        // the scope joins instead of hanging.
        let (mut requests, input) = pipe();
        let (output, responses) = pipe();
        let (alone, results, cfg) = (&alone, &results, &cfg);
        let server = scope.spawn(move || serve(input, output, alone, results, cfg));
        let mut responses = responses.lines();
        let mut next = |what: &str| match responses.next() {
            Some(Ok(line)) => line,
            other => panic!("jobs {jobs}: no answer while waiting for {what}: {other:?}"),
        };
        for (n, line) in LINES.iter().enumerate() {
            let cells = expand_line(line).expect("valid spec line").len();
            writeln!(requests, "{line}").expect("server is up");
            for _ in 0..cells {
                let resp = next("a result");
                assert!(resp.starts_with("{\"type\":\"result\""), "{resp}");
            }
            let epoch = next("the epoch");
            let want = format!("{{\"type\":\"epoch\",\"line\":{},\"cells\":{cells},", n + 1);
            assert!(epoch.starts_with(&want), "{epoch}");
        }
        writeln!(requests, "{{\"cmd\": \"shutdown\"}}").expect("server is up");
        // A line after `shutdown` is never answered: `bye` is the last
        // line, and the session ends with the client's end still open.
        writeln!(requests, "{}", LINES[0]).expect("server is up");
        assert!(next("bye").starts_with("{\"type\":\"bye\""));
        let totals = server.join().expect("server thread panicked");
        assert!(responses.next().is_none(), "a line after bye");
        totals
    })
    .expect("session ends cleanly");
    assert_eq!(totals.lines, LINES.len() as u64);
    assert_eq!(totals.cells, 7);
    assert_eq!(totals.cache_hits, 1);
    assert_eq!(totals.errors, 0);
}

#[test]
fn any_worker_count_answers_a_closed_loop_client() {
    closed_loop_session(1);
    closed_loop_session(3);
}
