//! The open-loop load generator for `serve-open`: a `BufRead` that runs
//! on the server's router thread and hands the serialized stream over
//! either unthrottled or one line at a time at a fixed rate.

use std::io::{self, BufRead, Read};
use std::time::{Duration, Instant};

use adpf_core::SystemConfig;
use adpf_obs::Histogram;
use adpf_serve::{serve, ServeError, ServeOptions, ServeOutcome};

use crate::workload::SERVE_WORKERS;

/// Offered rate of the paced phase, in events per second: about a fifth
/// of one worker's drain rate (~100 k events/s on a 2-CPU Xeon VM), so
/// the phase measures decision cost rather than backlog.
pub const BASE_RATE: f64 = 20_000.0;

/// Generator health: a paced phase whose reader handed lines over later
/// than this (99th percentile, from each line's due time) did not offer
/// the base rate, and the run counts its lines as failed. 5 ms is 100
/// inter-arrival gaps: far above the few-microsecond lateness of a
/// reader that keeps up, and far below the growing lateness of one that
/// cannot.
pub const MAX_LAG_P99_US: f64 = 5_000.0;

/// What one serve session produced, seen from the reader.
pub struct Session {
    pub out: ServeOutcome,
    /// `serve()` call to return.
    pub wall: Duration,
    /// Event lines handed to the server.
    pub offered: u64,
    /// Hand-over lateness of each paced event line, in nanoseconds
    /// (empty when unthrottled).
    pub lag_ns: Histogram,
    /// Header consumed to first event pulled: engine construction.
    pub setup: Duration,
    /// Last line handed (EOF or `shutdown`) to `serve()` returning.
    pub finalize: Duration,
}

/// Replays `stream` (a header line, then event lines) through `serve`
/// with one decision worker. With `rate`, every line after the header is
/// handed over no earlier than its due time, `index / rate` seconds after
/// the first event is pulled; without, the whole stream is offered at once.
pub fn run_session(
    config: &SystemConfig,
    stream: &[u8],
    rate: Option<f64>,
) -> Result<Session, ServeError> {
    let mut opts = ServeOptions::new(config.clone());
    opts.threads = SERVE_WORKERS;
    opts.error_sample = 4;
    let header_end = stream
        .iter()
        .position(|&b| b == b'\n')
        .map_or(stream.len(), |p| p + 1);
    let mut feed = Feed {
        data: stream,
        pos: 0,
        header_end,
        rate,
        line_end: 0,
        lines: 0,
        header_done: None,
        first_pull: None,
        last_line: None,
        lag_ns: Histogram::new(),
    };
    let t = Instant::now();
    let out = serve(&opts, &mut feed)?;
    let done = Instant::now();
    let wall = done - t;
    let first = feed.first_pull.unwrap_or(done);
    let offered = event_lines(&stream[header_end..]);
    Ok(Session {
        out,
        wall,
        offered,
        lag_ns: feed.lag_ns,
        setup: first - feed.header_done.unwrap_or(first),
        finalize: done - feed.last_line.unwrap_or(done),
    })
}

/// Number of `slot` lines in a stream body.
pub fn event_lines(body: &[u8]) -> u64 {
    body.split(|&b| b == b'\n')
        .filter(|l| l.starts_with(b"slot,"))
        .count() as u64
}

/// The first `events` event lines of `stream` behind its header,
/// followed by the `shutdown` sentinel.
pub fn prefix_with_shutdown(stream: &[u8], events: u64) -> Vec<u8> {
    let mut end = 0;
    let mut lines = 0;
    for (i, &b) in stream.iter().enumerate() {
        if b == b'\n' {
            end = i + 1;
            if lines == events {
                break; // The header plus `events` event lines.
            }
            lines += 1;
        }
    }
    let mut out = stream[..end].to_vec();
    out.extend_from_slice(b"shutdown\n");
    out
}

struct Feed<'a> {
    data: &'a [u8],
    pos: usize,
    header_end: usize,
    rate: Option<f64>,
    /// End of the paced line currently being handed over.
    line_end: usize,
    /// Paced lines handed over so far.
    lines: u64,
    header_done: Option<Instant>,
    first_pull: Option<Instant>,
    last_line: Option<Instant>,
    lag_ns: Histogram,
}

impl Read for Feed<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos < self.header_end {
            return Ok(&self.data[self.pos..self.header_end]);
        }
        let first = *self.first_pull.get_or_insert_with(Instant::now);
        let Some(rate) = self.rate else {
            if self.pos == self.data.len() {
                self.last_line.get_or_insert_with(Instant::now);
            }
            return Ok(&self.data[self.pos..]);
        };
        if self.pos < self.line_end || self.pos == self.data.len() {
            return Ok(&self.data[self.pos..self.line_end.max(self.pos)]);
        }
        let due = first + Duration::from_secs_f64(self.lines as f64 / rate);
        let mut now = Instant::now();
        while now < due {
            std::hint::spin_loop();
            now = Instant::now();
        }
        self.line_end = self.data[self.pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.data.len(), |p| self.pos + p + 1);
        if self.data[self.pos..].starts_with(b"slot,") {
            self.lag_ns.record((now - due).as_nanos() as u64);
        }
        self.lines += 1;
        if self.line_end == self.data.len() {
            self.last_line = Some(now);
        }
        Ok(&self.data[self.pos..self.line_end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.header_done.is_none() && self.pos >= self.header_end {
            self.header_done = Some(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_keeps_the_header_and_appends_shutdown() {
        let s = b"#serve,users=2,horizon_ms=9\nslot,1,0,0\nslot,2,1,0\nslot,3,0,0\n";
        let p = prefix_with_shutdown(s, 2);
        assert_eq!(
            p,
            b"#serve,users=2,horizon_ms=9\nslot,1,0,0\nslot,2,1,0\nshutdown\n".to_vec()
        );
        assert_eq!(event_lines(&p), 2);
        assert_eq!(
            prefix_with_shutdown(s, 0),
            b"#serve,users=2,horizon_ms=9\nshutdown\n".to_vec()
        );
    }
}
