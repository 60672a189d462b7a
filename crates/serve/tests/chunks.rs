//! Chunk-boundary equivalence: the server splits lines straight out of
//! the reader's buffer, so a stream must serve the same however its
//! bytes are cut into `fill_buf` chunks — including chunks of a few
//! bytes, CRLF line endings, a last line without a newline, and a
//! `shutdown` sentinel in the middle of a chunk with junk behind it.

use std::io::{self, BufRead, Read};

use adpf_core::SystemConfig;
use adpf_serve::{serve, write_events, ServeOptions, ServeOutcome};
use adpf_traces::PopulationConfig;

/// The committed smoke golden: `small_test(777)` under
/// `prefetch_default(5)`.
const SMOKE_GOLDEN: u64 = 0xba08_fcf9_274d_6de0;

/// A `BufRead` over `data` whose `fill_buf` returns the chunks ending
/// at each of `cuts` in turn (a chunk partly consumed is returned again
/// from where the consumer stopped).
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    cuts: Vec<usize>,
    next_cut: usize,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], cuts: Vec<usize>) -> Self {
        Self {
            data,
            pos: 0,
            cuts,
            next_cut: 0,
        }
    }

    /// Chunks of 1 to 7 bytes, cycling through the sizes.
    fn tiny(data: &'a [u8]) -> Self {
        Self::new(data, tiny_cuts(data.len()))
    }
}

/// Cut points that split `len` bytes into chunks of 1, 2, …, 7, 1, …
/// bytes.
fn tiny_cuts(len: usize) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut end = 0;
    for size in (1..=7).cycle() {
        end += size;
        if end >= len {
            break;
        }
        cuts.push(end);
    }
    cuts
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Chunked<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.next_cut < self.cuts.len() && self.cuts[self.next_cut] <= self.pos {
            self.next_cut += 1;
        }
        let end = self
            .cuts
            .get(self.next_cut)
            .copied()
            .unwrap_or(self.data.len());
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

fn smoke() -> (SystemConfig, Vec<u8>) {
    let cfg = SystemConfig::prefetch_default(5);
    let trace = PopulationConfig::small_test(777).generate();
    let mut stream = Vec::new();
    write_events(&trace, cfg.ad_refresh, &mut stream).unwrap();
    (cfg, stream)
}

fn serve_with<R: BufRead>(cfg: &SystemConfig, threads: usize, input: R) -> ServeOutcome {
    let mut opts = ServeOptions::new(cfg.clone());
    opts.threads = threads;
    serve(&opts, input).unwrap()
}

/// Asserts that `bytes` served in 1- to 7-byte chunks matches the
/// whole-buffer replay of the same bytes at 1 and 2 workers, and
/// returns the whole-buffer outcome.
fn assert_chunking_invisible(cfg: &SystemConfig, bytes: &[u8]) -> ServeOutcome {
    let whole = serve_with(cfg, 2, bytes);
    for threads in [1, 2] {
        let out = serve_with(cfg, threads, Chunked::tiny(bytes));
        assert_eq!(out.report, whole.report, "{threads} workers");
        assert_eq!(out.requests, whole.requests, "{threads} workers");
        assert_eq!(out.ingest_errors, whole.ingest_errors, "{threads} workers");
    }
    whole
}

#[test]
fn tiny_chunks_reproduce_the_smoke_golden() {
    let (cfg, stream) = smoke();
    let whole = assert_chunking_invisible(&cfg, &stream);
    assert_eq!(whole.report.stable_hash(), SMOKE_GOLDEN);
    assert_eq!(whole.requests, whole.report.slots);
    assert_eq!(whole.ingest_errors, 0);
}

#[test]
fn crlf_line_endings_reproduce_the_smoke_golden() {
    let (cfg, stream) = smoke();
    let mut crlf = Vec::with_capacity(stream.len() * 2);
    for &b in &stream {
        if b == b'\n' {
            crlf.push(b'\r');
        }
        crlf.push(b);
    }
    let whole = assert_chunking_invisible(&cfg, &crlf);
    assert_eq!(whole.report.stable_hash(), SMOKE_GOLDEN);
    assert_eq!(whole.ingest_errors, 0);
}

#[test]
fn a_last_line_without_newline_is_still_served() {
    let (cfg, stream) = smoke();
    let cut = stream
        .strip_suffix(b"\n")
        .expect("stream ends in a newline");
    let whole = assert_chunking_invisible(&cfg, cut);
    assert_eq!(whole.report.stable_hash(), SMOKE_GOLDEN);
    assert_eq!(whole.requests, whole.report.slots);
    assert_eq!(whole.ingest_errors, 0);
}

#[test]
fn shutdown_mid_chunk_ignores_the_junk_behind_it() {
    let (cfg, stream) = smoke();
    // The header and 500 events, then `shutdown` and junk that would
    // be rejected (and one valid-looking event) if it were ever read.
    let body_end = stream
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(500)
        .map(|(i, _)| i + 1)
        .unwrap();
    let prefix = &stream[..body_end];
    let mut bytes = prefix.to_vec();
    let shutdown_at = bytes.len();
    bytes.extend_from_slice(b"shutdown\n\xff\xfejunk\nslot,999999999,0,0\n");
    let shutdown_end = shutdown_at + "shutdown\n".len();

    // One chunk spans the end of the last event, the sentinel and the
    // first junk bytes.
    let (from, to) = (shutdown_at - 3, shutdown_end + 5);
    let mut cuts: Vec<usize> = tiny_cuts(bytes.len())
        .into_iter()
        .filter(|&c| c < from || c > to)
        .collect();
    cuts.push(from);
    cuts.push(to);
    cuts.sort_unstable();

    let ended = serve_with(&cfg, 2, prefix);
    let whole = serve_with(&cfg, 2, bytes.as_slice());
    assert_eq!(whole.report, ended.report);
    for threads in [1, 2] {
        let out = serve_with(&cfg, threads, Chunked::new(&bytes, cuts.clone()));
        assert_eq!(out.report, ended.report, "{threads} workers");
        assert_eq!(out.requests, 500, "{threads} workers");
        assert_eq!(out.ingest_errors, 0, "{threads} workers");
    }
}
