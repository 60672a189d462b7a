//! The sharded online server: per-client decision engines driven by an
//! external event feed.
//!
//! # Architecture
//!
//! The server reuses the batch pipeline's sharding machinery wholesale —
//! that is what makes its results bit-identical to the simulator's:
//!
//! - the population splits along [`shard_ranges`], the shard count
//!   defaults to [`default_shards`], per-shard configs come from
//!   [`shard_configs`], and the shared campaign catalog from one
//!   [`ShardContext`] — exactly the derivations `Simulator::run_parallel`
//!   uses;
//! - each shard is one [`ClientEngine`], built cold (an empty
//!   [`UserSlots`] view: an online server cannot know the future, so the
//!   oracle predictor is rejected up front);
//! - workers claim shard indices from the work-stealing [`WorkQueue`]
//!   to build engines, then own what they built. The ingest thread
//!   splits lines straight out of the reader's buffer and appends each
//!   routed event to its owner's pending batch. A batch is handed over
//!   once it holds `BATCH_EVENTS` events, and every non-empty batch is
//!   handed over as soon as the input chunk in hand is used up, so an
//!   event never waits for more input. Each worker's queue is a bounded
//!   FIFO of `QUEUE_BATCHES` batches; a full queue blocks the router,
//!   which keeps the backlog bounded;
//! - a worker takes one batch, gathers whatever else is already queued
//!   (up to `GROUP_EVENTS` events), stable-sorts the group by shard and
//!   decides it shard by shard, so consecutive decisions reuse one
//!   engine's warm state. The sort is stable, so one shard's events are
//!   still decided in arrival order by one thread — the determinism
//!   contract — while distinct shards proceed in parallel;
//! - at end of stream (EOF or the `shutdown` sentinel) every engine
//!   drains its remaining internal events, finalizes, and the reports
//!   merge **in shard order**, the same fixed summation order as the
//!   batch merge.
//!
//! Each event is fully decided (cache hit, fallback fetch, or unfilled —
//! including any internal syncs due before it) in its turn within the
//! group, and the enqueue-to-decision latency of every event lands in
//! the `serve.decision_latency_us` histogram. Under saturation that
//! latency includes the wait inside the group.
//!
//! # Why a shard's sub-stream equals its batch sub-trace
//!
//! The batch shard simulator drives shard `i` with the slots of users
//! `range_i`, renumbered to `0..len` and time-sorted. Routing a global
//! time-sorted stream by user range and renumbering (`u - range.start`,
//! a monotone shift) yields exactly that subsequence in exactly that
//! order. So every per-shard engine sees the identical input either
//! way, and identical inputs + identical configs = identical reports.

use std::io::{self, BufRead};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::Instant;

use adpf_core::{
    default_shards, shard_configs, ClientEngine, ShardContext, SimReport, SystemConfig,
};
use adpf_desim::{SimTime, WorkQueue};
use adpf_obs::{MetricRegistry, ObsSink};
use adpf_prediction::PredictorKind;
use adpf_traces::{shard_ranges, AppId, UserId, UserSlots};

use crate::protocol::{IngestError, Parsed, Parser, StreamHeader};

/// Name of the enqueue-to-decision latency histogram (microseconds,
/// log-linear buckets, 4 steps per octave) recorded for every served
/// request.
pub const DECISION_LATENCY_METRIC: &str = "serve.decision_latency_us";

/// Events per router-to-worker batch: a worker's pending events are
/// handed over once this many accumulate.
const BATCH_EVENTS: usize = 1024;

/// Batches each worker's queue holds before the router blocks.
const QUEUE_BATCHES: usize = 64;

/// Events a worker gathers from its queue into one shard-sorted group.
const GROUP_EVENTS: usize = 16 * 1024;

/// Longest accepted input line, in bytes, far above any protocol
/// record. A longer line is one rejection and is skipped through its
/// newline, so the carry buffer never holds more than this.
const MAX_LINE: usize = 4 * 1024;

/// How a [`serve`] run is configured.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Master system config; sharded per engine exactly like the batch
    /// pipeline shards it.
    pub config: SystemConfig,
    /// Worker threads (clamped to the shard count).
    pub threads: usize,
    /// Shard-count override; `None` derives [`default_shards`] from the
    /// stream header's population, matching `Simulator::run_parallel`.
    pub shards: Option<usize>,
    /// How many rejected-line errors to keep verbatim for the caller
    /// (all rejections are *counted*; only a sample is retained).
    pub error_sample: usize,
}

impl ServeOptions {
    /// Serving defaults for `config`: batch-equivalent sharding, two
    /// workers, a 20-error sample.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            config,
            threads: 2,
            shards: None,
            error_sample: 20,
        }
    }
}

/// Everything a completed serve session produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The stream header the session was sized from.
    pub header: StreamHeader,
    /// Shard count actually used.
    pub shards: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// The final report; bit-identical to the batch simulator's on the
    /// same `(config, event stream)`.
    pub report: SimReport,
    /// Merged metric registry: per-shard simulation registries in shard
    /// order, then the per-worker serving registries (decision-latency
    /// histograms), then the ingest counters (`serve.*` namespace).
    pub registry: MetricRegistry,
    /// Well-formed events decided.
    pub requests: u64,
    /// Lines rejected by the ingest parser.
    pub ingest_errors: u64,
    /// The first [`ServeOptions::error_sample`] rejections, verbatim.
    pub error_sample: Vec<IngestError>,
}

/// Unrecoverable serve failures. Rejected *lines* are not errors at
/// this level — they are counted and skipped; see
/// [`ServeOutcome::ingest_errors`].
#[derive(Debug)]
pub enum ServeError {
    /// Reading the input failed.
    Io(std::io::Error),
    /// The stream ended before a valid `#serve` header arrived; nothing
    /// can be sized without one.
    MissingHeader,
    /// The configuration cannot be served online (e.g. the oracle
    /// predictor, which needs the future slot stream at construction).
    Unsupported(String),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::MissingHeader => {
                write!(
                    f,
                    "input ended before a `#serve,users=N,horizon_ms=H` header"
                )
            }
            ServeError::Unsupported(reason) => write!(f, "unsupported serve config: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// One routed event: shard-local addressing plus the enqueue timestamp
/// the decision-latency histogram measures from.
struct Routed {
    shard: u32,
    time: SimTime,
    user: UserId,
    app: AppId,
    enqueued: Instant,
}

/// Tallies rejected lines, keeping the first `cap` verbatim.
struct ErrorLog {
    count: u64,
    cap: usize,
    sample: Vec<IngestError>,
}

impl ErrorLog {
    fn push(&mut self, e: IngestError) {
        self.count += 1;
        if self.sample.len() < self.cap {
            self.sample.push(e);
        }
    }
}

/// Splits a [`BufRead`] into lines straight from its buffer and parses
/// each: a line inside one chunk is borrowed from it, and only a line
/// that spans two chunks is copied, into one reused carry buffer.
struct LineSplitter<R> {
    input: R,
    partial: PartialLine,
}

/// The start of a line that spans chunks, plus the parser its lines go
/// to.
struct PartialLine {
    /// The line's bytes so far; never longer than [`MAX_LINE`], and
    /// allocated at that size once so it never grows past it.
    carry: Vec<u8>,
    /// The line so far already exceeds [`MAX_LINE`]: the rest of it is
    /// dropped and the whole line is one rejection.
    overlong: bool,
    parser: Parser,
}

impl PartialLine {
    /// Parses the line whose last bytes are `tail` (without the `\n`).
    fn finish(&mut self, tail: &[u8]) -> Parsed {
        let parsed = if self.overlong || self.carry.len() + tail.len() > MAX_LINE {
            self.parser.reject_overlong(MAX_LINE)
        } else if self.carry.is_empty() {
            self.parser.feed_bytes(tail)
        } else {
            self.carry.extend_from_slice(tail);
            self.parser.feed_bytes(&self.carry)
        };
        self.carry.clear();
        self.overlong = false;
        parsed
    }

    /// Keeps `bytes`, the unterminated end of a chunk, for the next one.
    fn hold(&mut self, bytes: &[u8]) {
        if self.overlong {
            return;
        }
        if self.carry.len() + bytes.len() > MAX_LINE {
            self.overlong = true;
            self.carry.clear();
        } else {
            self.carry.extend_from_slice(bytes);
        }
    }
}

impl<R: BufRead> LineSplitter<R> {
    fn new(input: R) -> Self {
        Self {
            input,
            partial: PartialLine {
                carry: Vec::with_capacity(MAX_LINE),
                overlong: false,
                parser: Parser::new(),
            },
        }
    }

    /// Hands each line of the next input chunk to `each`, parsed, and
    /// consumes the chunk. When `each` breaks, only the input through
    /// that line is consumed. Returns `false` once `each` broke or the
    /// input is exhausted; a last line without a newline is handed over
    /// at end of input.
    fn next_chunk(&mut self, mut each: impl FnMut(Parsed) -> ControlFlow<()>) -> io::Result<bool> {
        let chunk = loop {
            match self.input.fill_buf() {
                Ok(chunk) => break chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        if chunk.is_empty() {
            if self.partial.overlong || !self.partial.carry.is_empty() {
                let _ = each(self.partial.finish(&[]));
            }
            return Ok(false);
        }
        let mut start = 0;
        while let Some(len) = chunk[start..].iter().position(|&b| b == b'\n') {
            let end = start + len;
            let flow = each(self.partial.finish(&chunk[start..end]));
            start = end + 1;
            if flow.is_break() {
                self.input.consume(start);
                return Ok(false);
            }
        }
        self.partial.hold(&chunk[start..]);
        let used = chunk.len();
        self.input.consume(used);
        Ok(true)
    }
}

/// Runs one serve session over `input` to completion (EOF or the
/// `shutdown` sentinel) and returns the final report plus observability
/// snapshot.
///
/// The report is a deterministic function of `(config, event stream)`:
/// thread count, shard claiming order, and wall-clock timing are all
/// invisible after the shard-ordered merge, exactly as in the batch
/// pipeline. Malformed input never panics and never kills the session —
/// see [`crate::protocol`] for the rejection rules.
pub fn serve<R: BufRead>(opts: &ServeOptions, input: R) -> Result<ServeOutcome, ServeError> {
    if matches!(opts.config.predictor, PredictorKind::Oracle) {
        return Err(ServeError::Unsupported(
            "the oracle predictor needs the future slot stream at construction; \
             an online server cannot provide it"
                .into(),
        ));
    }

    let mut errors = ErrorLog {
        count: 0,
        cap: opts.error_sample,
        sample: Vec::new(),
    };

    // Phase 1: scan to the header. Anything rejected on the way (events
    // before the header, malformed headers) is counted like any other
    // bad line; only end-of-input without a header is fatal.
    let mut lines = LineSplitter::new(input);
    let mut header = None;
    while header.is_none() {
        let more = lines.next_chunk(|parsed| match parsed {
            Parsed::Header(h) => {
                header = Some(h);
                ControlFlow::Break(())
            }
            Parsed::Rejected(e) => {
                errors.push(e);
                ControlFlow::Continue(())
            }
            Parsed::Shutdown => ControlFlow::Break(()),
            Parsed::Event(_) | Parsed::Skip => ControlFlow::Continue(()),
        })?;
        if !more {
            break;
        }
    }
    let Some(header) = header else {
        return Err(ServeError::MissingHeader);
    };

    // Size the run exactly like the batch pipeline sizes it from a
    // trace: same shard boundaries, same per-shard configs, same shared
    // context. `days` replicates `Trace::days` on the header's horizon.
    let users = header.users;
    let horizon = SimTime::from_millis(header.horizon_ms);
    let days = header.horizon_ms.div_ceil(adpf_desim::time::MILLIS_PER_DAY) as u32;
    let want_shards = opts.shards.unwrap_or_else(|| default_shards(users));
    let ranges = shard_ranges(users, want_shards);
    let n = ranges.len();
    let configs = shard_configs(&opts.config, users, &ranges);
    let ctx = ShardContext::new(&opts.config);
    let threads = opts.threads.clamp(1, n);

    // Shard ownership: workers claim construction jobs from the
    // work-stealing queue and keep what they build, so engine setup
    // load-balances while event handling stays single-owner per shard.
    let queue = WorkQueue::new(n);
    let ownership: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
    // All workers (and the router) meet here once every engine is built
    // and the ownership table is complete.
    let barrier = Barrier::new(threads + 1);
    type ShardResult = (SimReport, MetricRegistry);
    let results: Vec<Mutex<Option<ShardResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker_regs: Vec<Mutex<Option<MetricRegistry>>> =
        (0..threads).map(|_| Mutex::new(None)).collect();
    let mut txs = Vec::with_capacity(threads);
    let mut rxs = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = mpsc::sync_channel::<Vec<Routed>>(QUEUE_BATCHES);
        txs.push(tx);
        rxs.push(rx);
    }

    let mut requests = 0u64;
    let route_result: Result<(), ServeError> = std::thread::scope(|scope| {
        let (queue, ownership, barrier) = (&queue, &ownership, &barrier);
        let (ranges, configs, ctx) = (&ranges, &configs, &ctx);
        let (results, worker_regs) = (&results, &worker_regs);
        for (w, rx) in rxs.into_iter().enumerate() {
            scope.spawn(move || {
                // Build phase: claim shard indices until the queue runs
                // dry. Engines start cold — the empty UserSlots view is
                // bit-identical to the populated one for every
                // non-oracle predictor (nothing else reads it).
                let mut engines: Vec<Option<ClientEngine>> =
                    (0..ranges.len()).map(|_| None).collect();
                while let Some(i) = queue.claim() {
                    let len = ranges[i].end - ranges[i].start;
                    let cold = UserSlots::from_slots(&[], len);
                    engines[i] = Some(ClientEngine::new(
                        configs[i].clone(),
                        &cold,
                        horizon,
                        days,
                        ctx,
                    ));
                    ownership[i].store(w, Ordering::Release);
                }
                barrier.wait();

                // Decision phase: batches for owned shards arrive in
                // stream order. Take one, gather what else is already
                // queued, and decide the group shard by shard; the
                // stable sort keeps each shard's arrival order. The
                // latency histogram measures enqueue to
                // decision-complete, so queueing delay under load,
                // including the wait inside a group, is part of the
                // number — what an SLA would see.
                let obs = MetricRegistry::new();
                let lat = obs.histogram(DECISION_LATENCY_METRIC);
                let mut group: Vec<Routed> = Vec::new();
                while let Ok(mut batch) = rx.recv() {
                    group.append(&mut batch);
                    while group.len() < GROUP_EVENTS {
                        let Ok(mut batch) = rx.try_recv() else { break };
                        group.append(&mut batch);
                    }
                    group.sort_by_key(|m| m.shard);
                    for m in group.drain(..) {
                        let engine = engines[m.shard as usize]
                            .as_mut()
                            .expect("event routed to a worker that owns its shard");
                        engine.drain_internal_before(m.time);
                        engine.on_slot(m.time, m.user, m.app);
                        obs.observe_id(lat, m.enqueued.elapsed().as_micros() as u64);
                    }
                }

                // Shutdown phase (all senders dropped): drain the
                // engines' remaining internal events and finalize into
                // the shard-indexed slots the merge reads in order.
                for (i, slot) in engines.into_iter().enumerate() {
                    if let Some(mut engine) = slot {
                        engine.drain_internal();
                        *results[i].lock().expect("shard slot poisoned") = Some(engine.finalize());
                    }
                }
                *worker_regs[w].lock().expect("worker registry poisoned") = Some(obs);
            });
        }

        // Router (this thread): wait out engine construction, then
        // batch each event for its shard's owner. FIFO queues of
        // stream-ordered batches preserve per-shard arrival order.
        barrier.wait();
        let mut pending: Vec<Vec<Routed>> = (0..threads).map(|_| Vec::new()).collect();
        let send = |w: usize, batch: &mut Vec<Routed>| {
            txs[w]
                .send(std::mem::take(batch))
                .expect("worker outlives the router");
        };
        loop {
            let more = lines.next_chunk(|parsed| {
                match parsed {
                    Parsed::Event(e) => {
                        // First range whose end exceeds the user id; the
                        // parser guarantees `user < users`, so this hits.
                        let shard = ranges.partition_point(|r| r.end <= e.user);
                        let w = ownership[shard].load(Ordering::Acquire);
                        let batch = &mut pending[w];
                        batch.push(Routed {
                            shard: shard as u32,
                            time: SimTime::from_millis(e.time_ms),
                            user: UserId(e.user - ranges[shard].start),
                            app: AppId(e.app),
                            enqueued: Instant::now(),
                        });
                        requests += 1;
                        if batch.len() == BATCH_EVENTS {
                            send(w, batch);
                        }
                    }
                    Parsed::Rejected(e) => errors.push(e),
                    Parsed::Shutdown => return ControlFlow::Break(()),
                    Parsed::Header(_) | Parsed::Skip => {}
                }
                ControlFlow::Continue(())
            })?;
            // The chunk in hand is used up: hand over everything
            // pending rather than hold it back for more input.
            for (w, batch) in pending.iter_mut().enumerate() {
                if !batch.is_empty() {
                    send(w, batch);
                }
            }
            if !more {
                break;
            }
        }
        drop(txs);
        Ok(())
    });
    route_result?;

    // Merge strictly in shard order — the identical fixed summation
    // order as the batch pipeline, which is what keeps the report hash
    // equal at every thread count. The wall-clock-flavored serving
    // registries follow in worker order; they carry no deterministic
    // metrics.
    let mut report = SimReport::empty();
    report.reserve_users(users as usize);
    let mut registry = MetricRegistry::new();
    for slot in results {
        let (r, reg) = slot
            .into_inner()
            .expect("shard slot poisoned")
            .expect("every shard finalizes");
        report.merge(&r);
        registry.merge(&reg);
    }
    for wr in worker_regs {
        if let Some(reg) = wr.into_inner().expect("worker registry poisoned") {
            registry.merge(&reg);
        }
    }
    registry.add("serve.requests", requests);
    registry.add("serve.ingest_errors", errors.count);
    registry.gauge_max("serve.shards", n as u64);
    registry.gauge_max("serve.threads", threads as u64);

    Ok(ServeOutcome {
        header,
        shards: n,
        threads,
        report,
        registry,
        requests,
        ingest_errors: errors.count,
        error_sample: errors.sample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_events;
    use adpf_core::Simulator;
    use adpf_traces::PopulationConfig;

    fn smoke_stream(seed: u64, cfg: &SystemConfig) -> Vec<u8> {
        let trace = PopulationConfig::small_test(seed).generate();
        let mut buf = Vec::new();
        write_events(&trace, cfg.ad_refresh, &mut buf).unwrap();
        buf
    }

    #[test]
    fn serve_matches_batch_simulator_bit_for_bit() {
        let cfg = SystemConfig::prefetch_default(5);
        let trace = PopulationConfig::small_test(777).generate();
        let batch = Simulator::run_parallel(&cfg, &trace, 2);
        let stream = smoke_stream(777, &cfg);
        let out = serve(&ServeOptions::new(cfg), stream.as_slice()).unwrap();
        assert_eq!(out.report, batch);
        assert_eq!(out.report.stable_hash(), batch.stable_hash());
        assert_eq!(out.ingest_errors, 0);
        assert_eq!(out.requests, batch.slots);
    }

    #[test]
    fn thread_count_is_invisible_in_the_report() {
        let cfg = SystemConfig::prefetch_default(9);
        let stream = smoke_stream(41, &cfg);
        let mut hashes = Vec::new();
        for threads in [1, 3, 8] {
            let mut o = ServeOptions::new(cfg.clone());
            o.threads = threads;
            let out = serve(&o, stream.as_slice()).unwrap();
            assert_eq!(out.threads, threads.min(out.shards));
            hashes.push(out.report.stable_hash());
        }
        assert_eq!(hashes[0], hashes[1]);
        assert_eq!(hashes[1], hashes[2]);
    }

    #[test]
    fn rejected_lines_are_counted_not_fatal() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let clean = serve(&ServeOptions::new(cfg.clone()), stream.as_slice()).unwrap();
        // Corrupt the stream: garbage, truncation, and an out-of-range
        // user spliced between valid events.
        let text = String::from_utf8(stream).unwrap();
        let mut dirty = String::new();
        for (i, line) in text.lines().enumerate() {
            dirty.push_str(line);
            dirty.push('\n');
            if i == 10 {
                dirty.push_str("slot,notatime,0,0\nslot,1\nslot,0,999999,0\n\u{7}garbage\n");
            }
        }
        let out = serve(&ServeOptions::new(cfg), dirty.as_bytes()).unwrap();
        assert_eq!(out.ingest_errors, 4);
        assert_eq!(out.error_sample.len(), 4);
        assert!(out.error_sample.iter().all(|e| e.line > 0));
        // The valid events all got through: the report is unperturbed.
        assert_eq!(out.report, clean.report);
        assert_eq!(
            out.registry.counter_value("serve.ingest_errors"),
            4,
            "rejections surface in the obs namespace"
        );
    }

    #[test]
    fn a_line_of_invalid_utf8_is_one_rejection() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let clean = serve(&ServeOptions::new(cfg.clone()), stream.as_slice()).unwrap();
        let mut dirty = Vec::new();
        for (i, line) in stream.split_inclusive(|&b| b == b'\n').enumerate() {
            dirty.extend_from_slice(line);
            if i == 10 {
                dirty.extend_from_slice(b"slot,2,\xff\xfe,0\n");
            }
        }
        let out = serve(&ServeOptions::new(cfg), dirty.as_slice()).unwrap();
        assert_eq!(out.ingest_errors, 1);
        assert_eq!(out.error_sample[0].line, 12);
        assert_eq!(out.requests, clean.requests);
        assert_eq!(out.report, clean.report);
    }

    /// Read size of the readers the overlong-line tests serve from.
    const CHUNK: usize = 8 * 1024;

    /// The smoke stream with one 3 MiB line spliced in after its 11th
    /// line: spaces, then a copy of that valid event line. The copy
    /// starts a fresh `CHUNK`-byte read, so a reader that let the tail of
    /// an overlong line through would accept it as an event.
    fn stream_with_an_endless_line(stream: &[u8]) -> Vec<u8> {
        let mut dirty = Vec::new();
        for (i, line) in stream.split_inclusive(|&b| b == b'\n').enumerate() {
            dirty.extend_from_slice(line);
            if i == 10 {
                let pad = (3 << 20) - dirty.len() % CHUNK;
                dirty.extend(std::iter::repeat_n(b' ', pad));
                dirty.extend_from_slice(line);
            }
        }
        dirty
    }

    #[test]
    fn an_overlong_line_is_one_rejection() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let clean = serve(&ServeOptions::new(cfg.clone()), stream.as_slice()).unwrap();
        let dirty = stream_with_an_endless_line(&stream);
        let reader = io::BufReader::with_capacity(CHUNK, dirty.as_slice());
        let out = serve(&ServeOptions::new(cfg), reader).unwrap();
        assert_eq!(out.ingest_errors, 1);
        assert_eq!(out.error_sample[0].line, 12);
        assert_eq!(out.requests, clean.requests);
        assert_eq!(out.report, clean.report);
    }

    #[test]
    fn the_carry_buffer_stays_within_its_cap() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let dirty = stream_with_an_endless_line(&stream);
        let mut lines = LineSplitter::new(io::BufReader::with_capacity(CHUNK, dirty.as_slice()));
        let (mut events, mut rejected) = (0, 0);
        loop {
            let more = lines
                .next_chunk(|parsed| {
                    match parsed {
                        Parsed::Event(_) => events += 1,
                        Parsed::Rejected(_) => rejected += 1,
                        _ => {}
                    }
                    ControlFlow::Continue(())
                })
                .unwrap();
            assert!(lines.partial.carry.capacity() <= MAX_LINE);
            if !more {
                break;
            }
        }
        assert_eq!(rejected, 1);
        assert_eq!(events, stream.iter().filter(|&&b| b == b'\n').count() - 1);
    }

    #[test]
    fn shutdown_sentinel_finalizes_early() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let text = String::from_utf8(stream).unwrap();
        let mut cut = String::new();
        for (i, line) in text.lines().enumerate() {
            if i == 50 {
                cut.push_str("shutdown\n");
                cut.push_str("slot,0,0,0\n"); // Never read.
                break;
            }
            cut.push_str(line);
            cut.push('\n');
        }
        let out = serve(&ServeOptions::new(cfg), cut.as_bytes()).unwrap();
        // Line 0 is the header, lines 1..50 are events.
        assert_eq!(out.requests, 49);
        assert!(out.report.syncs > 0, "internal events still drained");
    }

    #[test]
    fn missing_header_is_the_one_fatal_ingest_error() {
        let cfg = SystemConfig::prefetch_default(5);
        let err = serve(&ServeOptions::new(cfg.clone()), &b"slot,1,2,3\n"[..]).unwrap_err();
        assert!(matches!(err, ServeError::MissingHeader));
        let err = serve(&ServeOptions::new(cfg), &b""[..]).unwrap_err();
        assert!(matches!(err, ServeError::MissingHeader));
    }

    #[test]
    fn oracle_predictor_is_rejected_up_front() {
        let mut cfg = SystemConfig::prefetch_default(5);
        cfg.predictor = PredictorKind::Oracle;
        let err = serve(
            &ServeOptions::new(cfg),
            &b"#serve,users=1,horizon_ms=1\n"[..],
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Unsupported(_)));
    }

    #[test]
    fn latency_histogram_records_every_request() {
        let cfg = SystemConfig::prefetch_default(5);
        let stream = smoke_stream(777, &cfg);
        let out = serve(&ServeOptions::new(cfg), stream.as_slice()).unwrap();
        let hist = out
            .registry
            .histogram_snapshot(DECISION_LATENCY_METRIC)
            .expect("latency histogram present");
        assert_eq!(hist.count(), out.requests);
        assert_eq!(out.registry.counter_value("serve.requests"), out.requests);
    }
}
