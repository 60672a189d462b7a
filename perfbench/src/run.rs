//! One benchmark run of one workload: set-up, the measured phase, the
//! output checks, and the metrics they yield.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use adpf_core::{ShardContext, SimReport, Simulator, SystemConfig};
use adpf_desim::WorkQueue;
use adpf_obs::{Histogram, MetricRegistry};
use adpf_scenario::ScenarioPopulation;
use adpf_serve::protocol::Parsed;
use adpf_serve::{write_events, Parser, DECISION_LATENCY_METRIC};
use adpf_traces::Trace;

use crate::check;
use crate::serve_open::{self, Session, BASE_RATE, MAX_LAG_P99_US};
use crate::stats::{hist_quantile, median};
use crate::traced::{self, Driven, LayerTimes, ShardSource};
use crate::workload::{Spec, Workload, BATCH_THREADS};

/// A run repeats its set-up at least this many times, and until
/// [`SETUP_SPAN`] has passed; `setup_s` is the median.
const SETUP_REPS: usize = 7;
const SETUP_SPAN: Duration = Duration::from_millis(250);

/// Share of `--seconds` that the traced `serve-open` run spends in its
/// paced phase.
const PACED_SHARE: f64 = 0.5;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted: simulation passes, plus event lines offered
    /// to the server.
    pub attempted: u64,
    /// Operations that panicked, were rejected or left undecided, or
    /// produced a report that failed its check.
    pub failed: u64,
    /// Why each failed check failed.
    pub problems: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn fail(&mut self, n: u64, problem: String) {
        self.failed += n;
        self.problems.push(problem);
    }

    /// Counts one simulation pass and checks its report: the accounting
    /// identities always, and its hash when one is expected.
    fn verify(&mut self, what: &str, r: &SimReport, want: Option<u64>) {
        self.attempted += 1;
        eprintln!("report {what}: {:016x}", r.stable_hash());
        let res = check::invariants(what, r)
            .and_then(|()| want.map_or(Ok(()), |w| check::expect_hash(what, r, w)));
        if let Err(e) = res {
            self.fail(1, e);
        }
    }

    /// Counts a serve session's event lines and checks that each was
    /// accepted and decided, and that the session's report is `want`.
    fn verify_session(&mut self, what: &str, s: &Session, want: u64) {
        self.attempted += s.offered;
        eprintln!("report {what}: {:016x}", s.out.report.stable_hash());
        let decided = decision_hist(&s.out.registry).count();
        let lost = s.offered.saturating_sub(decided) + s.out.ingest_errors;
        if lost > 0 {
            self.fail(
                lost,
                format!(
                    "{what}: {} of {} lines rejected or undecided ({:?})",
                    lost, s.offered, s.out.error_sample
                ),
            );
        } else if let Err(e) = check::expect_hash(what, &s.out.report, want) {
            self.fail(s.offered, e);
        }
    }

    /// Runs one call into the program, turning a panic into a failed
    /// operation.
    fn guard<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.attempted += 1;
                self.fail(1, format!("{what} panicked"));
                None
            }
        }
    }
}

/// A workload's population: materialized once, or generated shard by
/// shard inside every pass.
enum Population {
    Whole(Trace),
    Sharded(Box<ScenarioPopulation>),
}

/// The workload's inputs after set-up.
struct Inputs {
    population: Population,
    /// The serialized event stream (`serve-open` only).
    stream: Vec<u8>,
    /// Median set-up time.
    setup_s: f64,
    realtime: SystemConfig,
    prefetch: SystemConfig,
}

/// Builds the inputs repeatedly (see [`SETUP_REPS`]) and keeps the last.
///
/// Set-up is everything before the measured phase: trace generation for
/// the materialized workloads, wire serialization for `serve-open`, and
/// for `stream-stress` (whose generation is part of the measured
/// pipeline) the population, configs, shared shard context and a warm-up
/// generation of every shard.
fn setup(spec: &Spec) -> Inputs {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS || start.elapsed() < SETUP_SPAN {
        drop(last.take()); // Free the previous inputs before timing the next.
        let t = Instant::now();
        let realtime = spec.realtime_config();
        let prefetch = spec.prefetch_config();
        let mut stream = Vec::new();
        let population = match spec.scenario() {
            Some(pop) => {
                std::hint::black_box(ShardContext::new(&prefetch));
                warm_up(&pop, spec.shards());
                Population::Sharded(Box::new(pop))
            }
            None => {
                let trace = spec.generate();
                if spec.workload == Workload::ServeOpen {
                    write_events(&trace, prefetch.ad_refresh, &mut stream)
                        .expect("writing to memory cannot fail");
                }
                Population::Whole(trace)
            }
        };
        times.push(t.elapsed().as_secs_f64());
        last = Some(Inputs {
            population,
            stream,
            setup_s: 0.0,
            realtime,
            prefetch,
        });
    }
    let mut inputs = last.expect("at least one set-up");
    inputs.setup_s = median(&times);
    inputs
}

/// Generates every shard of `pop` once on the pipeline's worker count,
/// dropping each as it is made: the streaming workload's warm-up, which
/// brings the generator and the workers' allocator arenas to steady state
/// before the measured pipeline generates them again. Timing it on both
/// workers also makes it robust to the two CPUs running at different
/// speeds, which a single-threaded few-millisecond set-up is not.
fn warm_up(pop: &ScenarioPopulation, n_shards: usize) {
    let queue = WorkQueue::new(n_shards);
    std::thread::scope(|scope| {
        for _ in 0..BATCH_THREADS {
            scope.spawn(|| {
                while let Some(i) = queue.claim() {
                    std::hint::black_box(pop.generate_shard(i, n_shards));
                }
            });
        }
    });
}

impl Inputs {
    /// One untraced pass through the batch or streaming pipeline.
    fn pass(&self, spec: &Spec, config: &SystemConfig) -> SimReport {
        match &self.population {
            Population::Whole(trace) => Simulator::run_parallel(config, trace, BATCH_THREADS),
            Population::Sharded(pop) => {
                let n = spec.shards();
                Simulator::run_streaming(config, spec.size.users, n, BATCH_THREADS, |i| {
                    pop.generate_shard(i, n)
                })
            }
        }
    }

    fn trace(&self) -> &Trace {
        match &self.population {
            Population::Whole(t) => t,
            Population::Sharded(_) => panic!("the streaming workload has no materialized trace"),
        }
    }
}

/// Work done in a measured phase and the wall time it took.
#[derive(Default)]
struct Throughput {
    events: u64,
    slots: u64,
    wall: f64,
    iterations: usize,
}

impl Throughput {
    /// Counts one iteration: the reports it produced in `wall` seconds.
    fn add(&mut self, reports: &[&SimReport], wall: f64) {
        for r in reports {
            self.events += events(r);
            self.slots += r.slots;
        }
        self.wall += wall;
        self.iterations += 1;
    }

    /// The host-cost end-to-end metrics. Throughput is the phase's whole
    /// work over its whole wall time: a time average, which a host whose
    /// speed drifts during the run moves less than a median of passes.
    fn report(&self, out: &mut Outcome, inputs: &Inputs) {
        out.metric("setup_s", inputs.setup_s, "s");
        out.metric("events_per_s", self.events as f64 / self.wall, "events/s");
        out.metric("serve_rps", self.slots as f64 / self.wall, "req/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
}

/// Simulated events of a report: slots plus sync decisions.
fn events(r: &SimReport) -> u64 {
    r.slots + r.syncs + r.syncs_skipped + r.syncs_dropped
}

fn decision_hist(reg: &MetricRegistry) -> Histogram {
    reg.histogram_snapshot(DECISION_LATENCY_METRIC)
        .unwrap_or_default()
}

/// Calls `f` until `budget` is spent, at least once, skipping a call that
/// would overrun the budget by the last call's duration; stops early when
/// `f` returns `None`.
fn for_budget(budget: Duration, mut f: impl FnMut() -> Option<()>) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        if f().is_none() || start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    adpf_obs::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU time this process has used (user + system), in seconds.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // the 12th and 13th of them, in USER_HZ (100 per second) ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// Runs `spec` untraced (end-to-end metrics) or traced (per-layer
/// metrics) with a measured phase of `seconds`.
pub fn run(spec: &Spec, seconds: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let Some(inputs) = out.guard("set-up", || setup(spec)) else {
        return out;
    };
    let golden = check::golden(spec);
    if golden.is_none() {
        eprintln!(
            "no golden for {} seed {}: checking accounting identities and \
             cross-path equality only",
            spec.workload.name(),
            spec.seed
        );
    }
    let done = match (trace, spec.workload) {
        (false, Workload::ServeOpen) => serve_untraced(spec, &inputs, golden, seconds, &mut out),
        (false, _) => batch_untraced(spec, &inputs, golden, seconds, &mut out),
        (true, _) => traced_run(spec, &inputs, golden, seconds, &mut out),
    };
    if done.is_none() && out.problems.is_empty() {
        out.fail(1, "run aborted".into());
    }
    out
}

/// The three modelled numbers of the paper, from a realtime and a
/// prefetch report of the same population.
fn modelled(out: &mut Outcome, rt: &SimReport, pf: &SimReport) {
    out.metric("energy_saving_pct", pf.energy_savings_vs(rt) * 100.0, "%");
    out.metric("revenue_loss_pct", pf.revenue_loss_vs(rt) * 100.0, "%");
    out.metric("sla_violation_pct", pf.sla_violation_rate() * 100.0, "%");
}

/// `batch-paper` measures both passes; `stream-stress` measures its
/// prefetch pass, after running the realtime pass once as the reference
/// (which also warms the pipeline up).
fn batch_untraced(
    spec: &Spec,
    inputs: &Inputs,
    golden: Option<(u64, u64)>,
    seconds: Duration,
    out: &mut Outcome,
) -> Option<()> {
    let both = spec.workload == Workload::BatchPaper;
    let reference = if both {
        None
    } else {
        let rt = out.guard("realtime reference", || inputs.pass(spec, &inputs.realtime))?;
        out.verify("realtime reference", &rt, golden.map(|g| g.0));
        Some(rt)
    };
    let mut phase = Throughput::default();
    let mut first: Option<(Option<SimReport>, SimReport)> = None;
    let mut want = golden.map(|(rt, pf)| (Some(rt), pf));
    for_budget(seconds, || {
        let t = Instant::now();
        let (rt, pf) = out.guard("measured pass", || {
            let rt = both.then(|| inputs.pass(spec, &inputs.realtime));
            (rt, inputs.pass(spec, &inputs.prefetch))
        })?;
        let wall = t.elapsed().as_secs_f64();
        phase.add(&rt.iter().chain([&pf]).collect::<Vec<_>>(), wall);
        eprintln!("measured pass {}: {wall:.3} s", phase.iterations);
        out.verify("prefetch pass", &pf, want.map(|w| w.1));
        if let Some(rt) = &rt {
            out.verify("realtime pass", rt, want.and_then(|w| w.0));
        }
        // Later iterations must repeat the first bit for bit.
        want = Some((rt.as_ref().map(SimReport::stable_hash), pf.stable_hash()));
        first.get_or_insert((rt, pf));
        Some(())
    });
    let (rt, pf) = first?;
    let rt = rt.or(reference)?;
    phase.report(out, inputs);
    modelled(out, &rt, &pf);
    Some(())
}

/// The realtime and prefetch passes through the batch or streaming
/// pipeline, checked against the goldens.
fn references(
    spec: &Spec,
    inputs: &Inputs,
    golden: Option<(u64, u64)>,
    out: &mut Outcome,
) -> Option<(SimReport, SimReport)> {
    let rt = out.guard("realtime reference", || inputs.pass(spec, &inputs.realtime))?;
    out.verify("realtime reference", &rt, golden.map(|g| g.0));
    let pf = out.guard("prefetch reference", || inputs.pass(spec, &inputs.prefetch))?;
    out.verify("prefetch reference", &pf, golden.map(|g| g.1));
    Some((rt, pf))
}

/// Phase (a): the first `BASE_RATE × duration` events offered at the
/// base rate, then `shutdown`. Its report must equal the batch engine
/// driven over the same prefix.
fn paced_phase(
    spec: &Spec,
    inputs: &Inputs,
    duration: Duration,
    out: &mut Outcome,
) -> Option<Session> {
    let total = serve_open::event_lines(&inputs.stream);
    let events = ((BASE_RATE * duration.as_secs_f64()) as u64).clamp(1, total.max(1));
    let input = serve_open::prefix_with_shutdown(&inputs.stream, events);
    let session = out.guard("paced session", || {
        serve_open::run_session(&inputs.prefetch, &input, Some(BASE_RATE))
    })?;
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            out.fail(1, format!("paced session: {e}"));
            return None;
        }
    };
    let trace = inputs.trace();
    let want = out.guard("prefix reference", || {
        let slots = trace.ad_slots(inputs.prefetch.ad_refresh);
        let cut = &slots[..(events as usize).min(slots.len())];
        let routed = traced::route(cut, spec.size.users, spec.shards());
        let source = ShardSource::Slots {
            slots: &routed,
            horizon: trace.horizon(),
            days: trace.days(),
        };
        traced::drive(
            &inputs.prefetch,
            spec.size.users,
            spec.shards(),
            BATCH_THREADS,
            &source,
        )
        .report
    })?;
    out.verify("prefix reference", &want, None);
    out.verify_session("paced session", &session, want.stable_hash());
    let lag_p99_us = hist_quantile(&session.lag_ns, 0.99) / 1e3;
    if lag_p99_us > MAX_LAG_P99_US {
        out.fail(
            session.offered,
            format!(
                "paced session invalid: reader p99 lateness {lag_p99_us:.0} us exceeds \
                 {MAX_LAG_P99_US} us, so the base rate was not offered"
            ),
        );
    }
    Some(session)
}

/// Phase (b): the whole stream offered unthrottled; its report must
/// equal the batch prefetch pass.
fn drain_phase(inputs: &Inputs, want: u64, out: &mut Outcome) -> Option<Session> {
    let session = out.guard("drain session", || {
        serve_open::run_session(&inputs.prefetch, &inputs.stream, None)
    })?;
    match session {
        Ok(s) => {
            out.verify_session("drain session", &s, want);
            Some(s)
        }
        Err(e) => {
            out.fail(1, format!("drain session: {e}"));
            None
        }
    }
}

fn serve_untraced(
    spec: &Spec,
    inputs: &Inputs,
    golden: Option<(u64, u64)>,
    seconds: Duration,
    out: &mut Outcome,
) -> Option<()> {
    let (rt, pf) = references(spec, inputs, golden, out)?;
    // Only the unthrottled phase is measured here: the paced phase's
    // decision latency repeats too poorly between runs to be an
    // end-to-end metric, so it runs (and is checked) in the traced run.
    let mut phase = Throughput::default();
    for_budget(seconds, || {
        let s = drain_phase(inputs, pf.stable_hash(), out)?;
        let wall = s.wall.as_secs_f64();
        phase.add(&[&s.out.report], wall);
        eprintln!("drain session {}: {wall:.3} s", phase.iterations);
        Some(())
    });
    if phase.iterations == 0 {
        return None;
    }
    phase.report(out, inputs);
    modelled(out, &rt, &pf);
    Some(())
}

/// Protocol cost over the workload's own stream: `write_events` and
/// `Parser::feed`, in nanoseconds per line.
fn protocol_costs(spec: &Spec, inputs: &Inputs) -> (f64, f64) {
    let refresh = inputs.prefetch.ad_refresh;
    let mut buf = Vec::new();
    let (mut write, mut parse, mut lines) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut one = |trace: &Trace| {
        buf.clear();
        let t = Instant::now();
        write_events(trace, refresh, &mut buf).expect("writing to memory cannot fail");
        write += t.elapsed();
        let text = std::str::from_utf8(&buf).expect("the writer emits ASCII");
        let mut parser = Parser::new();
        let t = Instant::now();
        for line in text.lines() {
            if let Parsed::Event(e) = parser.feed(line) {
                std::hint::black_box(e);
            }
        }
        parse += t.elapsed();
        lines += parser.line() as u64;
    };
    match &inputs.population {
        Population::Whole(trace) => one(trace),
        Population::Sharded(pop) => {
            let n = spec.shards();
            for i in 0..n {
                one(&pop.generate_shard(i, n));
            }
        }
    }
    let per_line = |d: Duration| d.as_nanos() as f64 / lines.max(1) as f64;
    (per_line(write), per_line(parse))
}

/// Both passes driven shard by shard, every engine call timed.
struct TracedPasses {
    /// `Trace::split_users` (materialized populations only).
    split_s: f64,
    realtime: Driven,
    prefetch: Driven,
}

impl TracedPasses {
    fn wall(&self) -> f64 {
        self.split_s + self.realtime.wall.as_secs_f64() + self.prefetch.wall.as_secs_f64()
    }
}

fn traced_passes(spec: &Spec, inputs: &Inputs, out: &mut Outcome) -> Option<TracedPasses> {
    let users = spec.size.users;
    let n = spec.shards();
    let t = Instant::now();
    let (split, split_s) = match &inputs.population {
        Population::Whole(trace) => (trace.split_users(n), t.elapsed().as_secs_f64()),
        Population::Sharded(_) => (Vec::new(), 0.0),
    };
    let make = |i: usize| match &inputs.population {
        Population::Sharded(pop) => pop.generate_shard(i, n),
        Population::Whole(_) => unreachable!("materialized shards are pre-split"),
    };
    let source = match &inputs.population {
        Population::Whole(_) => ShardSource::Split(&split),
        Population::Sharded(_) => ShardSource::Generate(&make),
    };
    let drive = |cfg: &SystemConfig| traced::drive(cfg, users, n, BATCH_THREADS, &source);
    let realtime = out.guard("traced realtime pass", || drive(&inputs.realtime))?;
    let prefetch = out.guard("traced prefetch pass", || drive(&inputs.prefetch))?;
    Some(TracedPasses {
        split_s,
        realtime,
        prefetch,
    })
}

/// The traced run. Each round runs both passes untraced (the baseline
/// wall and hashes) and traced (which must reproduce those hashes),
/// alternating which side goes first so that drift in host speed falls
/// on both alike; rounds repeat for `seconds`, at least one in each
/// order. Per-layer times are per-round means.
fn traced_run(
    spec: &Spec,
    inputs: &Inputs,
    golden: Option<(u64, u64)>,
    seconds: Duration,
    out: &mut Outcome,
) -> Option<()> {
    let start = Instant::now();
    let mut rounds: Vec<(f64, f64, TracedPasses)> = Vec::new();
    let mut want = golden;
    let (rt, pf) = loop {
        let t = Instant::now();
        let traced_first = rounds.len() % 2 == 1;
        let early = if traced_first {
            Some(traced_passes(spec, inputs, out)?)
        } else {
            None
        };
        let cpu0 = cpu_seconds();
        let tu = Instant::now();
        let (rt, pf) = references(spec, inputs, want, out)?;
        let untraced_wall = tu.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        let traced = match early {
            Some(tp) => tp,
            None => traced_passes(spec, inputs, out)?,
        };
        out.verify(
            "traced realtime pass",
            &traced.realtime.report,
            Some(rt.stable_hash()),
        );
        out.verify(
            "traced prefetch pass",
            &traced.prefetch.report,
            Some(pf.stable_hash()),
        );
        want = Some((rt.stable_hash(), pf.stable_hash()));
        rounds.push((untraced_wall, cpu_s, traced));
        if rounds.len() >= 2 && start.elapsed() + t.elapsed() > seconds {
            break (rt, pf);
        }
    };
    let k = rounds.len() as f64;
    let untraced_wall = rounds.iter().map(|r| r.0).sum::<f64>() / k;
    let cpu_s = rounds.iter().map(|r| r.1).sum::<f64>() / k;
    let traced_wall = rounds.iter().map(|r| r.2.wall()).sum::<f64>() / k;
    let gen_s = match &inputs.population {
        Population::Whole(_) => {
            let t = Instant::now();
            drop(spec.generate());
            t.elapsed().as_secs_f64()
        }
        Population::Sharded(_) => {
            let gen = |tp: &TracedPasses| tp.realtime.times.gen + tp.prefetch.times.gen;
            rounds.iter().map(|r| gen(&r.2).as_secs_f64()).sum::<f64>() / k
        }
    };

    let (write_ns, parse_ns) = protocol_costs(spec, inputs);
    let sessions = if spec.workload == Workload::ServeOpen {
        let paced = paced_phase(spec, inputs, seconds.mul_f64(PACED_SHARE), out)?;
        let drain = drain_phase(inputs, pf.stable_hash(), out)?;
        Some((paced, drain))
    } else {
        None
    };

    let traced: Vec<&TracedPasses> = rounds.iter().map(|r| &r.2).collect();
    layer_metrics(out, spec, &traced, (gen_s, traced_wall), &rt, &pf);
    out.metric("serve.write_ns", write_ns, "ns");
    out.metric("serve.parse_ns", parse_ns, "ns");
    serve_metrics(out, sessions.as_ref());
    out.metric("proc.cpu_s", cpu_s, "s");
    out.metric(
        "proc.cpu_util",
        cpu_s / (untraced_wall * BATCH_THREADS as f64),
        "ratio",
    );
    out.metric(
        "trace.overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
        "%",
    );
    Some(())
}

/// The per-layer metrics of the traced rounds: times are per-round means,
/// counts those of one round. `gen_s` is the generation time and
/// `traced_wall` the mean traced wall of a round, in seconds.
fn layer_metrics(
    out: &mut Outcome,
    spec: &Spec,
    rounds: &[&TracedPasses],
    (gen_s, traced_wall): (f64, f64),
    rt: &SimReport,
    pf: &SimReport,
) {
    let k = rounds.len().max(1) as u32;
    let mut times = LayerTimes::default();
    let (mut context, mut merge, mut split_s) = (Duration::ZERO, Duration::ZERO, 0.0);
    let mut threads = 1;
    for tp in rounds {
        split_s += tp.split_s / f64::from(k);
        for d in [&tp.realtime, &tp.prefetch] {
            times.add(&d.times);
            context += d.context;
            merge += d.merge;
            threads = threads.max(d.threads);
        }
    }
    let times = times.mean_over(k);
    let (context, merge) = ((context / k).as_secs_f64(), (merge / k).as_secs_f64());
    let last = rounds.last().expect("at least one traced round");
    let mut registry = MetricRegistry::new();
    registry.merge(&last.realtime.registry);
    registry.merge(&last.prefetch.registry);
    let slots = last.realtime.report.slots + last.prefetch.report.slots;
    let counter = |name: &str| registry.counter_value(name);
    let internal_events = counter("sim.event.sync")
        + counter("sim.event.retry")
        + counter("sim.event.expiry_sweep")
        + counter("sim.event.pacing");
    let secs = |d: Duration| d.as_secs_f64();
    let per = |d: Duration, n: u64| d.as_nanos() as f64 / n.max(1) as f64;
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let timed = secs(times.covered()) + context + merge + split_s;

    let n = |x: u64| x as f64;
    #[rustfmt::skip]
    let rows = [
        ("traces.gen_s", gen_s, "s"),
        ("traces.slots", n(pf.slots), "count"),
        ("traces.split_s", split_s, "s"),
        ("traces.slot_index_s", secs(times.slot_index), "s"),
        ("sim.context_s", context, "s"),
        ("sim.engine_build_s", secs(times.engine_build), "s"),
        ("sim.shards", spec.shards() as f64, "count"),
        ("sim.finalize_s", secs(times.finalize), "s"),
        ("sim.merge_s", merge, "s"),
        ("engine.slot_s", secs(times.slot), "s"),
        ("engine.slot_ns", per(times.slot, slots), "ns"),
        ("engine.slots", n(slots), "count"),
        ("engine.internal_s", secs(times.internal), "s"),
        ("engine.internal_ns", per(times.internal, internal_events), "ns"),
        ("engine.internal_events", n(internal_events), "count"),
        ("engine.unattributed_s", traced_wall * threads as f64 - timed, "s"),
        ("engine.syncs", n(rt.syncs + pf.syncs), "count"),
        ("engine.syncs_skipped", n(rt.syncs_skipped + pf.syncs_skipped), "count"),
        ("engine.retries", n(counter("sim.event.retry")), "count"),
        ("engine.sweeps", n(counter("sim.event.expiry_sweep")), "count"),
        ("engine.pacing_ticks", n(counter("sim.event.pacing")), "count"),
        ("client.cache_hit_rate", pf.cache_hit_rate(), "ratio"),
        ("client.fallback_fetches", n(pf.realtime_fetches), "count"),
        ("overbooking.pool_builds", n(counter("sim.pool.builds")), "count"),
        ("overbooking.candidates_scored", n(counter("sim.pool.candidates_scored")), "count"),
        ("overbooking.candidates_rescored", n(counter("sim.pool.candidates_rescored")), "count"),
        ("overbooking.replicas_assigned", n(pf.replicas_assigned), "count"),
        ("overbooking.duplicates", n(pf.ledger.duplicates), "count"),
        ("auction.billed_frac", frac(pf.ledger.billed, pf.ledger.sold), "ratio"),
        ("auction.expired", n(pf.ledger.expired), "count"),
        ("energy.j_per_impression.realtime", rt.energy_per_impression_j(), "J"),
        ("energy.j_per_impression.prefetch", pf.energy_per_impression_j(), "J"),
        ("netem.sync_failures", n(pf.netem.sync_failures), "count"),
        ("netem.retry_success_frac", frac(pf.netem.retries_succeeded, pf.netem.retries_scheduled), "ratio"),
        ("scenario.cap_blocked_syncs", n(pf.scenario.cap_blocked_syncs), "count"),
        ("scenario.wasted_prefetch_frac", frac(pf.scenario.prefetch_wasted_ads, pf.ledger.sold), "ratio"),
    ];
    for (name, value, unit) in rows {
        out.metric(name, value, unit);
    }
}

/// The serve-layer metrics of `serve-open`'s two sessions; zero on the
/// workloads that bypass the server.
fn serve_metrics(out: &mut Outcome, sessions: Option<&(Session, Session)>) {
    let zero = Histogram::new();
    let (decide, lag, saturated, setup, finalize) = match sessions {
        Some((paced, drain)) => (
            decision_hist(&paced.out.registry),
            paced.lag_ns.clone(),
            decision_hist(&drain.out.registry),
            paced.setup.as_secs_f64(),
            paced.finalize.as_secs_f64(),
        ),
        None => (zero.clone(), zero.clone(), zero, 0.0, 0.0),
    };
    let rows = [
        ("serve.setup_s", setup, "s"),
        ("serve.finalize_s", finalize, "s"),
        ("serve.decide_p50_us", hist_quantile(&decide, 0.5), "us"),
        ("serve.decide_p99_us", hist_quantile(&decide, 0.99), "us"),
        ("serve.decide_p999_us", hist_quantile(&decide, 0.999), "us"),
        ("serve.decide_mean_us", decide.mean(), "us"),
        ("serve.decide_samples", decide.count() as f64, "count"),
        ("serve.lag_p50_us", hist_quantile(&lag, 0.5) / 1e3, "us"),
        ("serve.lag_p99_us", hist_quantile(&lag, 0.99) / 1e3, "us"),
        ("serve.lag_max_us", lag.max() as f64 / 1e3, "us"),
        (
            "serve.saturated_p50_us",
            hist_quantile(&saturated, 0.5),
            "us",
        ),
    ];
    for (name, value, unit) in rows {
        out.metric(name, value, unit);
    }
}
