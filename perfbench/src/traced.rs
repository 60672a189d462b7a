//! The traced pass: the benchmark drives every shard itself through the
//! engine's public calls and times each call from outside.
//!
//! It reproduces `Simulator::run_parallel` / `run_streaming` exactly:
//! the same [`shard_ranges`] boundaries, [`shard_configs`], one shared
//! [`ShardContext`], per-worker scratch reuse, the same driving rule
//! (`drain_internal_before` then `on_slot` per slot, `drain_internal` at
//! the end) and a shard-order merge. Its report hash must therefore equal
//! the untraced pass's, which is what proves the timers observe without
//! perturbing. No timer lives inside the program.

use std::borrow::Cow;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use adpf_core::{
    shard_configs, ClientEngine, EngineScratch, ShardContext, SimReport, SystemConfig,
};
use adpf_desim::{SimTime, WorkQueue};
use adpf_obs::MetricRegistry;
use adpf_traces::{shard_ranges, AdSlot, Trace, UserSlots};

/// Where each shard's input comes from.
pub enum ShardSource<'a> {
    /// Pre-split shard traces of a materialized population.
    Split(&'a [Trace]),
    /// Per-shard generation on the worker, as the streaming pipeline does.
    Generate(&'a (dyn Fn(usize) -> Trace + Sync)),
    /// Per-shard local slot streams over a given horizon (a cut of a
    /// serve stream).
    Slots {
        slots: &'a [Vec<AdSlot>],
        horizon: SimTime,
        days: u32,
    },
}

/// Summed time per layer, in thread-seconds across workers.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    /// `generate_shard` (streaming sources only).
    pub gen: Duration,
    /// `Trace::ad_slots` + `UserSlots::from_slots`.
    pub slot_index: Duration,
    /// `ClientEngine::with_scratch`.
    pub engine_build: Duration,
    /// `ClientEngine::on_slot`.
    pub slot: Duration,
    /// `drain_internal_before` + `drain_internal`.
    pub internal: Duration,
    /// `finalize_reclaim`.
    pub finalize: Duration,
}

impl LayerTimes {
    pub fn add(&mut self, o: &LayerTimes) {
        self.gen += o.gen;
        self.slot_index += o.slot_index;
        self.engine_build += o.engine_build;
        self.slot += o.slot;
        self.internal += o.internal;
        self.finalize += o.finalize;
    }

    /// The mean of `k` summed runs.
    pub fn mean_over(self, k: u32) -> LayerTimes {
        LayerTimes {
            gen: self.gen / k,
            slot_index: self.slot_index / k,
            engine_build: self.engine_build / k,
            slot: self.slot / k,
            internal: self.internal / k,
            finalize: self.finalize / k,
        }
    }

    /// Every timed call, summed.
    pub fn covered(&self) -> Duration {
        self.gen + self.slot_index + self.engine_build + self.slot + self.internal + self.finalize
    }
}

/// One traced pass.
pub struct Driven {
    pub report: SimReport,
    pub registry: MetricRegistry,
    pub times: LayerTimes,
    /// `ShardContext::new`.
    pub context: Duration,
    /// Shard-order `SimReport::merge` + registry merge.
    pub merge: Duration,
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
}

/// Runs `config` over a `users`-user population cut into `n_shards`
/// shards on `threads` workers, timing every call into the engine.
pub fn drive(
    config: &SystemConfig,
    users: u32,
    n_shards: usize,
    threads: usize,
    source: &ShardSource<'_>,
) -> Driven {
    let start = Instant::now();
    let ranges = shard_ranges(users, n_shards);
    let n = ranges.len();
    let configs = shard_configs(config, users, &ranges);
    let t = Instant::now();
    let ctx = ShardContext::new(config);
    let context = t.elapsed();
    let threads = threads.clamp(1, n);

    let queue = WorkQueue::new(n);
    let results: Vec<Mutex<Option<(SimReport, MetricRegistry)>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let total = Mutex::new(LayerTimes::default());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut times = LayerTimes::default();
                let mut scratch = EngineScratch::default();
                while let Some(i) = queue.claim() {
                    let users = ranges[i].end - ranges[i].start;
                    let (report, reg, reclaimed) = run_shard(
                        configs[i].clone(),
                        users,
                        i,
                        source,
                        &ctx,
                        std::mem::take(&mut scratch),
                        &mut times,
                    );
                    scratch = reclaimed;
                    *results[i].lock().expect("shard slot poisoned") = Some((report, reg));
                }
                total.lock().expect("layer totals poisoned").add(&times);
            });
        }
    });

    let t = Instant::now();
    let mut report = SimReport::empty();
    report.reserve_users(users as usize);
    let mut registry = MetricRegistry::new();
    for slot in results {
        let (r, reg) = slot
            .into_inner()
            .expect("shard slot poisoned")
            .expect("every shard reports");
        report.merge(&r);
        registry.merge(&reg);
    }
    let merge = t.elapsed();
    Driven {
        report,
        registry,
        times: total.into_inner().expect("layer totals poisoned"),
        context,
        merge,
        wall: start.elapsed(),
        threads,
    }
}

fn run_shard(
    config: SystemConfig,
    users: u32,
    i: usize,
    source: &ShardSource<'_>,
    ctx: &ShardContext,
    scratch: EngineScratch,
    times: &mut LayerTimes,
) -> (SimReport, MetricRegistry, EngineScratch) {
    let generated = match source {
        ShardSource::Generate(make) => {
            let t = Instant::now();
            let trace = make(i);
            times.gen += t.elapsed();
            Some(trace)
        }
        _ => None,
    };
    let trace = match source {
        ShardSource::Split(traces) => Some(&traces[i]),
        _ => generated.as_ref(),
    };
    let t = Instant::now();
    let (slots, horizon, days): (Cow<[AdSlot]>, SimTime, u32) = match (trace, source) {
        (Some(tr), _) => (
            Cow::Owned(tr.ad_slots(config.ad_refresh)),
            tr.horizon(),
            tr.days(),
        ),
        (
            None,
            ShardSource::Slots {
                slots,
                horizon,
                days,
            },
        ) => (Cow::Borrowed(&slots[i][..]), *horizon, *days),
        (None, _) => unreachable!("trace sources always yield a trace"),
    };
    let by_user = UserSlots::from_slots(&slots, users);
    times.slot_index += t.elapsed();

    let t = Instant::now();
    let mut engine = ClientEngine::with_scratch(config, &by_user, horizon, days, ctx, scratch);
    times.engine_build += t.elapsed();

    let mut internal = Duration::ZERO;
    let mut on_slot = Duration::ZERO;
    let mut t = Instant::now();
    for s in slots.iter() {
        engine.drain_internal_before(s.time);
        let a = Instant::now();
        engine.on_slot(s.time, s.user, s.app);
        let b = Instant::now();
        internal += a - t;
        on_slot += b - a;
        t = b;
    }
    let t = Instant::now();
    engine.drain_internal();
    internal += t.elapsed();
    times.internal += internal;
    times.slot += on_slot;

    let t = Instant::now();
    let out = engine.finalize_reclaim();
    times.finalize += t.elapsed();
    out
}

/// Cuts a global, time-ordered slot stream into the per-shard local
/// streams the server's router would produce: each slot goes to the
/// shard whose user range holds it, renumbered to a shard-local id.
pub fn route(slots: &[AdSlot], users: u32, n_shards: usize) -> Vec<Vec<AdSlot>> {
    let ranges = shard_ranges(users, n_shards);
    let mut out: Vec<Vec<AdSlot>> = ranges.iter().map(|_| Vec::new()).collect();
    for s in slots {
        let shard = ranges.partition_point(|r| r.end <= s.user.0);
        out[shard].push(AdSlot {
            user: adpf_traces::UserId(s.user.0 - ranges[shard].start),
            ..*s
        });
    }
    out
}
