//! The per-client decision engine, extracted from the batch simulator.
//!
//! [`ClientEngine`] owns everything the ad server decides *per client*:
//! the columnar client state ([`ClientTable`]/`AdCache`), prediction,
//! overbooked replication, marketplace hooks, netem gating, and the
//! energy accounting — everything the old monolithic simulator owned
//! except the ad-slot stream itself. Slots are the engine's only
//! *external* events; syncs, retries, expiry sweeps, and pacing ticks
//! are *internal* events the engine schedules for itself on its own
//! [`EventQueue`].
//!
//! That split is what lets two very different drivers share one engine
//! bit for bit:
//!
//! - the batch [`Simulator`](crate::Simulator) iterates a precomputed,
//!   time-sorted slot vector ([`SlotFeed`]), and
//! - the online `adpf-serve` server feeds slots as they arrive over a
//!   socket or stdin, with no end-of-stream known in advance.
//!
//! Both follow the same driving rule, and it reproduces the historical
//! single-queue event order **exactly**:
//!
//! 1. before an external slot at time `t`, drain internal events
//!    scheduled strictly *before* `t` ([`drain_internal_before`]);
//! 2. handle the slot ([`on_slot`]);
//! 3. at end of stream, drain all remaining internal events
//!    ([`drain_internal`]) and [`finalize`].
//!
//! Why this is exact: the old simulator seeded *all* slots into the
//! queue first (sequence numbers `0..S`), so at equal timestamps a slot
//! always popped before any internal event — seeded or rescheduled —
//! and equal-time slots popped in slot-stream index order. Slot
//! handlers never schedule internal events, and internal handlers only
//! schedule strictly-future internal events, so "internal strictly
//! before `t`, then the slot at `t`" is precisely the old pop order.
//! The committed smoke golden and `tests/serving.rs` pin this.
//!
//! [`drain_internal_before`]: ClientEngine::drain_internal_before
//! [`on_slot`]: ClientEngine::on_slot
//! [`drain_internal`]: ClientEngine::drain_internal
//! [`finalize`]: ClientEngine::finalize

use adpf_auction::{AdId, CampaignCatalog, Exchange, ImpressionOutcome, Ledger, SlotOffer};
use adpf_desim::feed::EventFeed;
use adpf_desim::{EventQueue, InlineVec, SimDuration, SimTime, BUCKET_SPAN_MS};
use adpf_energy::{EnergyBreakdown, Radio};
use adpf_netem::NetworkModel;
use adpf_obs::{MetricId, MetricRegistry, ObsSink};
use adpf_overbooking::availability::{display_probability_bursty, BurstyTail, ClientAvailability};
use adpf_overbooking::planner::{ReplicationPlanner, PLAN_INLINE};
use adpf_traces::{AdSlot, AppId, UserId, UserSlots};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{CachedAd, ClientTable};
use crate::config::{DeliveryMode, SystemConfig};
use crate::report::{metric_names, NetemCounters, ScenarioCounters, SimReport};
use crate::scenario::{CellPolicy, DeviceClass, CAP_PERIOD_MS};
use crate::sim::ShardContext;

/// Upper bound on ads sold at one sync, guarding against a pathological
/// predictor output flooding the exchange.
const MAX_SELL_PER_SYNC: u32 = 256;

/// Finalizes `z` through the 64-bit mix used by splitmix64/murmur3.
///
/// Used to spread the shard's `rng_stream` index across the seed space.
/// Every operation maps zero to zero, so stream 0 leaves the master seed
/// untouched — the unsharded derivation stays bit-identical.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^= z >> 33;
    z
}

/// Pre-resolved ids for the counters the engine maintains on its hot
/// path. Resolving once at construction keeps every increment an array
/// index plus an integer add. All of these count simulated events, so
/// they are deterministic and safe to keep always on — which is what
/// lets `SimReport::netem` be *derived* from the registry while
/// `--metrics` toggles only export and wall-clock spans.
struct SimIds {
    ev_slot: MetricId,
    ev_sync: MetricId,
    ev_retry: MetricId,
    ev_sweep: MetricId,
    ev_pacing: MetricId,
    pool_builds: MetricId,
    pool_scored: MetricId,
    pool_rescored: MetricId,
    netem_sync_failures: MetricId,
    netem_retries_scheduled: MetricId,
    netem_retries_succeeded: MetricId,
    netem_syncs_abandoned: MetricId,
    netem_realtime_failures: MetricId,
    netem_ads_rescued: MetricId,
    netem_rescues_unplaced: MetricId,
    /// Scenario-layer metric ids; resolved (and therefore registered)
    /// only when the scenario layer is enabled, so scenario-off runs
    /// export exactly the legacy metric set.
    scen: Option<ScenIds>,
}

/// Pre-resolved ids for the scenario layer's user-cost metrics.
struct ScenIds {
    metered_down: MetricId,
    metered_up: MetricId,
    wasted_bytes: MetricId,
    wasted_ads: MetricId,
    cap_blocked: MetricId,
    cell_dropped: MetricId,
    cell_deferred: MetricId,
    display_latency: MetricId,
}

impl SimIds {
    fn resolve(reg: &MetricRegistry, scenario_enabled: bool) -> Self {
        SimIds {
            scen: scenario_enabled.then(|| ScenIds {
                metered_down: reg.counter(metric_names::SCEN_METERED_BYTES_DOWN),
                metered_up: reg.counter(metric_names::SCEN_METERED_BYTES_UP),
                wasted_bytes: reg.counter(metric_names::SCEN_WASTED_BYTES),
                wasted_ads: reg.counter(metric_names::SCEN_WASTED_ADS),
                cap_blocked: reg.counter(metric_names::SCEN_CAP_BLOCKED_SYNCS),
                cell_dropped: reg.counter(metric_names::SCEN_CELL_DROPPED),
                cell_deferred: reg.counter(metric_names::SCEN_CELL_DEFERRED),
                display_latency: reg.histogram(metric_names::SCEN_DISPLAY_LATENCY_MS),
            }),
            ev_slot: reg.counter("sim.event.slot"),
            ev_sync: reg.counter("sim.event.sync"),
            ev_retry: reg.counter("sim.event.retry"),
            ev_sweep: reg.counter("sim.event.expiry_sweep"),
            ev_pacing: reg.counter("sim.event.pacing"),
            pool_builds: reg.counter("sim.pool.builds"),
            pool_scored: reg.counter("sim.pool.candidates_scored"),
            pool_rescored: reg.counter("sim.pool.candidates_rescored"),
            netem_sync_failures: reg.counter(metric_names::NETEM_SYNC_FAILURES),
            netem_retries_scheduled: reg.counter(metric_names::NETEM_RETRIES_SCHEDULED),
            netem_retries_succeeded: reg.counter(metric_names::NETEM_RETRIES_SUCCEEDED),
            netem_syncs_abandoned: reg.counter(metric_names::NETEM_SYNCS_ABANDONED),
            netem_realtime_failures: reg.counter(metric_names::NETEM_REALTIME_FAILURES),
            netem_ads_rescued: reg.counter(metric_names::NETEM_ADS_RESCUED),
            netem_rescues_unplaced: reg.counter(metric_names::NETEM_RESCUES_UNPLACED),
        }
    }
}

/// Engine-side scenario state: per-client class/region assignments,
/// data-cap accounting, and the per-region cell-capacity windows.
/// Built only when `config.scenario.enabled`; its absence IS the
/// scenario-off gate (no extra branches cost anything on the legacy
/// path beyond one `Option` check).
struct ScenarioState {
    /// Resolved device classes. Never empty: a scenario with no classes
    /// gets one uniform class wrapping the config's base radio.
    classes: Vec<DeviceClass>,
    /// Per-client class index.
    class_of: Vec<u16>,
    /// Per-client cell region.
    region: Vec<u32>,
    /// Per-client metered flag (classes[class_of[i]].metered, flattened
    /// for the hot path).
    metered: Vec<bool>,
    /// Per-client period cap in bytes (0 = uncapped), flattened.
    cap_bytes: Vec<u64>,
    /// Metered bytes used in the client's current billing period.
    metered_used: Vec<u64>,
    /// Billing-period index the usage above belongs to (lazy reset).
    cap_period: Vec<u64>,
    cell_on: bool,
    /// This shard's share of the population-wide per-region ceiling.
    cell_limit: u32,
    cell_window_ms: u64,
    cell_policy: CellPolicy,
    cell_queue_delay: SimDuration,
    /// Current window index per region (u64::MAX = untouched).
    cell_window: Vec<u64>,
    /// Fetches admitted per region in the current window.
    cell_used: Vec<u32>,
}

impl ScenarioState {
    fn new(config: &SystemConfig, num_users: usize) -> Self {
        let sc = &config.scenario;
        let classes: Vec<DeviceClass> = if sc.classes.is_empty() {
            vec![DeviceClass {
                name: "uniform".into(),
                radio: config.radio.clone(),
                metered: true,
                monthly_cap_bytes: 0,
                weight: 1.0,
            }]
        } else {
            sc.classes.clone()
        };
        let mut class_of = Vec::with_capacity(num_users);
        let mut region = Vec::with_capacity(num_users);
        let mut metered = Vec::with_capacity(num_users);
        let mut cap_bytes = Vec::with_capacity(num_users);
        for u in 0..num_users {
            // Assignments key on the *global* user id, so every shard
            // (and the trace generator) agrees on who is who.
            let g = sc.user_offset as u64 + u as u64;
            let k = crate::scenario::class_index(sc.assign_seed, g, &classes);
            class_of.push(k as u16);
            region.push(crate::scenario::region_index(
                sc.assign_seed,
                g,
                sc.cell.regions,
            ));
            metered.push(classes[k].metered);
            cap_bytes.push(classes[k].monthly_cap_bytes);
        }
        let regions = sc.cell.regions.max(1) as usize;
        // Scale the population-wide ceiling down to this shard's user
        // share (budget_fraction already carries exactly that ratio), so
        // sharded runs enforce the same aggregate ceiling regardless of
        // shard count.
        let cell_limit =
            (((sc.cell.fetches_per_window as f64) * config.budget_fraction).round() as u32).max(1);
        ScenarioState {
            classes,
            class_of,
            region,
            metered,
            cap_bytes,
            metered_used: vec![0; num_users],
            cap_period: vec![0; num_users],
            cell_on: sc.cell.enabled,
            cell_limit,
            cell_window_ms: sc.cell.window.as_millis().max(1),
            cell_policy: sc.cell.policy,
            cell_queue_delay: sc.cell.queue_delay,
            cell_window: vec![u64::MAX; regions],
            cell_used: vec![0; regions],
        }
    }

    /// Whether client `ci`'s data budget for the period containing `now`
    /// is exhausted. Lazily resets usage at period boundaries.
    fn cap_blocks(&mut self, ci: usize, now: SimTime) -> bool {
        let cap = self.cap_bytes[ci];
        if cap == 0 {
            return false;
        }
        let period = now.as_millis() / CAP_PERIOD_MS;
        if self.cap_period[ci] != period {
            self.cap_period[ci] = period;
            self.metered_used[ci] = 0;
        }
        self.metered_used[ci] >= cap
    }
}

/// The engine's internal event alphabet.
///
/// Ad slots are deliberately absent: they are *external* inputs, pushed
/// by whatever drives the engine ([`ClientEngine::on_slot`]). Every
/// variant here is scheduled by the engine itself, strictly into the
/// future — the invariant the driving rule relies on.
#[derive(Debug, Clone, Copy)]
pub enum EngineEvent {
    /// Client `c` performs its periodic sync.
    Sync(u32),
    /// Client `c` retries a failed sync; `attempt` counts round trips
    /// already burnt (netem only).
    Retry {
        /// Client index.
        c: u32,
        /// Round trips already burnt on this sync.
        attempt: u32,
    },
    /// Periodic server-side expiry sweep.
    ExpirySweep,
    /// Periodic pacing-controller update across all paced campaigns
    /// (reactive marketplace only).
    Pacing,
}

/// The reusable allocation set of a [`ClientEngine`]: its internal event
/// queue plus every scratch and memo buffer.
///
/// A worker thread that simulates many shards hands the buffers from one
/// finished engine ([`ClientEngine::finalize_reclaim`]) to the next
/// ([`ClientEngine::with_scratch`]) so per-shard construction stops paying
/// the allocation (and warm-up) cost of the queue ring and scratch
/// vectors. Reuse is exact: construction clears every buffer, resets the
/// queue's sequence counter and window, and zero-fills the epoch vectors —
/// and every epoch/build-id scheme in the engine starts counting at 1, so
/// a zero-filled memo can never produce a false hit.
#[derive(Default)]
pub struct EngineScratch {
    queue: EventQueue<EngineEvent>,
    lambda_epoch: Vec<u64>,
    lambda_cache: Vec<f64>,
    pool_pos: Vec<u32>,
    pool_epoch: Vec<u64>,
    scratch_slot_times: Vec<SimTime>,
    scratch_outbox: Vec<CachedAd>,
    scratch_reports: Vec<(AdId, SimTime)>,
    scratch_cands: Vec<ClientAvailability>,
    scratch_meta: Vec<BurstyTail>,
    scratch_due: Vec<(u64, SimTime)>,
    scratch_gather: Vec<(u32, SimTime)>,
    scratch_cancel: Vec<u64>,
    scratch_batch: Vec<(SimTime, EngineEvent)>,
}

/// A feed over a precomputed, time-sorted ad-slot stream: the batch
/// simulator's view of its trace, expressed as the same [`EventFeed`]
/// the online server implements over its ingest channel.
pub struct SlotFeed<'a> {
    slots: &'a [AdSlot],
    next: usize,
}

impl<'a> SlotFeed<'a> {
    /// Wraps a slot slice; the slice must be sorted by `(time, user)`
    /// (what [`Trace::ad_slots`](adpf_traces::Trace::ad_slots) returns).
    pub fn new(slots: &'a [AdSlot]) -> Self {
        Self { slots, next: 0 }
    }
}

impl EventFeed for SlotFeed<'_> {
    type Event = (UserId, AppId);

    fn next(&mut self) -> Option<(SimTime, Self::Event)> {
        let s = self.slots.get(self.next)?;
        self.next += 1;
        Some((s.time, (s.user, s.app)))
    }
}

/// One client shard's decision core: per-client state machines,
/// prediction, overbooked replication, and marketplace hooks, driven by
/// external ad-slot events plus a self-scheduled internal event queue.
///
/// Construction precomputes per-client state; driving it (via
/// [`ClientEngine::drive`] or the `on_slot`/`drain_*` primitives) and
/// then [`ClientEngine::finalize`] produces a [`SimReport`]. Runs are
/// deterministic: the same `(config, slot stream)` pair always yields
/// the same report.
pub struct ClientEngine {
    config: SystemConfig,
    clients: ClientTable,
    horizon: SimTime,
    days: u32,
    exchange: Exchange,
    ledger: Ledger,
    tracker: adpf_overbooking::reconcile::ReplicaTracker,
    planner: Box<dyn ReplicationPlanner>,
    /// Internal (self-scheduled) events only; external slots never enter.
    queue: EventQueue<EngineEvent>,
    /// Cached time of the earliest internal event, so the per-slot
    /// "anything due before `t`?" check is a compare, not a queue scan.
    next_internal: Option<SimTime>,
    /// Drain internal events one near-lane bucket at a time instead of
    /// one event at a time. True only when `config.batched` is set AND
    /// every self-scheduling delta of this configuration is at least one
    /// bucket span, which is what makes batching *exact* (see
    /// [`ClientEngine::drain_internal_before`]).
    batched: bool,
    cand_cursor: usize,
    /// Randomness for failure injection (sync dropout).
    fault_rng: StdRng,
    syncs_dropped: u64,
    /// Per-client network channels; `None` when netem is disabled, in
    /// which case every link query short-circuits to "ideal" without
    /// consuming randomness — the legacy code path, bit for bit.
    net: Option<NetworkModel>,
    /// Scenario-layer state; `None` when the scenario is disabled, in
    /// which case every scenario query short-circuits to the legacy
    /// behavior without touching any counter — bit for bit.
    scen: Option<ScenarioState>,
    /// The run's metric registry. Always on: every value written during
    /// the run is a count of simulated events, merged shard-order like
    /// the report itself, so observability can never perturb outcomes.
    /// `SimReport::netem` is derived from it at finalize.
    pub(crate) obs: MetricRegistry,
    /// Pre-resolved ids into `obs` for the hot-path counters.
    mid: SimIds,
    /// Scratch for the rescue scan's due-ad list.
    scratch_due: Vec<(u64, SimTime)>,
    /// Monotone counter bumped at each `sync_body`; versions the
    /// per-client `expected_rate` memo below.
    sync_epoch: u64,
    /// `lambda_cache[j]` is valid iff `lambda_epoch[j] == sync_epoch`.
    /// Within one sync every candidate's predictor state, `next_sync`,
    /// and the sale deadline are frozen, so a client's expected rate is
    /// identical across the ads sold at that sync — computing it once
    /// per client per sync is exact, not approximate.
    lambda_epoch: Vec<u64>,
    lambda_cache: Vec<f64>,
    /// Monotone id of the last candidate-pool build; versions the
    /// `pool_pos` memo below.
    pool_build_id: u64,
    /// `pool_pos[j]` is client `j`'s index into `scratch_cands`, valid
    /// iff `pool_epoch[j] == pool_build_id` — an O(1) handle that
    /// replaces the linear pool scan when a holder must be re-scored.
    pool_pos: Vec<u32>,
    pool_epoch: Vec<u64>,
    // Scratch buffers reused across syncs so the hot path never
    // allocates: each holds the retained capacity of whatever client
    // vector it was last swapped with.
    scratch_slot_times: Vec<SimTime>,
    scratch_outbox: Vec<CachedAd>,
    scratch_reports: Vec<(AdId, SimTime)>,
    scratch_cands: Vec<ClientAvailability>,
    /// Each pool entry's resumable Poisson-tail state, aligned with
    /// `scratch_cands` — what re-scoring an entry extends.
    scratch_meta: Vec<BurstyTail>,
    /// Per-build `(client, score-window start)` pairs from the gather
    /// phase of the pool build, aligned with `scratch_cands`.
    scratch_gather: Vec<(u32, SimTime)>,
    /// Cancellation ids drained from the tracker at a sync, without
    /// surrendering the tracker queue's allocation.
    scratch_cancel: Vec<u64>,
    /// One near-lane bucket's events, drained at a time by the batched
    /// internal-event loop.
    scratch_batch: Vec<(SimTime, EngineEvent)>,
    // Counters.
    /// External slot events seen; the engine has no slot vector of its
    /// own, so this is what `SimReport::slots` reports.
    slots_seen: u64,
    impressions: u64,
    cache_hits: u64,
    realtime_fetches: u64,
    unfilled: u64,
    syncs: u64,
    syncs_skipped: u64,
    replicas_assigned: u64,
}

impl ClientEngine {
    /// Builds an engine for `config` over a population of
    /// `slots_by_user.num_users()` clients.
    ///
    /// `slots_by_user` is consulted only by predictors that need the
    /// future slot stream at construction (the oracle); every other
    /// predictor starts cold, so online drivers — which cannot know the
    /// future — pass an empty view and must reject the oracle.
    /// `horizon` and `days` are the trace bounds the batch pipeline
    /// reads off its `Trace` and an online server reads off its stream
    /// header.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails — configurations are built in
    /// code, so an invalid one is a programming error.
    pub fn new(
        config: SystemConfig,
        slots_by_user: &UserSlots,
        horizon: SimTime,
        days: u32,
        ctx: &ShardContext,
    ) -> Self {
        Self::with_scratch(
            config,
            slots_by_user,
            horizon,
            days,
            ctx,
            EngineScratch::default(),
        )
    }

    /// [`ClientEngine::new`], recycling the allocations of a previous
    /// engine's [`EngineScratch`]. Behaviorally identical to building
    /// from a fresh scratch set.
    pub fn with_scratch(
        config: SystemConfig,
        slots_by_user: &UserSlots,
        horizon: SimTime,
        days: u32,
        ctx: &ShardContext,
        scratch: EngineScratch,
    ) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid SystemConfig: {reason}");
        }
        let EngineScratch {
            mut queue,
            mut lambda_epoch,
            mut lambda_cache,
            mut pool_pos,
            mut pool_epoch,
            mut scratch_slot_times,
            mut scratch_outbox,
            mut scratch_reports,
            mut scratch_cands,
            mut scratch_meta,
            mut scratch_due,
            mut scratch_gather,
            mut scratch_cancel,
            mut scratch_batch,
        } = scratch;
        queue.reset();
        scratch_slot_times.clear();
        scratch_outbox.clear();
        scratch_reports.clear();
        scratch_cands.clear();
        scratch_meta.clear();
        scratch_due.clear();
        scratch_gather.clear();
        scratch_cancel.clear();
        scratch_batch.clear();
        let num_users = slots_by_user.num_users();
        let scen = config
            .scenario
            .enabled
            .then(|| ScenarioState::new(&config, num_users));
        let mut clients = ClientTable::with_capacity(num_users);
        for u in 0..num_users {
            // Mixed populations bind each client the radio of its device
            // class; scenario-off keeps the config's single radio.
            let radio = match &scen {
                Some(s) => Radio::new(s.classes[s.class_of[u] as usize].radio.clone()),
                None => Radio::new(config.radio.clone()),
            };
            clients.push(radio, config.predictor.build(slots_by_user.user(u)));
        }

        // The campaign catalog is built from the master seed alone (it
        // lives in the shared context), so every shard of a sharded run
        // sees the same advertisers; only the per-run randomness (bid
        // sampling, fault injection) switches to the shard's stream, and
        // budgets shrink to the shard's population share so combined
        // spending can never exceed the global budgets.
        let stream_seed = config.seed ^ mix64(config.rng_stream);
        let mut exchange = Exchange::new(ctx.campaigns.clone(), config.seed);
        exchange.advance_discount = config.advance_discount;
        exchange.reseed_bids(stream_seed);
        exchange.scale_budgets(config.budget_fraction);
        if config.marketplace.enabled {
            // After scale_budgets: pacing schedules must cover the
            // shard's budget share, not the global budget, so the
            // shards' combined paced spend targets the global schedule.
            exchange.configure_marketplace(&config.marketplace, &ctx.campaign_types);
        }

        // Seeding order mirrors the historical single queue (slots came
        // first there; here they are external): staggered first syncs in
        // client order, then the first expiry sweep, then the first
        // pacing tick. FIFO tie-breaking preserves this relative order
        // at equal timestamps.
        if config.mode == DeliveryMode::Prefetch {
            // Stagger first syncs evenly across the interval so the server
            // load (and replica delivery opportunities) spread out.
            let interval_ms = config.prefetch_interval.as_millis();
            let n = clients.len().max(1) as u64;
            for i in 0..clients.len() {
                let offset = SimDuration::from_millis(interval_ms * (i as u64 % n) / n);
                clients.next_sync[i] = SimTime::ZERO + offset;
                queue.push(clients.next_sync[i], EngineEvent::Sync(i as u32));
            }
            queue.push(SimTime::from_hours(1), EngineEvent::ExpirySweep);
        }
        if exchange.has_pacers() {
            // Pacing applies in both delivery modes: the exchange paces
            // real-time and advance sales alike. Marketplace-off (and
            // static-marketplace) runs schedule no pacing events, so the
            // legacy event stream is untouched.
            queue.push(
                SimTime::ZERO + config.marketplace.pacing_interval,
                EngineEvent::Pacing,
            );
        }
        let next_internal = queue.peek_time();
        let batched = config.batched && Self::batching_is_exact(&config, exchange.has_pacers());

        let planner = config.planner.build();
        let fault_rng = StdRng::seed_from_u64(stream_seed ^ 0xd20_0ff);
        let n_clients = clients.len();
        let candidate_pool = config.candidate_pool;
        let net = config
            .netem
            .enabled
            .then(|| NetworkModel::new(config.netem.clone(), n_clients, stream_seed));
        let obs = MetricRegistry::new();
        let mid = SimIds::resolve(&obs, config.scenario.enabled);
        lambda_epoch.clear();
        lambda_epoch.resize(n_clients, 0);
        lambda_cache.clear();
        lambda_cache.resize(n_clients, 0.0);
        pool_pos.clear();
        pool_pos.resize(n_clients, 0);
        pool_epoch.clear();
        pool_epoch.resize(n_clients, 0);
        scratch_cands.reserve(candidate_pool);
        scratch_meta.reserve(candidate_pool);
        Self {
            config,
            sync_epoch: 0,
            lambda_epoch,
            lambda_cache,
            pool_build_id: 0,
            pool_pos,
            pool_epoch,
            scratch_slot_times,
            scratch_outbox,
            scratch_reports,
            scratch_cands,
            scratch_meta,
            scratch_gather,
            scratch_cancel,
            scratch_batch,
            clients,
            horizon,
            days,
            exchange,
            ledger: Ledger::new(),
            tracker: adpf_overbooking::reconcile::ReplicaTracker::new(),
            planner,
            queue,
            next_internal,
            batched,
            cand_cursor: 0,
            fault_rng,
            syncs_dropped: 0,
            net,
            scen,
            obs,
            mid,
            scratch_due,
            slots_seen: 0,
            impressions: 0,
            cache_hits: 0,
            realtime_fetches: 0,
            unfilled: 0,
            syncs: 0,
            syncs_skipped: 0,
            replicas_assigned: 0,
        }
    }

    /// Whether draining internal events one near-lane bucket at a time
    /// is *exactly* equivalent to popping them one at a time for this
    /// configuration.
    ///
    /// A drained bucket's events all have times inside one
    /// [`BUCKET_SPAN_MS`]-wide window, and internal handlers schedule
    /// only strictly-future events at `now + delta`. If every `delta`
    /// the configuration can produce is at least one bucket span, any
    /// newly scheduled event lands at or past the bucket's end — i.e.
    /// after every event of the batch being dispatched — and with a
    /// larger sequence number than anything already queued, so the
    /// batched dispatch order is bit-identical to the legacy pop order.
    /// The deltas to check: the sync period (sync reschedule), the
    /// pacing period (pacing reschedule), and the minimum jittered retry
    /// backoff (netem; `base × (1 − jitter/2)`, truncated to ms exactly
    /// like `NetworkModel::backoff`). The expiry sweep reschedules at a
    /// fixed one hour, always safe. Default configurations sit far above
    /// the 1.024 s span (2 h syncs, minutes-scale backoff bases);
    /// anything faster silently falls back to the one-at-a-time drain.
    fn batching_is_exact(config: &SystemConfig, has_pacers: bool) -> bool {
        if config.mode == DeliveryMode::Prefetch {
            if config.prefetch_interval.as_millis() < BUCKET_SPAN_MS {
                return false;
            }
            let retry = &config.netem.retry;
            if config.netem.enabled && retry.max_retries > 0 {
                let min_backoff_ms =
                    (retry.base.as_millis() as f64 * (1.0 - retry.jitter / 2.0)) as u64;
                if min_backoff_ms < BUCKET_SPAN_MS {
                    return false;
                }
            }
        }
        if has_pacers && config.marketplace.pacing_interval.as_millis() < BUCKET_SPAN_MS {
            return false;
        }
        true
    }

    /// Number of clients this engine owns.
    pub fn num_users(&self) -> usize {
        self.clients.len()
    }

    /// The trace horizon the engine was built against.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Drives the engine from an external slot feed to exhaustion and
    /// leaves it ready to [`ClientEngine::finalize`]: the driving rule
    /// (drain-before, slot, drain-at-end) in one place.
    pub fn drive<F: EventFeed<Event = (UserId, AppId)>>(&mut self, feed: &mut F) {
        while let Some((t, (user, app))) = feed.next() {
            self.drain_internal_before(t);
            self.on_slot(t, user, app);
        }
        self.drain_internal();
    }

    /// Runs every internal event scheduled strictly before `t`. Call
    /// immediately before handing the engine an external slot at `t`.
    ///
    /// On the batched path this pulls a whole near-lane bucket of due
    /// events out of the queue at once and dispatches them from a flat
    /// buffer — one queue traversal and re-anchor per ~thousand events
    /// instead of per event. [`ClientEngine::batching_is_exact`] is what
    /// guarantees the dispatch order (and therefore every report bit)
    /// matches the one-at-a-time pop loop.
    pub fn drain_internal_before(&mut self, t: SimTime) {
        if self.batched {
            self.drain_batched_before(t);
            return;
        }
        while self.next_internal.is_some_and(|nt| nt < t) {
            let (now, ev) = self.queue.pop().expect("next_internal was Some");
            self.dispatch(now, ev);
            self.next_internal = self.queue.peek_time();
        }
    }

    /// Batched drain loop: one head bucket per iteration. Handlers may
    /// schedule new events mid-batch, but `batching_is_exact` guarantees
    /// those land strictly past the bucket being dispatched, so the
    /// drained buffer is never stale.
    fn drain_batched_before(&mut self, t: SimTime) {
        while self.next_internal.is_some_and(|nt| nt < t) {
            let mut batch = std::mem::take(&mut self.scratch_batch);
            let n = self.queue.drain_near_bucket(t, &mut batch);
            debug_assert!(n > 0, "peek promised an event before {t:?}");
            for &(now, ev) in &batch {
                self.dispatch(now, ev);
            }
            batch.clear();
            self.scratch_batch = batch;
            self.next_internal = self.queue.peek_time();
            if n == 0 {
                break; // Defensive: never spin if the queue disagrees.
            }
        }
    }

    /// Runs all remaining internal events (end of the external stream).
    pub fn drain_internal(&mut self) {
        if self.batched {
            self.drain_batched_before(SimTime::MAX);
        }
        // Unbatched path — and, under batching, any leftover events at
        // exactly `SimTime::MAX` (excluded above by the strict bound).
        while let Some((now, ev)) = self.queue.pop() {
            self.dispatch(now, ev);
        }
        self.next_internal = None;
    }

    /// Schedules an internal event, keeping the cached earliest time.
    fn schedule(&mut self, at: SimTime, ev: EngineEvent) {
        if self.next_internal.is_none_or(|nt| at < nt) {
            self.next_internal = Some(at);
        }
        self.queue.push(at, ev);
    }

    fn dispatch(&mut self, now: SimTime, event: EngineEvent) {
        match event {
            EngineEvent::Sync(c) => {
                self.obs.inc(self.mid.ev_sync, 1);
                self.on_sync(now, c)
            }
            EngineEvent::Retry { c, attempt } => {
                self.obs.inc(self.mid.ev_retry, 1);
                self.on_retry(now, c, attempt)
            }
            EngineEvent::ExpirySweep => {
                self.obs.inc(self.mid.ev_sweep, 1);
                self.on_expiry_sweep(now)
            }
            EngineEvent::Pacing => {
                self.obs.inc(self.mid.ev_pacing, 1);
                self.on_pacing(now)
            }
        }
    }

    /// Handles one external ad-slot event: client `user` renders a slot
    /// of app `app` at `now`. The caller must present slots in
    /// non-decreasing time order and call
    /// [`ClientEngine::drain_internal_before`]`(now)` first.
    pub fn on_slot(&mut self, now: SimTime, user: UserId, app: AppId) {
        self.obs.inc(self.mid.ev_slot, 1);
        self.slots_seen += 1;
        let ci = user.0 as usize;
        let category = Self::app_category(app);
        match self.config.mode {
            DeliveryMode::RealTime => match self.cell_admit(ci, now) {
                None => self.unfilled += 1,
                Some(delay) => self.gated_realtime_fetch(ci, now, category, delay),
            },
            DeliveryMode::Prefetch => {
                self.clients.slot_times[ci].push(now);
                if let Some(ad) =
                    self.clients.cache[ci].take_displayable(now, self.config.replica_window)
                {
                    self.clients.pending_reports[ci].push((ad.id, now));
                    self.impressions += 1;
                    self.cache_hits += 1;
                    // A cached ad renders instantly: the user-facing
                    // display latency is zero.
                    if let Some(ids) = &self.mid.scen {
                        self.obs.observe_id(ids.display_latency, 0);
                    }
                } else if self.config.realtime_fallback {
                    if self.prefetch_cap_blocks(ci, now) {
                        // Data budget exhausted: the piggybacked prefetch
                        // sync may not ride along, but the slot is live
                        // now — serve it with a plain realtime fetch
                        // (which still meters).
                        match self.cell_admit(ci, now) {
                            None => self.unfilled += 1,
                            Some(delay) => self.gated_realtime_fetch(ci, now, category, delay),
                        }
                    } else if self.config.piggyback_on_fallback {
                        match self.cell_admit(ci, now) {
                            None => self.unfilled += 1,
                            Some(cell_delay) => {
                                // The radio must wake for this fetch
                                // anyway; ride the same wakeup with a
                                // full sync — if the link lets the round
                                // trip through at all.
                                match self.net.as_mut().map(|net| net.attempt(ci, now)) {
                                    Some(v) if !v.ok => {
                                        // The slot is gone; there is no
                                        // later moment to retry a display
                                        // into. The radio still pays for
                                        // the timeout.
                                        self.obs.inc(self.mid.netem_realtime_failures, 1);
                                        self.unfilled += 1;
                                        self.clients.radio[ci].stall(now, v.latency);
                                    }
                                    verdict => {
                                        // Any cell queueing delay rides
                                        // the same stall (and latency
                                        // sample) as the link's round
                                        // trip; zero on the legacy path.
                                        let latency =
                                            verdict.map(|v| v.latency).unwrap_or(SimDuration::ZERO)
                                                + cell_delay;
                                        self.sync_body(ci, now, Some(category), latency);
                                    }
                                }
                            }
                        }
                    } else {
                        match self.cell_admit(ci, now) {
                            None => self.unfilled += 1,
                            Some(delay) => self.gated_realtime_fetch(ci, now, category, delay),
                        }
                    }
                } else {
                    self.unfilled += 1;
                }
            }
        }
    }

    /// Admits a realtime fetch through the per-region cell-capacity
    /// ceiling. Returns the queueing delay to charge (zero off the
    /// ceiling or with the scenario disabled), or `None` when the region
    /// is saturated and the policy drops the fetch — the caller leaves
    /// the slot unfilled.
    fn cell_admit(&mut self, ci: usize, now: SimTime) -> Option<SimDuration> {
        let Some(s) = self.scen.as_mut() else {
            return Some(SimDuration::ZERO);
        };
        if !s.cell_on {
            return Some(SimDuration::ZERO);
        }
        let r = s.region[ci] as usize;
        let w = now.as_millis() / s.cell_window_ms;
        if s.cell_window[r] != w {
            s.cell_window[r] = w;
            s.cell_used[r] = 0;
        }
        s.cell_used[r] += 1;
        if s.cell_used[r] <= s.cell_limit {
            return Some(SimDuration::ZERO);
        }
        let ids = self
            .mid
            .scen
            .as_ref()
            .expect("scenario ids exist with state");
        match s.cell_policy {
            CellPolicy::Drop => {
                self.obs.inc(ids.cell_dropped, 1);
                None
            }
            CellPolicy::Defer => {
                self.obs.inc(ids.cell_deferred, 1);
                Some(s.cell_queue_delay)
            }
        }
    }

    /// Whether client `ci`'s data-plan budget blocks prefetch syncing
    /// right now. False whenever the scenario layer is off.
    fn prefetch_cap_blocks(&mut self, ci: usize, now: SimTime) -> bool {
        let Some(s) = self.scen.as_mut() else {
            return false;
        };
        if !s.cap_blocks(ci, now) {
            return false;
        }
        let ids = self
            .mid
            .scen
            .as_ref()
            .expect("scenario ids exist with state");
        self.obs.inc(ids.cap_blocked, 1);
        true
    }

    /// Adds a transfer to the metered-bytes accounting when the client's
    /// traffic is metered. No-op with the scenario layer off.
    fn meter(&mut self, ci: usize, down: u64, up: u64) {
        let Some(s) = self.scen.as_mut() else { return };
        if !s.metered[ci] {
            return;
        }
        let ids = self
            .mid
            .scen
            .as_ref()
            .expect("scenario ids exist with state");
        self.obs.inc(ids.metered_down, down);
        self.obs.inc(ids.metered_up, up);
        s.metered_used[ci] += down + up;
    }

    /// Records the user-facing display latency of a fetched ad: the
    /// class radio's transfer time for one creative plus any link
    /// latency and cell queueing delay (`extra`). No-op with the
    /// scenario layer off.
    fn record_display_latency(&mut self, ci: usize, extra: SimDuration) {
        let Some(s) = &self.scen else { return };
        let Some(ids) = &self.mid.scen else { return };
        let prof = &s.classes[s.class_of[ci] as usize].radio;
        let t = prof.transfer_time(self.config.ad_bytes_down, self.config.ad_bytes_up) + extra;
        self.obs.observe_id(ids.display_latency, t.as_millis());
    }

    /// Maps an app to its marketplace category for contextual targeting.
    fn app_category(app: AppId) -> u8 {
        (app.0 % CampaignCatalog::NUM_CATEGORIES as u16) as u8
    }

    /// [`ClientEngine::realtime_fetch`] gated by the network channel: on
    /// a dead link the slot goes unfilled (a display moment cannot be
    /// retried) and the radio pays a wasted timeout; on a degraded link
    /// the fetch succeeds but holds the radio for the extra latency.
    /// `extra` is a cell-capacity queueing delay to charge on top
    /// (always zero on the legacy path). With netem disabled and no
    /// delay this is exactly `realtime_fetch`.
    fn gated_realtime_fetch(&mut self, ci: usize, now: SimTime, category: u8, extra: SimDuration) {
        let mut lat = extra;
        if let Some(net) = self.net.as_mut() {
            let v = net.attempt(ci, now);
            if !v.ok {
                self.obs.inc(self.mid.netem_realtime_failures, 1);
                self.unfilled += 1;
                self.clients.radio[ci].stall(now, v.latency);
                return;
            }
            lat += v.latency;
        }
        if !lat.is_zero() {
            self.clients.radio[ci].stall(now, lat);
        }
        self.realtime_fetch(ci, now, category, lat);
    }

    /// Status-quo path: wake the radio, auction the slot in real time, and
    /// bill immediately. `extra_latency` is the link + queueing stall
    /// already charged by the caller, folded into the display-latency
    /// sample only.
    fn realtime_fetch(
        &mut self,
        ci: usize,
        now: SimTime,
        category: u8,
        extra_latency: SimDuration,
    ) {
        self.clients.radio[ci].transfer(now, self.config.ad_bytes_down, self.config.ad_bytes_up);
        self.meter(ci, self.config.ad_bytes_down, self.config.ad_bytes_up);
        self.realtime_fetches += 1;
        let offer = SlotOffer::realtime(now, Some(category));
        if let Some(sold) = self.exchange.run_auction(&offer) {
            self.ledger.record_sale(&sold);
            let outcome = self.ledger.record_impression(sold.id, now);
            debug_assert_eq!(outcome, ImpressionOutcome::Billed);
            self.impressions += 1;
            self.record_display_latency(ci, extra_latency);
        } else {
            self.unfilled += 1;
        }
    }

    fn on_sync(&mut self, now: SimTime, c: u32) {
        let ci = c as usize;
        // Failure injection: the device may be unreachable for this
        // periodic sync; everything pending simply waits for the next
        // opportunity.
        let dropped = self.config.sync_dropout > 0.0
            && self.fault_rng.gen::<f64>() < self.config.sync_dropout;
        if dropped {
            self.syncs_dropped += 1;
        } else if self.prefetch_cap_blocks(ci, now) {
            // Data-plan budget exhausted: skip this period's prefetch
            // sync entirely (no transfer, no selling). The counter was
            // bumped by the check; the next period resets the budget.
        } else {
            self.attempt_sync(ci, now, 0);
        }

        // Schedule the next periodic sync; one extra period past the
        // horizon flushes final reports.
        let next = now + self.config.prefetch_interval;
        if next <= self.horizon + self.config.prefetch_interval {
            self.clients.next_sync[ci] = next;
            self.schedule(next, EngineEvent::Sync(c));
        }
    }

    /// Runs a sync through the network channel: a failed round trip costs
    /// a wasted radio wakeup and schedules a backoff retry; a successful
    /// one proceeds to [`ClientEngine::sync_body`] carrying the link's
    /// extra latency. `attempt` is the number of round trips already
    /// burnt on this sync (0 for the periodic attempt). With netem
    /// disabled this is exactly `sync_body` on an ideal link.
    fn attempt_sync(&mut self, ci: usize, now: SimTime, attempt: u32) {
        let Some(net) = self.net.as_mut() else {
            self.sync_body(ci, now, None, SimDuration::ZERO);
            return;
        };
        let v = net.attempt(ci, now);
        if v.ok {
            if attempt > 0 {
                self.obs.inc(self.mid.netem_retries_succeeded, 1);
            }
            self.sync_body(ci, now, None, v.latency);
            return;
        }
        // The handshake went out and nothing came back: the radio woke,
        // spent the uplink overhead plus the timeout, and got nothing —
        // the wasted-wakeup energy the tail model makes expensive.
        self.obs.inc(self.mid.netem_sync_failures, 1);
        self.clients.radio[ci].transfer(now, 0, self.config.sync_overhead_bytes);
        self.meter(ci, 0, self.config.sync_overhead_bytes);
        self.clients.radio[ci].stall(now, v.latency);
        self.schedule_retry(ci, now, attempt);
    }

    /// Schedules the next backoff retry after a failed sync attempt, or
    /// gives up once the policy's retry budget is spent.
    fn schedule_retry(&mut self, ci: usize, now: SimTime, attempt: u32) {
        let Some(net) = self.net.as_mut() else { return };
        if attempt >= net.retry().max_retries {
            self.obs.inc(self.mid.netem_syncs_abandoned, 1);
            return;
        }
        let at = now + net.backoff(ci, attempt);
        // Same scheduling bound as periodic syncs: one interval past the
        // horizon still flushes reports, anything later is pointless.
        if at <= self.horizon + self.config.prefetch_interval {
            self.obs.inc(self.mid.netem_retries_scheduled, 1);
            self.clients.retry_pending[ci] = true;
            self.schedule(
                at,
                EngineEvent::Retry {
                    c: ci as u32,
                    attempt: attempt + 1,
                },
            );
        }
    }

    fn on_retry(&mut self, now: SimTime, c: u32, attempt: u32) {
        let ci = c as usize;
        // A sync completed since this retry was scheduled (periodic or
        // piggybacked); the client has nothing left to retry.
        if !self.clients.retry_pending[ci] {
            return;
        }
        self.clients.retry_pending[ci] = false;
        self.attempt_sync(ci, now, attempt);
    }

    /// One client/server sync: report, observe, cancel, deliver, sell,
    /// transfer. With `rt_fetch = Some(category)` the sync also serves the
    /// current slot via a real-time auction, sharing the radio wakeup
    /// (piggybacking). `link_latency` is the channel's extra round-trip
    /// stall, charged only if the sync actually wakes the radio.
    fn sync_body(
        &mut self,
        ci: usize,
        now: SimTime,
        rt_fetch: Option<u8>,
        link_latency: SimDuration,
    ) {
        let c = ci as u32;
        // This sync got through, so any outstanding retry is obsolete.
        self.clients.retry_pending[ci] = false;
        // New epoch: every per-client expected-rate memo entry from the
        // previous sync is now stale.
        self.sync_epoch += 1;

        // 1. Update the server-side demand model with the observed period.
        //    Swapping with the scratch buffer (instead of `mem::take`)
        //    hands the client back a vector with retained capacity, so
        //    next interval's slot pushes don't regrow from zero.
        std::mem::swap(
            &mut self.scratch_slot_times,
            &mut self.clients.slot_times[ci],
        );
        let last = self.clients.last_sync[ci];
        self.clients.predictor[ci].observe(last, now, &self.scratch_slot_times);
        self.scratch_slot_times.clear();
        self.clients.cache[ci].purge_expired(now);

        // 2. Sell the predicted slots of the next interval and place them.
        //    The sell margin scales how aggressively predictions convert
        //    into inventory; overbooking and cancellation contain the
        //    downside of overselling.
        let predicted = self.clients.predictor[ci].predict(now, self.config.prefetch_interval);
        let have = self.clients.cache[ci].primary_count() as i64;
        let want = (predicted * self.config.sell_margin).round() as i64;
        let to_sell = (((want - have).max(0)) as u32).min(MAX_SELL_PER_SYNC);
        let mut delivered_primaries = 0u64;
        // All ads sold at this sync share one deadline (`now`, config,
        // and horizon are fixed for the duration), and therefore one
        // replica-candidate pool. The pool is evaluated once, lazily, at
        // the first sale that needs replicas; later sales reuse it, with
        // only the entries whose queue depth changed re-scored: each
        // extends its own Poisson-tail series instead of recomputing it.
        let deadline = (now + self.config.deadline).min(self.horizon);
        let mut pool_built = false;
        for _ in 0..to_sell {
            // Don't sell display windows that extend beyond the trace.
            if deadline <= now {
                break;
            }
            let offer = SlotOffer::advance(now, deadline);
            let Some(sold) = self.exchange.run_auction(&offer) else {
                break; // Exchange demand exhausted.
            };
            self.ledger.record_sale(&sold);
            let holders = self.place_ad(ci, now, deadline, &mut pool_built);
            self.replicas_assigned += holders.len() as u64 - 1;
            self.tracker.register(sold.id.0, &holders, deadline);
            // The first holder in placement order is the primary copy; the
            // rest are insurance replicas that display only after the
            // holder's own primaries.
            for (rank, &h) in holders.iter().enumerate() {
                self.clients.queued[h as usize] += 1;
                let cached = CachedAd {
                    id: sold.id,
                    deadline,
                    replica: rank > 0,
                };
                if h as usize == ci {
                    self.clients.cache[ci].insert(cached);
                    delivered_primaries += 1;
                } else {
                    self.clients.outbox[h as usize].push(cached);
                }
            }
            // Re-score the pool entries of the replica holders just
            // loaded: their queue depth grew, so their availability for
            // the *next* ad of this sync shrank.
            self.refresh_pool_probs(&holders);
        }

        // 3. Serve the current slot in real time if this sync rides a
        //    fallback fetch.
        let mut rt_bytes = (0u64, 0u64);
        if let Some(category) = rt_fetch {
            self.realtime_fetches += 1;
            rt_bytes = (self.config.ad_bytes_down, self.config.ad_bytes_up);
            let offer = SlotOffer::realtime(now, Some(category));
            if let Some(sold) = self.exchange.run_auction(&offer) {
                self.ledger.record_sale(&sold);
                self.ledger.record_impression(sold.id, now);
                self.impressions += 1;
                // The user waits for the fetch inside the piggybacked
                // sync: transfer time plus the link/queue stall.
                self.record_display_latency(ci, link_latency);
            } else {
                self.unfilled += 1;
            }
        }

        // 4. Decide whether this sync transfers at all. Only things that
        //    must move now justify a radio wakeup: the fallback fetch and
        //    newly sold primaries. Replicas, cancellations, and impression
        //    reports are ride-along payload — except that reports force a
        //    transfer once the oldest has aged a full interval (they are
        //    billed by display timestamp, so bounded delay is safe within
        //    the expiry grace period).
        let reports_urgent = self.clients.pending_reports[ci]
            .first()
            .map(|&(_, t)| now.saturating_since(t) >= self.config.prefetch_interval)
            .unwrap_or(false);
        let reports_pending = !self.clients.pending_reports[ci].is_empty();
        let transfer = rt_fetch.is_some()
            || delivered_primaries > 0
            || (reports_pending && (reports_urgent || !self.config.defer_report_syncs))
            || !self.config.skip_empty_syncs;
        if !transfer {
            self.syncs_skipped += 1;
            self.clients.last_sync[ci] = now;
            return;
        }

        // 5. The radio is waking up: apply queued cancellations, deliver
        //    outstanding replicas, and ship the impression reports. The
        //    drain keeps both the tracker queue's and the scratch
        //    buffer's allocations alive across syncs.
        self.scratch_cancel.clear();
        self.tracker
            .drain_cancellations(c, &mut self.scratch_cancel);
        if !self.scratch_cancel.is_empty() {
            self.clients.cancel(ci, &self.scratch_cancel);
        }
        std::mem::swap(&mut self.scratch_outbox, &mut self.clients.outbox[ci]);
        let mut delivered_replicas = 0u64;
        for i in 0..self.scratch_outbox.len() {
            let ad = self.scratch_outbox[i];
            if ad.deadline >= now {
                self.clients.cache[ci].insert(ad);
                delivered_replicas += 1;
            }
        }
        self.scratch_outbox.clear();
        std::mem::swap(
            &mut self.scratch_reports,
            &mut self.clients.pending_reports[ci],
        );
        let report_count = self.scratch_reports.len() as u64;
        for i in 0..self.scratch_reports.len() {
            let (ad, t) = self.scratch_reports[i];
            let disposition = self.tracker.record_display(ad.0, c);
            self.ledger.record_impression(ad, t);
            if disposition == adpf_overbooking::DisplayDisposition::First {
                // Every holder's queue shrinks: the reporter consumed the
                // ad, the others will drop it on cancellation. Borrowing
                // `tracker` and mutating `clients` are disjoint field
                // accesses, so no defensive clone of the holder list.
                if let Some(holders) = self.tracker.holders(ad.0) {
                    for &h in holders {
                        let q = &mut self.clients.queued[h as usize];
                        *q = q.saturating_sub(1);
                    }
                }
            }
        }
        self.scratch_reports.clear();

        // 6. Pay for the batched transfer.
        let delivered = delivered_primaries + delivered_replicas;
        let down =
            delivered * self.config.ad_bytes_down + self.config.sync_overhead_bytes + rt_bytes.0;
        let up =
            report_count * self.config.ad_bytes_up + self.config.sync_overhead_bytes + rt_bytes.1;
        self.clients.radio[ci].transfer(now, down, up);
        self.meter(ci, down, up);
        if !link_latency.is_zero() {
            // Degraded link: the round trip holds the radio active past
            // the payload time (queued behind the transfer just issued).
            self.clients.radio[ci].stall(now, link_latency);
        }
        self.syncs += 1;
        self.clients.last_sync[ci] = now;
    }

    /// Chooses the holders of an ad sold at client `origin`'s sync: the
    /// origin always keeps the primary copy (the ad was sold against *its*
    /// predicted demand); insurance replicas are added only when the
    /// origin's own display probability falls short of the SLA target.
    ///
    /// The replica set is sized to the *residual* risk: with origin
    /// probability `p`, the replicas must jointly succeed with probability
    /// `1 - (1 - target) / (1 - p)` for the whole set to meet `target`.
    /// Replica candidates are drawn from a rotating cursor (spreading
    /// placement load) and scored over the window in which they could
    /// actually display: from the later of their next sync and the opening
    /// of the replica window, to the deadline, discounted by the ads
    /// already queued on them.
    fn place_ad(
        &mut self,
        origin: usize,
        now: SimTime,
        deadline: SimTime,
        pool_built: &mut bool,
    ) -> InlineVec<u32, { PLAN_INLINE + 1 }> {
        let lambda = self.cached_rate(origin, now, deadline);
        let queued = self.clients.queued[origin];
        let mean_session = self.clients.predictor[origin].mean_session_slots();
        let p_origin = display_probability_bursty(
            lambda,
            queued,
            mean_session,
            self.config.availability_dispersion,
        );
        let mut holders: InlineVec<u32, { PLAN_INLINE + 1 }> = InlineVec::new();
        holders.push(origin as u32);
        if p_origin >= self.config.sla_target {
            return holders;
        }
        // Residual success probability required from the replicas.
        let residual_target = 1.0 - (1.0 - self.config.sla_target) / (1.0 - p_origin).max(1e-9);
        if residual_target <= 0.0 {
            return holders;
        }

        if !*pool_built {
            self.build_candidate_pool(origin, now, deadline);
            *pool_built = true;
        }
        let plan = self.planner.plan(
            &self.scratch_cands,
            residual_target,
            self.config.max_replicas.saturating_sub(1),
        );
        holders.extend_from_slice(&plan.clients);
        holders
    }

    /// Evaluates the replica-candidate pool for one selling sync: the
    /// next `candidate_pool - 1` clients under the rotating cursor, each
    /// scored over the window in which it could actually display. Fills
    /// `scratch_cands` (planner input) and the aligned `scratch_meta`
    /// (each candidate's Poisson-tail state, extended when its queue
    /// depth grows mid-sync).
    /// The build is split gather → rate → score over flat SoA buffers:
    /// the cursor walk (branchy, touches `next_sync`), the predictor
    /// rate queries (virtual calls), and the Poisson-tail scoring (pure
    /// float math over `scratch_meta`) each run as their own tight loop
    /// instead of one interleaved pass. Every per-candidate computation
    /// is a pure function of its own inputs, so the phase split
    /// produces bit-identical probabilities in the identical pool order.
    fn build_candidate_pool(&mut self, origin: usize, now: SimTime, deadline: SimTime) {
        self.scratch_cands.clear();
        self.scratch_meta.clear();
        self.scratch_gather.clear();
        self.pool_build_id += 1;
        self.obs.inc(self.mid.pool_builds, 1);
        let n = self.clients.len();
        if n <= 1 {
            return;
        }
        let want = (self.config.candidate_pool - 1).min(n - 1);
        let mut taken = 0;
        // A replica can only display inside the final `replica_window`
        // of the ad's life, and only after the holder has received it at
        // a sync. Loop-invariant: hoisted out of the candidate scan.
        let window_open = deadline.saturating_sub(self.config.replica_window).max(now);
        // Gather: advance the rotating cursor, keeping candidates that
        // could receive the ad in time.
        while taken < want {
            self.cand_cursor = (self.cand_cursor + 1) % n;
            let j = self.cand_cursor;
            if j == origin {
                continue;
            }
            taken += 1;
            let start = self.clients.next_sync[j].max(window_open);
            if start >= deadline {
                continue; // Cannot receive the ad in time; skip the
                          // rate evaluation entirely.
            }
            self.scratch_gather.push((j as u32, start));
        }
        // Rate: one (epoch-memoized) expected-rate query per candidate.
        let dispersion = self.config.availability_dispersion;
        for idx in 0..self.scratch_gather.len() {
            let (j, start) = self.scratch_gather[idx];
            let lambda_j = self.cached_rate(j as usize, start, deadline);
            let mean_session_j = self.clients.predictor[j as usize].mean_session_slots();
            self.scratch_meta
                .push(BurstyTail::new(lambda_j, mean_session_j, dispersion));
        }
        // Score: Poisson-tail availability over the flat meta array,
        // stamping each client's O(1) position handle as we go.
        for idx in 0..self.scratch_gather.len() {
            let (j, _) = self.scratch_gather[idx];
            let queued_j = self.clients.queued[j as usize];
            let prob = self.scratch_meta[idx].prob(queued_j);
            self.scratch_cands
                .push(ClientAvailability { client: j, prob });
            self.pool_pos[j as usize] = idx as u32;
            self.pool_epoch[j as usize] = self.pool_build_id;
        }
        self.obs
            .inc(self.mid.pool_scored, self.scratch_cands.len() as u64);
    }

    /// Re-scores the pool entries of freshly chosen replica holders
    /// (their `queued` just grew). Each entry's tail state in
    /// `scratch_meta` extends its series to the deeper queue; the rate
    /// is never recomputed.
    /// Replica holders always come out of the current build's pool, so
    /// the `pool_pos`/`pool_epoch` handle resolves each one in O(1) —
    /// the linear `position` scan this replaces was the planner loop's
    /// last per-holder pool traversal.
    fn refresh_pool_probs(&mut self, holders: &[u32]) {
        // holders[0] is the origin, which is never in the pool.
        for &h in holders.iter().skip(1) {
            if self.pool_epoch[h as usize] != self.pool_build_id {
                continue;
            }
            let pos = self.pool_pos[h as usize] as usize;
            debug_assert_eq!(self.scratch_cands[pos].client, h);
            let queued = self.clients.queued[h as usize];
            self.scratch_cands[pos].prob = self.scratch_meta[pos].prob(queued);
            self.obs.inc(self.mid.pool_rescored, 1);
        }
    }

    /// `expected_rate` for client `j`, memoized per sync epoch.
    ///
    /// Valid because nothing a rate depends on — the client's predictor
    /// state, its `next_sync`, the sale deadline — changes between the
    /// ads sold at one sync (only `queued` moves, which the pool's tail
    /// states absorb separately). The origin and candidates never
    /// collide on an entry: `place_ad` skips `j == origin`.
    fn cached_rate(&mut self, j: usize, start: SimTime, deadline: SimTime) -> f64 {
        if self.lambda_epoch[j] == self.sync_epoch {
            return self.lambda_cache[j];
        }
        let rate = self.clients.predictor[j].expected_rate(start, deadline.saturating_since(start));
        self.lambda_epoch[j] = self.sync_epoch;
        self.lambda_cache[j] = rate;
        rate
    }

    fn on_expiry_sweep(&mut self, now: SimTime) {
        // Bill by display timestamp: a displayed-but-unreported ad is not
        // a violation, so the sweep waits out the worst-case report delay
        // (one interval of deferral plus one interval to the next sync)
        // before declaring one.
        let grace = self.config.prefetch_interval.saturating_mul(2);
        self.expire(now.saturating_sub(grace));
        if self.net.is_some() {
            self.rescue_dark_ads(now);
        }
        let next = now + SimDuration::from_hours(1);
        if next <= self.horizon + self.config.deadline + grace {
            self.schedule(next, EngineEvent::ExpirySweep);
        }
    }

    /// One pacing-controller update, rescheduling itself every
    /// `marketplace.pacing_interval` until the trace horizon. Runs on
    /// the engine's event queue, so controller updates happen at
    /// deterministic simulated times interleaved with the auction
    /// stream — identical at any thread count.
    fn on_pacing(&mut self, now: SimTime) {
        self.exchange.pacing_tick(now, self.horizon);
        let next = now + self.config.marketplace.pacing_interval;
        if next <= self.horizon {
            self.schedule(next, EngineEvent::Pacing);
        }
    }

    /// Deadline rescue (netem only): ads due within the next prefetch
    /// interval whose holders have *all* gone dark get one extra replica
    /// on a reachable client that will sync before the deadline. Without
    /// this, a regional outage turns every ad it strands into an SLA
    /// violation even though connected clients could still display it.
    fn rescue_dark_ads(&mut self, now: SimTime) {
        let n = self.clients.len();
        if n == 0 {
            return;
        }
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        self.tracker
            .undisplayed_due_before(now + self.config.prefetch_interval, &mut due);
        // The tracker iterates a HashMap; sort so rescue order (and the
        // rotating cursor it advances) is deterministic.
        due.sort_unstable();
        for &(ad, deadline) in &due {
            if deadline <= now {
                continue; // Too late for any new holder to display it.
            }
            let Some(net) = self.net.as_mut() else { break };
            // Copy the holder set out so the tracker can be mutated below.
            let holders: InlineVec<u32, { PLAN_INLINE + 1 }> = match self.tracker.holders(ad) {
                Some(h) => InlineVec::from_slice(h),
                None => continue,
            };
            // Reachability only consults the link trajectory (no failure
            // coin), so the scan cannot perturb later attempt outcomes.
            if holders.iter().any(|&h| net.reachable(h as usize, now)) {
                continue; // Some holder can still sync in time.
            }
            // Every holder is dark: scan from the rotating cursor for a
            // reachable client whose next sync lands before the deadline.
            let mut target = None;
            for _ in 0..self.config.candidate_pool.min(n) {
                self.cand_cursor = (self.cand_cursor + 1) % n;
                let j = self.cand_cursor;
                if holders.as_slice().contains(&(j as u32)) {
                    continue;
                }
                if self.clients.next_sync[j] < deadline && net.reachable(j, now) {
                    target = Some(j as u32);
                    break;
                }
            }
            match target {
                Some(t) if self.tracker.rescue_to(ad, t) => {
                    self.obs.inc(self.mid.netem_ads_rescued, 1);
                    self.replicas_assigned += 1;
                    self.clients.queued[t as usize] += 1;
                    self.clients.outbox[t as usize].push(CachedAd {
                        id: AdId(ad),
                        deadline,
                        replica: true,
                    });
                }
                _ => self.obs.inc(self.mid.netem_rescues_unplaced, 1),
            }
        }
        self.scratch_due = due;
    }

    fn expire(&mut self, now: SimTime) {
        for (ad, campaign, price) in self.ledger.expire_due(now) {
            self.exchange.refund(campaign, price);
            if !self.tracker.is_displayed(ad.0) {
                // A prefetched ad nobody displayed: the bytes that moved
                // it were pure user cost. One creative download is the
                // lower bound (replicas of the same ad add more).
                if let Some(ids) = &self.mid.scen {
                    self.obs.inc(ids.wasted_ads, 1);
                    self.obs.inc(ids.wasted_bytes, self.config.ad_bytes_down);
                }
                if let Some(holders) = self.tracker.holders(ad.0) {
                    // Disjoint field borrows: read `tracker`, write
                    // `clients` — no clone needed.
                    for &h in holders {
                        let q = &mut self.clients.queued[h as usize];
                        *q = q.saturating_sub(1);
                    }
                }
            }
            self.tracker.remove(ad.0);
        }
    }

    /// Settles all outstanding state and produces the run's report plus
    /// its metric registry. Call after the external stream ended and
    /// [`ClientEngine::drain_internal`] ran.
    pub fn finalize(self) -> (SimReport, MetricRegistry) {
        let (report, obs, _) = self.finalize_reclaim();
        (report, obs)
    }

    /// [`ClientEngine::finalize`], additionally handing back the
    /// engine's allocation set for reuse by the next engine on this
    /// thread (see [`EngineScratch`]).
    pub fn finalize_reclaim(mut self) -> (SimReport, MetricRegistry, EngineScratch) {
        // Flush reports that never made it to a final sync (trace ended
        // first); without this, genuinely displayed ads would be
        // misclassified as SLA violations.
        for ci in 0..self.clients.len() {
            let reports = std::mem::take(&mut self.clients.pending_reports[ci]);
            for (ad, t) in reports {
                self.tracker.record_display(ad.0, ci as u32);
                self.ledger.record_impression(ad, t);
            }
        }
        // Settle everything still pending.
        self.expire(self.horizon + self.config.deadline + SimDuration::from_millis(1));

        let mut energy = EnergyBreakdown::default();
        let mut per_user = Vec::with_capacity(self.clients.len());
        // Mixed populations flush at the longest class tail so no class
        // loses end-of-trace tail energy; scenario-off keeps the single
        // config radio (bit-identical legacy path).
        let tail = match &self.scen {
            Some(s) => s
                .classes
                .iter()
                .map(|c| c.radio.tail_duration())
                .max()
                .unwrap_or_else(|| self.config.radio.tail_duration()),
            None => self.config.radio.tail_duration(),
        };
        let flush_at = self.horizon + tail;
        for radio in &mut self.clients.radio {
            let e = radio.finish(flush_at);
            per_user.push(e.total_j());
            e.publish_residency(&self.obs);
            energy.absorb(&e);
        }

        // Fold the domain-layer stats into the registry so one snapshot
        // covers the whole stack. All of these count simulated events, so
        // they stay deterministic regardless of whether metrics export is
        // requested.
        self.tracker.publish(&self.obs);
        self.exchange.publish(&self.obs);
        if let Some(net) = &self.net {
            net.publish(&self.obs);
        }
        let slots = self.slots_seen;
        self.obs.add("sim.slots", slots);
        self.obs.add("sim.impressions", self.impressions);
        self.obs.add("sim.cache_hits", self.cache_hits);
        self.obs.add("sim.realtime_fetches", self.realtime_fetches);
        self.obs.add("sim.unfilled", self.unfilled);
        self.obs.add("sim.syncs", self.syncs);
        self.obs.add("sim.syncs_skipped", self.syncs_skipped);
        self.obs.add("sim.syncs_dropped", self.syncs_dropped);
        self.obs
            .add("sim.replicas_assigned", self.replicas_assigned);
        self.obs.gauge_max("sim.users", self.clients.len() as u64);

        // `SimReport::netem` is *derived* from the registry: the counters
        // are the single source of truth, the report field only preserves
        // the serialized shape (and hash inputs) of earlier revisions.
        let netem = NetemCounters::from_metrics(&self.obs);
        // Same derivation for the scenario layer: an engine that never
        // registered scenario metrics reads back the all-default value.
        let scenario = ScenarioCounters::from_metrics(&self.obs);

        let report = SimReport {
            config: self.config.describe(),
            users: self.clients.len() as u32,
            days: self.days,
            slots,
            impressions: self.impressions,
            cache_hits: self.cache_hits,
            realtime_fetches: self.realtime_fetches,
            unfilled: self.unfilled,
            energy,
            syncs: self.syncs,
            syncs_skipped: self.syncs_skipped,
            syncs_dropped: self.syncs_dropped,
            replicas_assigned: self.replicas_assigned,
            netem,
            scenario,
            per_user_energy_j: per_user,
            ledger: self.ledger.totals(),
        };
        let scratch = EngineScratch {
            queue: self.queue,
            lambda_epoch: self.lambda_epoch,
            lambda_cache: self.lambda_cache,
            pool_pos: self.pool_pos,
            pool_epoch: self.pool_epoch,
            scratch_slot_times: self.scratch_slot_times,
            scratch_outbox: self.scratch_outbox,
            scratch_reports: self.scratch_reports,
            scratch_cands: self.scratch_cands,
            scratch_meta: self.scratch_meta,
            scratch_due: self.scratch_due,
            scratch_gather: self.scratch_gather,
            scratch_cancel: self.scratch_cancel,
            scratch_batch: self.scratch_batch,
        };
        (report, self.obs, scratch)
    }
}
