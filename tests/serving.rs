//! Batch-as-engine-client equivalence: the online server driven by a
//! trace's serialized event stream must reproduce the batch simulator's
//! report **bit for bit** — at every thread count, under network
//! emulation, and with the marketplace on — because both sides drive
//! the same `ClientEngine` with the same per-shard sub-streams.

use adpf_auction::MarketplaceConfig;
use adpf_core::{default_shards, Simulator, SystemConfig};
use adpf_netem::NetemConfig;
use adpf_scenario::{ScenarioPopulation, ScenarioSpec};
use adpf_serve::{serve, write_events, ServeOptions};
use adpf_traces::{PopulationConfig, Trace};

/// Serializes `pop`'s slot stream and serves it, asserting the outcome
/// equals the batch run of the same `(config, trace)` at every listed
/// thread count.
fn assert_serve_matches_batch(pop: &PopulationConfig, cfg: &SystemConfig, threads: &[usize]) {
    assert_trace_serves_like_batch(&pop.generate(), cfg, threads);
}

/// [`assert_serve_matches_batch`] for an already generated trace.
fn assert_trace_serves_like_batch(trace: &Trace, cfg: &SystemConfig, threads: &[usize]) {
    let batch = Simulator::run_parallel(cfg, trace, 2);
    let mut stream = Vec::new();
    write_events(trace, cfg.ad_refresh, &mut stream).unwrap();
    for &t in threads {
        let mut opts = ServeOptions::new(cfg.clone());
        opts.threads = t;
        let out = serve(&opts, stream.as_slice()).unwrap();
        assert_eq!(
            out.report,
            batch,
            "served report diverged from batch ({t} threads, {} users)",
            trace.num_users()
        );
        assert_eq!(out.ingest_errors, 0, "a generated stream never rejects");
    }
}

#[test]
fn serving_reproduces_the_committed_smoke_golden_at_1_2_8_threads() {
    // The acceptance pin: replaying the smoke trace through the server
    // reproduces the exact report hash every other pipeline is held to.
    let trace = PopulationConfig::small_test(777).generate();
    let cfg = SystemConfig::prefetch_default(5);
    let mut stream = Vec::new();
    write_events(&trace, cfg.ad_refresh, &mut stream).unwrap();
    for threads in [1usize, 2, 8] {
        let mut opts = ServeOptions::new(cfg.clone());
        opts.threads = threads;
        let out = serve(&opts, stream.as_slice()).unwrap();
        assert_eq!(
            out.report.stable_hash(),
            0xba08_fcf9_274d_6de0,
            "served smoke run drifted off the committed golden at {threads} threads"
        );
    }
}

#[test]
fn serving_matches_batch_under_netem() {
    let mut pop = PopulationConfig::small_test(31);
    pop.num_users = 50;
    let mut cfg = SystemConfig::prefetch_default(9);
    cfg.netem = NetemConfig::flaky_cellular();
    assert_serve_matches_batch(&pop, &cfg, &[1, 2, 8]);
}

#[test]
fn serving_matches_batch_with_the_marketplace_on() {
    let mut pop = PopulationConfig::small_test(13);
    pop.num_users = 50;
    let mut cfg = SystemConfig::prefetch_default(9);
    cfg.marketplace = MarketplaceConfig::paced();
    assert_serve_matches_batch(&pop, &cfg, &[1, 2, 8]);
}

#[test]
fn serving_matches_batch_with_netem_and_marketplace_off() {
    // The plain configuration, distinct seeds from the smoke pin.
    let mut pop = PopulationConfig::small_test(7);
    pop.num_users = 30;
    let cfg = SystemConfig::prefetch_default(3);
    assert_serve_matches_batch(&pop, &cfg, &[1, 2, 8]);
}

#[test]
fn serving_matches_batch_when_workers_regroup_many_shards() {
    // A worker decides what it has gathered (up to 16k events) shard by
    // shard. This stream spans several such groups across more than 8
    // shards with every layer on, so the reordering really happens and
    // must stay invisible after the shard-order merge.
    let mut base = PopulationConfig::small_test(21);
    base.num_users = 360;
    base.days = 3;
    let pop = ScenarioPopulation::new(base, ScenarioSpec::mixed());
    let mut cfg = SystemConfig::prefetch_default(9);
    pop.apply_to(&mut cfg);
    cfg.netem = NetemConfig::flaky_cellular();
    cfg.marketplace = MarketplaceConfig::paced();
    let trace = pop.generate();
    assert!(trace.ad_slots(cfg.ad_refresh).len() > 2 * 16_384);
    assert!(default_shards(trace.num_users()) >= 8);
    assert_trace_serves_like_batch(&trace, &cfg, &[1, 2, 8]);
}

#[test]
fn serve_requests_equal_the_batch_slot_count() {
    // Every slot line becomes exactly one decision: the server's
    // request counter must agree with the batch slot accounting.
    let trace = PopulationConfig::small_test(777).generate();
    let cfg = SystemConfig::prefetch_default(5);
    let batch = Simulator::run_parallel(&cfg, &trace, 2);
    let mut stream = Vec::new();
    write_events(&trace, cfg.ad_refresh, &mut stream).unwrap();
    let out = serve(&ServeOptions::new(cfg), stream.as_slice()).unwrap();
    assert_eq!(out.requests, batch.slots);
}
