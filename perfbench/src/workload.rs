//! The three workloads: what each one generates and how it is configured.
//!
//! Every input is a pure function of the trace seed (`--seed`); the
//! system config seed is fixed at [`CONFIG_SEED`]. The program under test
//! receives only the generated trace (or its serialized event stream) and
//! the config.

use adpf_auction::MarketplaceConfig;
use adpf_core::{default_shards, SystemConfig};
use adpf_netem::NetemConfig;
use adpf_scenario::{ScenarioPopulation, ScenarioSpec};
use adpf_traces::{PopulationConfig, Trace};

/// Seed of every `SystemConfig` the benchmark builds (campaign catalog,
/// bid streams, fault injection). Only the trace seed varies.
pub const CONFIG_SEED: u64 = 1;

/// Worker threads of every batch and streaming pass.
pub const BATCH_THREADS: usize = 2;

/// Decision workers of every serve session; the router is the calling
/// thread, so a session occupies two threads in all.
pub const SERVE_WORKERS: usize = 1;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's realtime-versus-prefetch comparison over a
    /// materialized iPhone-like population.
    BatchPaper,
    /// A large, short, mixed-device population streamed shard by shard
    /// with netem and a paced marketplace on.
    StreamStress,
    /// The serialized event stream replayed through the online server.
    ServeOpen,
}

/// Population size of a workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub users: u32,
    pub days: u32,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BatchPaper,
        Workload::StreamStress,
        Workload::ServeOpen,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchPaper => "batch-paper",
            Workload::StreamStress => "stream-stress",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// The size the benchmark measures.
    pub fn full_size(self) -> Size {
        match self {
            Workload::BatchPaper => Size {
                users: 5_000,
                days: 7,
            },
            Workload::StreamStress => Size {
                users: 20_000,
                days: 2,
            },
            Workload::ServeOpen => Size {
                users: 5_000,
                days: 2,
            },
        }
    }
}

/// A workload at one size and trace seed: everything needed to build
/// its inputs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
}

impl Spec {
    pub fn new(workload: Workload, size: Size, seed: u64) -> Self {
        Self {
            workload,
            size,
            seed,
        }
    }

    /// The iPhone-like base population at this size.
    pub fn population(&self) -> PopulationConfig {
        let mut p = PopulationConfig::iphone_like(self.seed);
        p.num_users = self.size.users;
        p.days = self.size.days;
        p
    }

    /// The mixed-device population of `stream-stress`; `None` elsewhere.
    pub fn scenario(&self) -> Option<ScenarioPopulation> {
        (self.workload == Workload::StreamStress)
            .then(|| ScenarioPopulation::new(self.population(), ScenarioSpec::mixed()))
    }

    /// The prefetch-mode config of this workload.
    pub fn prefetch_config(&self) -> SystemConfig {
        self.finish(SystemConfig::prefetch_default(CONFIG_SEED))
    }

    /// The realtime-mode config the prefetch run is compared against:
    /// identical except for the delivery mode.
    pub fn realtime_config(&self) -> SystemConfig {
        self.finish(SystemConfig::realtime(CONFIG_SEED))
    }

    fn finish(&self, mut cfg: SystemConfig) -> SystemConfig {
        if let Some(pop) = self.scenario() {
            pop.apply_to(&mut cfg);
            cfg.netem = NetemConfig::parse_preset("flaky").expect("`flaky` is a netem preset");
            cfg.marketplace =
                MarketplaceConfig::parse_regime("paced").expect("`paced` is a marketplace regime");
        }
        if let Err(reason) = cfg.validate() {
            panic!("workload config is invalid: {reason}");
        }
        cfg
    }

    /// Shard count of every sharded pass, derived exactly as
    /// `Simulator::run_parallel` derives it.
    pub fn shards(&self) -> usize {
        default_shards(self.size.users)
    }

    /// Materializes the whole population (not used by `stream-stress`,
    /// whose population is only ever generated shard by shard).
    pub fn generate(&self) -> Trace {
        self.population().generate_parallel(BATCH_THREADS)
    }
}
