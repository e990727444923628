//! The benchmark's workloads: each is a fixed configuration of the
//! simulator, built only through its public configuration API, whose
//! single free input is the workload seed.

use holdcsim::config::{ClusterConfig, CommModel, NetworkConfig, SimConfig, WanConfig};
use holdcsim::experiments::{
    delay_timer_farm, fat_tree_k_for, net_scalability_template, NET_SCALABILITY_BYTES,
    SCALABILITY_CORES, SCALABILITY_POLICY,
};
use holdcsim::prelude::{GeoPolicy, JobTemplate, SimDuration, WorkloadPreset};
use holdcsim::PolicyKind;
use holdcsim_des::rng::SimRng;
use holdcsim_network::flow::FlowSolverKind;

/// The named workloads, in the order `BENCHMARK.json` lists them, with
/// the simulated horizon of one run in milliseconds (the packet model runs
/// about 10 M events per simulated second, hence its shorter horizon).
pub const WORKLOADS: [(&str, u64); 5] = [
    ("farm", 1_000),
    ("scatter_flow", 1_000),
    ("gather_flow", 1_000),
    ("scatter_packet", 200),
    ("federation", 1_000),
];

/// Independent replications simulated per invocation: the simulated
/// metrics are their means, and the timed runs cycle through them.
pub const REPLICATIONS: u64 = 8;
/// Substream under which replication seeds derive from the workload seed.
const REPLICATION_STREAM: u64 = 0xBE7C;

/// The simulator seed of replication `k` of workload seed `seed`.
pub fn replication_seed(seed: u64, k: u64) -> u64 {
    SimRng::seed_from(seed)
        .substream_path(&[REPLICATION_STREAM, k])
        .next_u64()
}

/// Servers of the fabric workloads: a k=8 fat tree is exactly full.
pub const FABRIC_SERVERS: usize = 128;
/// Offered load of the fabric workloads, below the fabric knee.
pub const FABRIC_RHO: f64 = 0.1;
/// Fan-in of the gather workload: 32 flows converge on one downlink.
pub const GATHER_WIDTH: u32 = 32;
/// Sites of the federation workload.
pub const FED_SITES: usize = 4;
/// Servers per federation site.
pub const FED_SERVERS: usize = 256;
/// WAN link rate of the federation workload (10 Gb/s).
pub const FED_WAN_BPS: u64 = 10_000_000_000;
/// WAN one-way latency of the federation workload.
pub const FED_WAN_LATENCY: SimDuration = SimDuration::from_millis(5);

/// A runnable workload configuration.
#[derive(Debug, Clone)]
pub enum Config {
    /// One datacenter, driven by `Simulation`.
    Single(SimConfig),
    /// Several datacenters behind a WAN, driven by `Federation`.
    Federated(ClusterConfig),
}

/// One workload: its name and the simulated horizon of one run.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Simulated horizon of one run.
    pub horizon: SimDuration,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let &(name, horizon_ms) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
        Some(Workload {
            name,
            horizon: SimDuration::from_millis(horizon_ms),
        })
    }

    /// The configuration of replication `k` of workload seed `seed`.
    pub fn config(&self, seed: u64, k: u64) -> Config {
        self.config_for(replication_seed(seed, k), self.horizon)
    }

    /// The configuration for simulator seed `seed` over an explicit
    /// horizon.
    pub fn config_for(&self, seed: u64, horizon: SimDuration) -> Config {
        match self.name {
            "farm" => Config::Single(delay_timer_farm(
                WorkloadPreset::WebSearch,
                0.3,
                1024,
                4,
                0.4,
                horizon,
                seed,
            )),
            "scatter_flow" => Config::Single(fabric(
                net_scalability_template(),
                CommModel::Flow,
                horizon,
                seed,
            )),
            "gather_flow" => {
                Config::Single(fabric(gather_template(), CommModel::Flow, horizon, seed))
            }
            "scatter_packet" => Config::Single(fabric(
                net_scalability_template(),
                CommModel::Packet {
                    mtu: 1_500,
                    buffer_bytes: 1 << 20,
                },
                horizon,
                seed,
            )),
            "federation" => Config::Federated(federation(horizon, seed)),
            other => unreachable!("unknown workload {other}"),
        }
    }
}

/// The fan-in-32 gather: the scatter-gather template with 32 leaves.
fn gather_template() -> JobTemplate {
    match net_scalability_template() {
        JobTemplate::FanOutFanIn {
            root,
            leaf,
            agg,
            transfer_bytes,
            ..
        } => JobTemplate::FanOutFanIn {
            root,
            leaf,
            agg,
            width: GATHER_WIDTH,
            transfer_bytes,
        },
        other => other,
    }
}

/// The 128-server fat-tree farm of the network scalability grid at
/// `FABRIC_RHO`, with the default fair-share solver.
fn fabric(template: JobTemplate, comm: CommModel, horizon: SimDuration, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::server_farm(
        FABRIC_SERVERS,
        SCALABILITY_CORES,
        FABRIC_RHO,
        template,
        horizon,
    )
    .with_seed(seed)
    .with_policy(SCALABILITY_POLICY);
    let mut net = NetworkConfig::fat_tree(fat_tree_k_for(FABRIC_SERVERS));
    net.comm = comm;
    cfg.network = Some(net);
    cfg
}

/// Four 256-server Web-Search farms behind a 10 Gb/s, 5 ms full-mesh WAN
/// with load-balanced geo dispatch, as `holdcsim federate` builds them:
/// the aggregate arrival rate is ρ=0.3 of one site, split 2:1:1:1, and
/// every forwarded job carries a 64 KiB payload.
fn federation(horizon: SimDuration, seed: u64) -> ClusterConfig {
    let base = SimConfig::server_farm(
        FED_SERVERS,
        SCALABILITY_CORES,
        0.3,
        WorkloadPreset::WebSearch.template(),
        horizon,
    )
    .with_policy(PolicyKind::RoundRobin);
    let mut cc = ClusterConfig::uniform(
        base,
        FED_SITES,
        WanConfig::full_mesh(FED_SITES, FED_WAN_BPS, FED_WAN_LATENCY),
    )
    .with_geo(GeoPolicy::LoadBalanced)
    .with_seed(seed);
    cc.sites[0].affinity = Some(2.0);
    cc.job_bytes = NET_SCALABILITY_BYTES;
    cc
}

/// The same configuration with the reference fair-share solver (the
/// cross-arm check of the flow workloads).
pub fn with_reference_solver(cfg: &SimConfig) -> SimConfig {
    let mut cfg = cfg.clone();
    if let Some(net) = &mut cfg.network {
        net.flow_solver = FlowSolverKind::Reference;
    }
    cfg
}
