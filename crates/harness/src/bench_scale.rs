//! The `bench-scale` harness: the Table I scalability configuration swept
//! across farm sizes, measured in wall-clock events/second and written to
//! `BENCH_scalability.json` so every PR leaves a performance trajectory
//! the next one has to beat.
//!
//! The grid points run the same configuration as
//! [`holdcsim::experiments::scalability`]: a server-only farm of
//! 4-core servers at ρ = 0.3 under the Web-Search preset with round-robin
//! dispatch — the event-rate stress case (no network events to hide
//! behind, one arrival + one completion per job).

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use holdcsim::config::{ClusterConfig, CommModel, SimConfig, WanConfig};
use holdcsim::experiments::{
    net_incast, net_scalability, net_scalability_config, scalability, NetScalabilityPoint,
    ScalabilityPoint, NET_SCALABILITY_BYTES, NET_SCALABILITY_FANOUT, NET_SCALABILITY_RHO,
    SCALABILITY_CORES, SCALABILITY_POLICY, SCALABILITY_PRESET, SCALABILITY_RHO,
};
use holdcsim::export::JsonObj;
use holdcsim::sim::Simulation;
use holdcsim_cluster::Federation;
use holdcsim_des::time::SimDuration;
use holdcsim_faults::FaultPlan;
use holdcsim_network::flow::FlowSolverKind;
use holdcsim_obs::FingerprintConfig;
use holdcsim_sched::geo::GeoPolicy;

/// The default farm sizes of the recorded baseline.
pub const DEFAULT_SIZES: &[usize] = &[16, 128, 1024];

/// The default simulated horizon per grid point.
pub const DEFAULT_DURATION: SimDuration = SimDuration::from_secs(2);

/// The default farm sizes of the network-heavy grid (fat trees of
/// k = 4 and k = 8).
pub const DEFAULT_NET_SIZES: &[usize] = &[16, 128];

/// The default simulated horizon per network-heavy point (network events
/// are ~three orders of magnitude denser than the server-only grid's).
pub const DEFAULT_NET_DURATION: SimDuration = SimDuration::from_millis(200);

/// The default federation site counts of the multi-datacenter grid.
pub const DEFAULT_CLUSTERS: &[usize] = &[2, 4];

/// The default per-site farm size of the multi-datacenter grid.
pub const DEFAULT_CLUSTER_SERVERS: usize = 16;

/// WAN link rate of the federation grid (10 Gb/s inter-cluster trunks).
pub const CLUSTER_WAN_BPS: u64 = 10_000_000_000;

/// WAN one-way latency of the federation grid.
pub const CLUSTER_WAN_LATENCY: SimDuration = SimDuration::from_millis(5);

/// Configuration for one bench-scale run.
#[derive(Debug, Clone)]
pub struct BenchScaleConfig {
    /// Farm sizes to sweep.
    pub sizes: Vec<usize>,
    /// Simulated horizon per size.
    pub duration: SimDuration,
    /// Farm sizes of the network-heavy grid (empty = skip the network
    /// arms).
    pub net_sizes: Vec<usize>,
    /// Simulated horizon per network-heavy point.
    pub net_duration: SimDuration,
    /// Site counts of the multi-datacenter federation grid (empty =
    /// skip the federation arms).
    pub clusters: Vec<usize>,
    /// Servers per site in the federation grid.
    pub cluster_servers: usize,
    /// Simulated horizon per federation point.
    pub cluster_duration: SimDuration,
    /// Fair-share solver arms of the flow comm model: the default runs
    /// the cohort-cell production solver and the reference solver
    /// interleaved (A/B on the same grid) and asserts their reports are
    /// byte-identical. The same arms drive the incast stress grid.
    pub flow_solvers: Vec<FlowSolverKind>,
    /// Re-run the network grid with determinism fingerprinting on and
    /// report the observability overhead per point.
    pub obs_overhead: bool,
    /// Re-run the Table I grid under a fault plan and record
    /// availability and clean-vs-affected tail latency per size.
    /// `Some("default")` uses a canned crash-storm scaled to each farm;
    /// any other value is a plan spec or file. `None` skips the arm
    /// (`fault_points` stays an empty array).
    pub faults: Option<String>,
    /// Root seed.
    pub seed: u64,
    /// Repetitions per size; the *best* wall-clock time is kept, the
    /// standard way to suppress scheduler noise in throughput baselines.
    pub repeats: usize,
    /// Output path of the JSON baseline.
    pub out: PathBuf,
}

impl Default for BenchScaleConfig {
    fn default() -> Self {
        BenchScaleConfig {
            sizes: DEFAULT_SIZES.to_vec(),
            duration: DEFAULT_DURATION,
            net_sizes: DEFAULT_NET_SIZES.to_vec(),
            net_duration: DEFAULT_NET_DURATION,
            clusters: DEFAULT_CLUSTERS.to_vec(),
            cluster_servers: DEFAULT_CLUSTER_SERVERS,
            cluster_duration: DEFAULT_NET_DURATION,
            flow_solvers: vec![FlowSolverKind::Cohort, FlowSolverKind::Reference],
            obs_overhead: false,
            faults: Some("default".to_string()),
            seed: 42,
            repeats: 3,
            out: PathBuf::from("BENCH_scalability.json"),
        }
    }
}

/// One observability-overhead measurement: a network grid point re-run
/// with determinism fingerprinting on (the always-on-capable capability a
/// debugging workflow would leave enabled).
#[derive(Debug, Clone, Copy)]
pub struct ObsOverheadPoint {
    /// Simulated servers.
    pub servers: usize,
    /// Communication model of this arm (`"flow"` or `"packet"`).
    pub comm: &'static str,
    /// Engine events processed.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Events per wall-clock second.
    pub events_per_s: f64,
}

/// Runs the network-heavy grid with fingerprinting on: the same fabric as
/// `net_scalability` (default flow solver and packet arms), measured
/// so the `obs_points` section can be compared against `network_points`
/// for the overhead gate.
pub fn obs_scalability(sizes: &[usize], duration: SimDuration, seed: u64) -> Vec<ObsOverheadPoint> {
    let packet = CommModel::Packet {
        mtu: 1_500,
        buffer_bytes: 1 << 20,
    };
    let mut points = Vec::with_capacity(sizes.len() * 2);
    for &servers in sizes {
        for (comm, label) in [(CommModel::Flow, "flow"), (packet, "packet")] {
            let mut cfg = net_scalability_config(servers, comm, duration, seed);
            cfg.obs.fingerprint = Some(FingerprintConfig::default());
            let (report, _arts) = Simulation::new(cfg).run_with_obs();
            points.push(ObsOverheadPoint {
                servers,
                comm: label,
                events: report.events_processed,
                wall_s: report.wall_s,
                events_per_s: report.events_per_sec(),
            });
        }
    }
    points
}

/// One fault-grid measurement: the Table I configuration re-run under a
/// fault plan, so the baseline tracks both the event-rate cost of the
/// fault machinery and the availability / tail-latency signal it reports.
#[derive(Debug, Clone, Copy)]
pub struct FaultScalabilityPoint {
    /// Simulated servers.
    pub servers: usize,
    /// Engine events processed.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Events per wall-clock second.
    pub events_per_s: f64,
    /// Server availability over the horizon.
    pub availability: f64,
    /// p99 sojourn of jobs never touched by a fault.
    pub clean_p99_s: f64,
    /// p99 sojourn of jobs that survived at least one retry.
    pub affected_p99_s: f64,
    /// Distinct jobs that saw at least one retry.
    pub jobs_retried: u64,
    /// Jobs abandoned after exhausting the retry budget.
    pub jobs_abandoned: u64,
}

/// The canned `--faults default` plan for a farm of `servers`: a crash
/// wave over the first half of the horizon (one crash per eighth of the
/// farm, capped at 8, each down a tenth of the run) plus one MTBF arm,
/// under the default retry policy. Pure arithmetic on (servers,
/// duration), so the same grid point always gets the same plan.
pub fn default_fault_spec(servers: usize, duration: SimDuration) -> String {
    let d_ms = duration.as_secs_f64() * 1e3;
    let crashes = (servers / 8).clamp(1, 8);
    let step_ms = d_ms * 0.5 / crashes as f64;
    let down_ms = d_ms * 0.1;
    let mut spec = String::new();
    for i in 0..crashes {
        let sid = i * servers / crashes;
        let at = d_ms * 0.1 + i as f64 * step_ms;
        let _ = write!(
            spec,
            "crash@{at:.3}ms:{sid}; recover@{:.3}ms:{sid}; ",
            at + down_ms
        );
    }
    let _ = write!(
        spec,
        "mtbf:server={},mtbf={:.3}ms,mttr={:.3}ms",
        servers / 2,
        d_ms * 0.4,
        d_ms * 0.05
    );
    spec
}

/// Runs the Table I grid under `spec` (`"default"` = [`default_fault_spec`]
/// per size) and measures throughput plus the resilience headline numbers.
#[allow(clippy::disallowed_methods)] // events/s vs wall-clock is the subject
pub fn fault_scalability(
    sizes: &[usize],
    duration: SimDuration,
    seed: u64,
    spec: &str,
) -> Vec<FaultScalabilityPoint> {
    let mut points = Vec::with_capacity(sizes.len());
    for &servers in sizes {
        let plan = if spec == "default" {
            FaultPlan::parse(&default_fault_spec(servers, duration))
                .expect("canned fault spec parses")
        } else {
            holdcsim_faults::load_plan(spec).expect("fault spec validated by the CLI")
        };
        let mut cfg = SimConfig::server_farm(
            servers,
            SCALABILITY_CORES,
            SCALABILITY_RHO,
            SCALABILITY_PRESET.template(),
            duration,
        )
        .with_seed(seed)
        .with_policy(SCALABILITY_POLICY);
        cfg.faults = Some(plan);
        let report = Simulation::new(cfg).run();
        let r = report
            .resilience
            .as_ref()
            .expect("fault runs always report resilience");
        points.push(FaultScalabilityPoint {
            servers,
            events: report.events_processed,
            wall_s: report.wall_s,
            events_per_s: report.events_per_sec(),
            availability: r.availability,
            clean_p99_s: r.clean.p99,
            affected_p99_s: r.affected.p99,
            jobs_retried: r.jobs_retried,
            jobs_abandoned: r.jobs_abandoned,
        });
    }
    points
}

/// One federation scalability measurement.
#[derive(Debug, Clone, Copy)]
pub struct FedScalabilityPoint {
    /// Federation sites.
    pub sites: usize,
    /// Servers per site.
    pub servers_per_site: usize,
    /// Site-fabric communication model of this arm (`"flow"` or
    /// `"packet"`).
    pub comm: &'static str,
    /// Engine events processed across all sites.
    pub events: u64,
    /// Jobs completed across the federation.
    pub jobs: u64,
    /// Jobs forwarded over the WAN.
    pub forwarded: u64,
    /// Wall-clock seconds of the federated run.
    pub wall_s: f64,
    /// Events per wall-clock second.
    pub events_per_s: f64,
}

/// The federation configuration of one grid point: `sites` copies of the
/// network scalability fabric behind a full-mesh 10 Gb/s / 5 ms WAN,
/// load-balanced dispatch, and a skewed affinity mix (site 0 serves a
/// double share) so cross-site forwarding genuinely exercises the WAN.
pub fn fed_cluster_config(
    sites: usize,
    servers_per_site: usize,
    comm: CommModel,
    duration: SimDuration,
    seed: u64,
) -> ClusterConfig {
    let base = net_scalability_config(servers_per_site, comm, duration, seed);
    let mut cc = ClusterConfig::uniform(
        base,
        sites,
        WanConfig::full_mesh(sites, CLUSTER_WAN_BPS, CLUSTER_WAN_LATENCY),
    )
    .with_geo(GeoPolicy::LoadBalanced)
    .with_seed(seed);
    cc.job_bytes = NET_SCALABILITY_BYTES;
    cc.sites[0].affinity = Some(2.0);
    cc
}

/// The multi-datacenter companion to `net_scalability`: the same fabric
/// federated at each site count, once per communication model, measured
/// in federation-wide events per wall-clock second.
#[allow(clippy::disallowed_methods)] // events/s vs wall-clock is the subject
pub fn fed_scalability(
    site_counts: &[usize],
    servers_per_site: usize,
    duration: SimDuration,
    seed: u64,
) -> Vec<FedScalabilityPoint> {
    let packet = CommModel::Packet {
        mtu: 1_500,
        buffer_bytes: 1 << 20,
    };
    let mut points = Vec::with_capacity(site_counts.len() * 2);
    for &sites in site_counts {
        for (comm, label) in [(CommModel::Flow, "flow"), (packet, "packet")] {
            let cc = fed_cluster_config(sites, servers_per_site, comm, duration, seed);
            let t0 = Instant::now();
            let report = Federation::new(&cc).run();
            let wall = t0.elapsed().as_secs_f64();
            points.push(FedScalabilityPoint {
                sites,
                servers_per_site,
                comm: label,
                events: report.events_processed,
                jobs: report.jobs_completed(),
                forwarded: report.jobs_forwarded(),
                wall_s: wall,
                events_per_s: report.events_processed as f64 / wall.max(1e-9),
            });
        }
    }
    points
}

/// Renders the `BENCH_scalability.json` document for `points` (the
/// server-only grid) and `net_points` (the network-heavy grid).
///
/// Schema (one object; see README "Performance baseline" for the field
/// glossary):
///
/// ```json
/// {
///   "bench": "scalability",
///   "config": {"cores_per_server": 4, "rho": 0.3, "preset": "web-search",
///              "policy": "round-robin", "sim_duration_s": 2.0,
///              "seed": 42, "repeats": 3,
///              "network": {"rho": 0.3, "fanout": 8, "edge_bytes": 65536,
///                          "sim_duration_s": 0.2},
///              "federation": {"servers_per_site": 16,
///                             "wan_bps": 10000000000, "wan_latency_s": 0.005,
///                             "geo": "load-balanced", "sim_duration_s": 0.2}},
///   "points": [
///     {"servers": 16, "events": 15169, "jobs": 7583,
///      "wall_s": 0.004, "events_per_s": 3490224.0},
///     ...
///   ],
///   "network_points": [
///     {"servers": 16, "comm": "flow", "events": 120000, "jobs": 800,
///      "wall_s": 0.05, "events_per_s": 2400000.0},
///     ...
///   ],
///   "federation_points": [
///     {"sites": 2, "servers_per_site": 16, "comm": "flow",
///      "events": 240000, "jobs": 1500, "forwarded": 300,
///      "wall_s": 0.1, "events_per_s": 2400000.0},
///     ...
///   ],
///   "fault_points": [
///     {"servers": 16, "events": 15300, "wall_s": 0.005,
///      "events_per_s": 3060000.0, "availability": 0.96,
///      "clean_p99_s": 0.02, "affected_p99_s": 0.15,
///      "jobs_retried": 40, "jobs_abandoned": 0},
///     ...
///   ]
/// }
/// ```
pub fn render_json(
    cfg: &BenchScaleConfig,
    points: &[ScalabilityPoint],
    net_points: &[NetScalabilityPoint],
    fed_points: &[FedScalabilityPoint],
    obs_points: &[ObsOverheadPoint],
    fault_points: &[FaultScalabilityPoint],
) -> String {
    // The config block mirrors the actual Table I constants so the
    // committed baseline can never drift from what was measured.
    let policy = match SCALABILITY_POLICY {
        holdcsim::config::PolicyKind::RoundRobin => "round-robin",
        holdcsim::config::PolicyKind::LeastLoaded => "least-loaded",
        holdcsim::config::PolicyKind::PackFirst => "pack-first",
        holdcsim::config::PolicyKind::Random => "random",
        holdcsim::config::PolicyKind::NetworkAware => "network-aware",
    };
    let network = JsonObj::new()
        .num("rho", NET_SCALABILITY_RHO)
        .int("fanout", u64::from(NET_SCALABILITY_FANOUT))
        .int("edge_bytes", NET_SCALABILITY_BYTES)
        .num("sim_duration_s", cfg.net_duration.as_secs_f64())
        .finish();
    let federation = JsonObj::new()
        .int("servers_per_site", cfg.cluster_servers as u64)
        .int("wan_bps", CLUSTER_WAN_BPS)
        .num("wan_latency_s", CLUSTER_WAN_LATENCY.as_secs_f64())
        .str("geo", "load-balanced")
        .num("sim_duration_s", cfg.cluster_duration.as_secs_f64())
        .finish();
    let config = JsonObj::new()
        .int("cores_per_server", u64::from(SCALABILITY_CORES))
        .num("rho", SCALABILITY_RHO)
        .str(
            "preset",
            &format!("{SCALABILITY_PRESET}")
                .to_lowercase()
                .replace(' ', "-"),
        )
        .str("policy", policy)
        .num("sim_duration_s", cfg.duration.as_secs_f64())
        .int("seed", cfg.seed)
        .int("repeats", cfg.repeats as u64)
        .raw("network", &network)
        .raw("federation", &federation)
        .finish();
    let mut rows = String::from("[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        let row = JsonObj::new()
            .int("servers", p.servers as u64)
            .int("events", p.events)
            .int("jobs", p.jobs)
            .num("wall_s", p.wall_s)
            .num("events_per_s", p.events_per_s)
            .finish();
        let _ = write!(rows, "{row}");
    }
    rows.push(']');
    let mut net_rows = String::from("[");
    for (i, p) in net_points.iter().enumerate() {
        if i > 0 {
            net_rows.push(',');
        }
        let row = JsonObj::new()
            .int("servers", p.servers as u64)
            .str("comm", p.comm)
            .int("events", p.events)
            .int("jobs", p.jobs)
            .int("flows", p.flows)
            .num("wall_s", p.wall_s)
            .num("events_per_s", p.events_per_s)
            .finish();
        let _ = write!(net_rows, "{row}");
    }
    net_rows.push(']');
    let mut fed_rows = String::from("[");
    for (i, p) in fed_points.iter().enumerate() {
        if i > 0 {
            fed_rows.push(',');
        }
        let row = JsonObj::new()
            .int("sites", p.sites as u64)
            .int("servers_per_site", p.servers_per_site as u64)
            .str("comm", p.comm)
            .int("events", p.events)
            .int("jobs", p.jobs)
            .int("forwarded", p.forwarded)
            .num("wall_s", p.wall_s)
            .num("events_per_s", p.events_per_s)
            .finish();
        let _ = write!(fed_rows, "{row}");
    }
    fed_rows.push(']');
    let mut obs_rows = String::from("[");
    for (i, p) in obs_points.iter().enumerate() {
        if i > 0 {
            obs_rows.push(',');
        }
        // Overhead relative to the matching obs-off network point (the
        // production `flow` arm or `packet`), when that arm was run.
        let base = net_points
            .iter()
            .find(|n| n.servers == p.servers && n.comm == p.comm);
        let mut row = JsonObj::new()
            .int("servers", p.servers as u64)
            .str("comm", p.comm)
            .int("events", p.events)
            .num("wall_s", p.wall_s)
            .num("events_per_s", p.events_per_s);
        if let Some(b) = base {
            row = row.num(
                "overhead_pct",
                (b.events_per_s / p.events_per_s.max(1e-9) - 1.0) * 100.0,
            );
        }
        let _ = write!(obs_rows, "{}", row.finish());
    }
    obs_rows.push(']');
    // `fault_points` is always present (empty when the arm is skipped)
    // so downstream schema greps never depend on the config.
    let mut fault_rows = String::from("[");
    for (i, p) in fault_points.iter().enumerate() {
        if i > 0 {
            fault_rows.push(',');
        }
        let row = JsonObj::new()
            .int("servers", p.servers as u64)
            .int("events", p.events)
            .num("wall_s", p.wall_s)
            .num("events_per_s", p.events_per_s)
            .num("availability", p.availability)
            .num("clean_p99_s", p.clean_p99_s)
            .num("affected_p99_s", p.affected_p99_s)
            .int("jobs_retried", p.jobs_retried)
            .int("jobs_abandoned", p.jobs_abandoned)
            .finish();
        let _ = write!(fault_rows, "{row}");
    }
    fault_rows.push(']');
    let doc = JsonObj::new()
        .str("bench", "scalability")
        .raw("config", &config)
        .raw("points", &rows)
        .raw("network_points", &net_rows)
        .raw("federation_points", &fed_rows)
        .raw("obs_points", &obs_rows)
        .raw("fault_points", &fault_rows)
        .finish();
    format!("{doc}\n")
}

/// Runs the sweep, keeping the best wall-clock repetition per grid point.
#[allow(clippy::type_complexity)]
pub fn measure(
    cfg: &BenchScaleConfig,
) -> (
    Vec<ScalabilityPoint>,
    Vec<NetScalabilityPoint>,
    Vec<FedScalabilityPoint>,
    Vec<ObsOverheadPoint>,
    Vec<FaultScalabilityPoint>,
) {
    let mut best: Vec<ScalabilityPoint> = Vec::with_capacity(cfg.sizes.len());
    let mut net_best: Vec<NetScalabilityPoint> = Vec::new();
    let mut fed_best: Vec<FedScalabilityPoint> = Vec::new();
    let mut obs_best: Vec<ObsOverheadPoint> = Vec::new();
    let mut fault_best: Vec<FaultScalabilityPoint> = Vec::new();
    for rep in 0..cfg.repeats.max(1) {
        let pts = scalability(&cfg.sizes, cfg.duration, cfg.seed);
        let mut net_pts = net_scalability(
            &cfg.net_sizes,
            cfg.net_duration,
            cfg.seed,
            &cfg.flow_solvers,
        );
        net_pts.extend(net_incast(
            &cfg.net_sizes,
            cfg.net_duration,
            cfg.seed,
            &cfg.flow_solvers,
        ));
        let fed_pts = fed_scalability(
            &cfg.clusters,
            cfg.cluster_servers,
            cfg.cluster_duration,
            cfg.seed,
        );
        let obs_pts = if cfg.obs_overhead {
            obs_scalability(&cfg.net_sizes, cfg.net_duration, cfg.seed)
        } else {
            Vec::new()
        };
        let fault_pts = match &cfg.faults {
            Some(spec) => fault_scalability(&cfg.sizes, cfg.duration, cfg.seed, spec),
            None => Vec::new(),
        };
        if rep == 0 {
            best = pts;
            net_best = net_pts;
            fed_best = fed_pts;
            obs_best = obs_pts;
            fault_best = fault_pts;
            continue;
        }
        for (b, p) in best.iter_mut().zip(pts) {
            debug_assert_eq!(b.events, p.events, "same seed, same event count");
            if p.wall_s < b.wall_s {
                *b = p;
            }
        }
        for (b, p) in net_best.iter_mut().zip(net_pts) {
            debug_assert_eq!(b.events, p.events, "same seed, same event count");
            if p.wall_s < b.wall_s {
                *b = p;
            }
        }
        for (b, p) in fed_best.iter_mut().zip(fed_pts) {
            debug_assert_eq!(b.events, p.events, "same seed, same event count");
            if p.wall_s < b.wall_s {
                *b = p;
            }
        }
        for (b, p) in obs_best.iter_mut().zip(obs_pts) {
            debug_assert_eq!(b.events, p.events, "same seed, same event count");
            if p.wall_s < b.wall_s {
                *b = p;
            }
        }
        for (b, p) in fault_best.iter_mut().zip(fault_pts) {
            debug_assert_eq!(b.events, p.events, "same seed, same event count");
            if p.wall_s < b.wall_s {
                *b = p;
            }
        }
    }
    (best, net_best, fed_best, obs_best, fault_best)
}

/// Runs bench-scale and writes the baseline file; returns its path.
pub fn run_bench_scale(cfg: &BenchScaleConfig) -> io::Result<PathBuf> {
    eprintln!(
        "[bench-scale] sizes {:?} ({} each), network sizes {:?} ({} each), \
         clusters {:?} ({} servers/site, {} each), {} repeats",
        cfg.sizes,
        cfg.duration,
        cfg.net_sizes,
        cfg.net_duration,
        cfg.clusters,
        cfg.cluster_servers,
        cfg.cluster_duration,
        cfg.repeats
    );
    let (points, net_points, fed_points, obs_points, fault_points) = measure(cfg);
    for p in &points {
        eprintln!(
            "[bench-scale] {:>6} servers: {:>9} events in {:.3} s -> {:.0} events/s",
            p.servers, p.events, p.wall_s, p.events_per_s
        );
    }
    for p in &net_points {
        eprintln!(
            "[bench-scale] {:>6} servers ({:>6}): {:>9} events in {:.3} s -> {:.0} events/s",
            p.servers, p.comm, p.events, p.wall_s, p.events_per_s
        );
    }
    for p in &fed_points {
        eprintln!(
            "[bench-scale] {:>2} sites x {} ({:>6}): {:>9} events ({} fwd) in {:.3} s -> {:.0} events/s",
            p.sites,
            p.servers_per_site,
            p.comm,
            p.events,
            p.forwarded,
            p.wall_s,
            p.events_per_s,
        );
    }
    for p in &obs_points {
        let base = net_points
            .iter()
            .find(|n| n.servers == p.servers && n.comm == p.comm);
        let overhead = base
            .map(|b| {
                format!(
                    " ({:+.1}%)",
                    (b.events_per_s / p.events_per_s.max(1e-9) - 1.0) * 100.0
                )
            })
            .unwrap_or_default();
        eprintln!(
            "[bench-scale] {:>6} servers ({:>6}, +fp): {:>9} events in {:.3} s -> {:.0} events/s{overhead}",
            p.servers, p.comm, p.events, p.wall_s, p.events_per_s
        );
    }
    for p in &fault_points {
        eprintln!(
            "[bench-scale] {:>6} servers (faults): {:>9} events in {:.3} s -> {:.0} events/s \
             ({:.4}% avail, clean p99 {:.1} ms, affected p99 {:.1} ms, {} retried, {} abandoned)",
            p.servers,
            p.events,
            p.wall_s,
            p.events_per_s,
            p.availability * 100.0,
            p.clean_p99_s * 1e3,
            p.affected_p99_s * 1e3,
            p.jobs_retried,
            p.jobs_abandoned
        );
    }
    write_baseline(
        &cfg.out,
        cfg,
        &points,
        &net_points,
        &fed_points,
        &obs_points,
        &fault_points,
    )?;
    Ok(cfg.out.clone())
}

/// Writes the rendered baseline to `path`.
pub fn write_baseline(
    path: &Path,
    cfg: &BenchScaleConfig,
    points: &[ScalabilityPoint],
    net_points: &[NetScalabilityPoint],
    fed_points: &[FedScalabilityPoint],
    obs_points: &[ObsOverheadPoint],
    fault_points: &[FaultScalabilityPoint],
) -> io::Result<()> {
    std::fs::write(
        path,
        render_json(
            cfg,
            points,
            net_points,
            fed_points,
            obs_points,
            fault_points,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchScaleConfig {
        BenchScaleConfig {
            sizes: vec![4],
            duration: SimDuration::from_millis(50),
            net_sizes: vec![4],
            net_duration: SimDuration::from_millis(20),
            clusters: vec![2],
            cluster_servers: 4,
            cluster_duration: SimDuration::from_millis(20),
            flow_solvers: vec![FlowSolverKind::Cohort, FlowSolverKind::Reference],
            obs_overhead: true,
            faults: Some("default".to_string()),
            seed: 7,
            repeats: 2,
            out: std::env::temp_dir().join(format!("BENCH_test_{}.json", std::process::id())),
        }
    }

    #[test]
    fn measure_keeps_event_counts_stable() {
        let cfg = tiny();
        let (pts, net_pts, fed_pts, obs_pts, fault_pts) = measure(&cfg);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].events > 0);
        assert!(pts[0].events_per_s > 0.0);
        // Two flow solver arms and one packet arm per network size,
        // plus the two-arm incast stress grid.
        assert_eq!(net_pts.len(), 5);
        assert_eq!(
            net_pts.iter().map(|p| p.comm).collect::<Vec<_>>(),
            ["flow", "flow-ref", "packet", "incast", "incast-ref"]
        );
        assert!(net_pts.iter().all(|p| p.events > 0));
        // The A/B arms completed the very same flows (also asserted
        // inside `net_scalability`, which would have panicked).
        assert_eq!(net_pts[0].flows, net_pts[1].flows);
        assert_eq!(net_pts[3].flows, net_pts[4].flows);
        assert!(net_pts[0].flows > 0, "transfers really flowed");
        assert!(net_pts[3].flows > 0, "incast transfers really flowed");
        assert!(
            net_pts[2].events > net_pts[0].events,
            "packetized transfers generate more events than flows"
        );
        // One flow and one packet federation arm per site count.
        assert_eq!(fed_pts.len(), 2);
        assert_eq!((fed_pts[0].comm, fed_pts[1].comm), ("flow", "packet"));
        assert!(fed_pts.iter().all(|p| p.events > 0 && p.sites == 2));
        assert!(fed_pts.iter().all(|p| p.wall_s > 0.0));
        // One fingerprinting arm per network point, same event stream.
        assert_eq!(obs_pts.len(), 2);
        assert_eq!((obs_pts[0].comm, obs_pts[1].comm), ("flow", "packet"));
        assert_eq!(obs_pts[0].events, net_pts[0].events);
        assert_eq!(obs_pts[1].events, net_pts[2].events);
        // One fault arm per size; the canned storm really injects.
        assert_eq!(fault_pts.len(), 1);
        assert!(fault_pts[0].events > 0);
        assert!(fault_pts[0].availability > 0.0 && fault_pts[0].availability < 1.0);
    }

    #[test]
    fn faultless_config_renders_empty_fault_points() {
        let mut cfg = tiny();
        cfg.faults = None;
        cfg.repeats = 1;
        let fault_pts = match &cfg.faults {
            Some(spec) => fault_scalability(&cfg.sizes, cfg.duration, cfg.seed, spec),
            None => Vec::new(),
        };
        let json = render_json(&cfg, &[], &[], &[], &[], &fault_pts);
        assert!(json.contains("\"fault_points\":[]"));
    }

    #[test]
    fn json_has_schema_fields() {
        let cfg = tiny();
        let (pts, net_pts, fed_pts, obs_pts, fault_pts) = measure(&cfg);
        let json = render_json(&cfg, &pts, &net_pts, &fed_pts, &obs_pts, &fault_pts);
        for key in [
            "\"bench\":\"scalability\"",
            "\"config\":",
            "\"network\":",
            "\"fanout\":",
            "\"edge_bytes\":",
            "\"federation\":",
            "\"wan_bps\":",
            "\"points\":",
            "\"network_points\":",
            "\"federation_points\":",
            "\"servers\":4",
            "\"comm\":\"flow\"",
            "\"comm\":\"flow-ref\"",
            "\"comm\":\"packet\"",
            "\"flows\":",
            "\"sites\":2",
            "\"servers_per_site\":4",
            "\"forwarded\":",
            "\"events\":",
            "\"events_per_s\":",
            "\"wall_s\":",
            "\"obs_points\":",
            "\"overhead_pct\":",
            "\"fault_points\":",
            "\"availability\":",
            "\"clean_p99_s\":",
            "\"affected_p99_s\":",
            "\"jobs_retried\":",
            "\"jobs_abandoned\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn writes_baseline_file() {
        let cfg = tiny();
        let path = run_bench_scale(&cfg).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"bench\":\"scalability\""));
        let _ = std::fs::remove_file(path);
    }
}
