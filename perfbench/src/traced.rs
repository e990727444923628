//! The traced run: per-layer numbers from spans the benchmark records
//! around its calls into each layer, the simulator's own per-event-kind
//! profiler and metrics probes, and the cross-arm identity checks.

use std::hint::black_box;
use std::time::{Duration, Instant};

use holdcsim::experiments::fat_tree_k_for;
use holdcsim::prelude::SimDuration;
use holdcsim::{
    ClusterConfig, CommModel, NetworkReport, ServerReport, SimConfig, SimReport, Simulation,
};
use holdcsim_cluster::{Federation, FederationReport};
use holdcsim_network::topologies::{fat_tree, LinkSpec};
use holdcsim_network::Router;
use holdcsim_obs::{MetricsConfig, ObsArtifacts, ObsConfig, ProfileConfig};

use crate::checks::{growth_problem, run_sliced, slice_growth, Outcome, Tally};
use crate::workloads::{with_reference_solver, Config, Workload, FABRIC_SERVERS};
use crate::{median, Json};

/// Profiler sampling: 1 in this many events is timed.
const PROFILE_SAMPLE: u32 = 16;
/// Probe sampling period in simulated time.
const PROBE_PERIOD: SimDuration = SimDuration::from_millis(1);
/// Traced/untraced run pairs made even when the time budget is spent.
const MIN_PAIRS: usize = 2;
/// Fat-tree builds timed for `network.topology_build_s`.
const TOPOLOGY_BUILDS: usize = 5;

/// Event kinds reported per layer, with the metric name of each.
const KIND_METRICS: [(&str, &str); 11] = [
    ("JobArrival", "sched.JobArrival_ns"),
    ("ControllerTick", "sched.ControllerTick_ns"),
    ("TaskComplete", "server.TaskComplete_ns"),
    ("ServerTimer", "server.ServerTimer_ns"),
    ("ServerTransition", "server.ServerTransition_ns"),
    ("FlowsAdvance", "network.FlowsAdvance_ns"),
    ("FlowAdmit", "network.FlowAdmit_ns"),
    ("PacketArrive", "network.PacketArrive_ns"),
    ("PacketRetry", "network.PacketRetry_ns"),
    ("LpiCheck", "network.LpiCheck_ns"),
    ("RemoteJobArrive", "cluster.RemoteJobArrive_ns"),
];

/// Probes reported as means, with the metric name of each.
const PROBE_METRICS: [(&str, &str); 4] = [
    ("awake_servers", "server.awake_mean"),
    ("active_flows", "network.active_flows_mean"),
    ("flow_dirty_set", "network.flow_dirty_set_mean"),
    ("packets_in_flight", "network.packets_in_flight_mean"),
];

/// Host time and count of one event kind, summed over sites.
struct KindCost {
    name: String,
    count: u64,
    ns: f64,
}

/// Per-kind costs from the profiler's table: name, count and mean host
/// ns per event, the latter read from the events/s column, which carries
/// more digits than the rounded ns column.
fn kind_costs(obs: &[ObsArtifacts]) -> Vec<KindCost> {
    let mut out: Vec<KindCost> = Vec::new();
    for table in obs.iter().filter_map(ObsArtifacts::profile_table) {
        for line in table.lines().skip(2) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [name, count, _, ns, _, _, evps] = f[..] else {
                continue;
            };
            let count: u64 = count.parse().unwrap_or(0);
            let evps: f64 = evps.parse().unwrap_or(0.0);
            let ns = if evps > 0.0 {
                1e9 / evps
            } else {
                ns.parse().unwrap_or(0.0)
            };
            match out.iter_mut().find(|k| k.name == name) {
                Some(k) => {
                    let total = k.ns * k.count as f64 + ns * count as f64;
                    k.count += count;
                    k.ns = total / k.count.max(1) as f64;
                }
                None => out.push(KindCost {
                    name: name.to_string(),
                    count,
                    ns,
                }),
            }
        }
    }
    out
}

/// Probe means, summed over sites.
fn probe_means(obs: &[ObsArtifacts]) -> Vec<(&'static str, f64)> {
    PROBE_METRICS
        .iter()
        .map(|&(probe, metric)| {
            let sum = obs
                .iter()
                .filter_map(|a| a.metrics.as_ref())
                .flat_map(|m| m.names.iter().zip(&m.series))
                .filter(|(n, _)| **n == probe)
                .map(|(_, s)| s.mean())
                .sum();
            (metric, sum)
        })
        .collect()
}

/// Host seconds to build the workload's fat tree and route every host
/// pair once.
fn topology_build_s() -> f64 {
    let t0 = Instant::now();
    let built = fat_tree(fat_tree_k_for(FABRIC_SERVERS), LinkSpec::gigabit());
    let mut router = Router::new();
    for &src in &built.hosts {
        for &dst in &built.hosts {
            if src != dst {
                black_box(router.route(&built.topology, src, dst, 0));
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Observability on: the per-kind profiler and the metrics probes.
fn traced_obs() -> ObsConfig {
    ObsConfig {
        profile: Some(ProfileConfig {
            sample: PROFILE_SAMPLE,
        }),
        metrics: Some(MetricsConfig {
            period: PROBE_PERIOD,
        }),
        ..ObsConfig::default()
    }
}

/// Medians over the traced runs of one invocation.
#[derive(Default)]
struct Samples {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    growth: Vec<f64>,
    kinds: Vec<Vec<KindCost>>,
}

impl Samples {
    /// Median host ns per event of each kind over the traced runs, with
    /// its count from the last one.
    fn kind_medians(&self) -> Vec<KindCost> {
        let Some(last) = self.kinds.last() else {
            return Vec::new();
        };
        last.iter()
            .map(|k| {
                let ns: Vec<f64> = self
                    .kinds
                    .iter()
                    .filter_map(|run| run.iter().find(|x| x.name == k.name).map(|x| x.ns))
                    .collect();
                KindCost {
                    name: k.name.clone(),
                    count: k.count,
                    ns: median(&ns),
                }
            })
            .collect()
    }

    fn done(&self, start: Instant, budget: Duration) -> bool {
        self.traced_s.len() >= MIN_PAIRS && start.elapsed() >= budget
    }
}

/// Runs the traced invocation of `w` for about `seconds` host seconds
/// and returns its JSON body (tally, per-kind costs, per-layer metrics).
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Json {
    let budget = Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let start = Instant::now();
    let layers = match w.config(seed, 0) {
        Config::Single(cfg) => traced_single(cfg, &mut tally, &mut samples, start, budget),
        Config::Federated(cc) => traced_federation(w, cc, &mut tally, &mut samples, start, budget),
    };
    let kinds = samples.kind_medians();
    // The network layer's build cost, timed on every workload although
    // only the fabric workloads pay it in `setup_s`.
    let builds: Vec<f64> = (0..TOPOLOGY_BUILDS).map(|_| topology_build_s()).collect();
    let topology = median(&builds);
    let mut m = Json::new();
    if let Some(l) = layers {
        let untraced = median(&samples.untraced_s);
        let growth = median(&samples.growth);
        if let Some(p) = growth_problem(growth) {
            tally.fail(format!("steadiness: {p}"));
        }
        let sum = |f: &dyn Fn(&SimReport) -> f64| l.sites.iter().map(f).sum::<f64>();
        let servers = |f: &dyn Fn(&ServerReport) -> u64| {
            sum(&|r| r.servers.iter().map(f).sum::<u64>() as f64)
        };
        let net = |f: &dyn Fn(&NetworkReport) -> f64| sum(&|r| r.network.as_ref().map_or(0.0, f));
        let events = sum(&|r| r.events_processed as f64);
        let submitted = sum(&|r| r.jobs_submitted as f64);
        let completed = sum(&|r| r.jobs_completed as f64);
        let forwarded = net(&|n| n.packets_forwarded as f64);
        let dropped = net(&|n| n.packets_dropped as f64);
        let mut metrics = vec![
            ("des.events", events),
            ("des.ns_per_event", untraced * 1e9 / events),
            ("des.pending_peak", l.pending_peak),
            ("workload.jobs_submitted", submitted),
            ("core.jobs_completed", completed),
            ("core.jobs_in_flight_end", submitted - completed),
            ("core.slice_growth", growth),
            (
                "sched.global_queue_tasks",
                sum(&|r| r.global_queue_tasks as f64),
            ),
            ("server.tasks_completed", servers(&|s| s.tasks_completed)),
            ("server.sleeps", servers(&|s| s.sleep_counts.0)),
            ("server.wakes", servers(&|s| s.sleep_counts.1)),
            ("power.cpu_kj", sum(&|r| r.cpu_energy_j()) / 1e3),
            ("power.dram_kj", sum(&|r| r.dram_energy_j()) / 1e3),
            ("power.platform_kj", sum(&|r| r.platform_energy_j()) / 1e3),
            ("network.flows", net(&|n| n.flows as f64)),
            ("network.packets_forwarded", forwarded),
            ("network.packets_dropped", dropped),
            (
                "network.drop_ratio",
                if dropped > 0.0 {
                    dropped / (forwarded + dropped)
                } else {
                    0.0
                },
            ),
            ("network.switch_kj", net(&|n| n.switch_energy_j) / 1e3),
            ("network.topology_build_s", topology),
            ("cluster.jobs_forwarded", l.jobs_forwarded),
            ("cluster.serial_run_s", l.serial_run_s),
            (
                "cluster.parallel_ratio",
                if l.serial_run_s > 0.0 {
                    untraced / l.serial_run_s
                } else {
                    0.0
                },
            ),
            (
                "obs.traced_overhead",
                median(&samples.traced_s) / untraced - 1.0,
            ),
        ];
        for (kind, metric) in KIND_METRICS {
            let ns = kinds.iter().find(|k| k.name == kind).map_or(0.0, |k| k.ns);
            metrics.push((metric, ns));
        }
        metrics.extend(probe_means(&l.obs));
        for (name, v) in metrics {
            m = m.num(name, v);
        }
    }
    let total_ns: f64 = kinds.iter().map(|k| k.ns * k.count as f64).sum();
    let kinds_json: Vec<String> = kinds
        .iter()
        .map(|k| {
            Json::new()
                .str("kind", &k.name)
                .num("count", k.count as f64)
                .num("ns", k.ns)
                .num("share", k.ns * k.count as f64 / total_ns)
                .finish()
        })
        .collect();
    tally
        .to_json()
        .raw("kinds", &format!("[{}]", kinds_json.join(",")))
        .raw("metrics", &m.finish())
}

/// What the traced runs of a workload leave for the per-layer table
/// beyond the per-kind costs; a layer the workload does not use reads 0.
struct Layers {
    /// The traced run's report of each site.
    sites: Vec<SimReport>,
    /// What the observer collected at each site.
    obs: Vec<ObsArtifacts>,
    pending_peak: f64,
    jobs_forwarded: f64,
    serial_run_s: f64,
}

fn traced_single(
    cfg: SimConfig,
    tally: &mut Tally,
    samples: &mut Samples,
    start: Instant,
    budget: Duration,
) -> Option<Layers> {
    let mut traced_cfg = cfg.clone();
    traced_cfg.obs = traced_obs();
    let mut last = None;
    while !samples.done(start, budget) {
        let sim = Simulation::new(cfg.clone());
        let t0 = Instant::now();
        let Some(report) = tally.attempt("untraced run", || sim.run()) else {
            break;
        };
        let run_s = t0.elapsed().as_secs_f64();
        let out = Outcome::of_sim(&report);
        tally.check("untraced run", &out, run_s, Some(0));
        samples.untraced_s.push(run_s);
        let Some(run) = tally.attempt("traced run", || run_sliced(traced_cfg.clone())) else {
            break;
        };
        tally.check(
            "traced run",
            &Outcome::of_sim(&run.report),
            run.report.wall_s,
            None,
        );
        tally.same("traced run", &out.json, &run.report.to_json());
        samples.traced_s.push(run.report.wall_s);
        samples.growth.push(slice_growth(&run.slice_s));
        samples
            .kinds
            .push(kind_costs(std::slice::from_ref(&run.obs)));
        last = Some((out, run));
    }
    let (out, run) = last?;
    let flow = cfg
        .network
        .as_ref()
        .is_some_and(|n| n.comm == CommModel::Flow);
    if flow {
        let reference = with_reference_solver(&cfg);
        let t0 = Instant::now();
        if let Some(r) = tally.attempt("reference solver arm", || Simulation::new(reference).run())
        {
            let ref_out = Outcome::of_sim(&r);
            tally.check(
                "reference solver arm",
                &ref_out,
                t0.elapsed().as_secs_f64(),
                None,
            );
            tally.same("reference solver arm", &out.json, &ref_out.json);
        }
    }
    Some(Layers {
        sites: vec![run.report],
        obs: vec![run.obs],
        pending_peak: run.pending_peak as f64,
        jobs_forwarded: 0.0,
        serial_run_s: 0.0,
    })
}

fn traced_federation(
    w: &Workload,
    cc: ClusterConfig,
    tally: &mut Tally,
    samples: &mut Samples,
    start: Instant,
    budget: Duration,
) -> Option<Layers> {
    let mut traced_cc = cc.clone();
    traced_cc.base.obs = traced_obs();
    let half_horizon = SimDuration::from_nanos(w.horizon.as_nanos() / 2);
    let Config::Federated(half_cc) = w.config_for(cc.seed, half_horizon) else {
        unreachable!("the federation workload is federated");
    };
    // One attempted run of an arm: host seconds, checked outcome, report.
    let timed = |tally: &mut Tally,
                 what: &str,
                 cfg: &ClusterConfig,
                 arm: fn(Federation) -> FederationReport| {
        let fed = Federation::new(cfg);
        let t0 = Instant::now();
        let report = tally.attempt(what, || arm(fed))?;
        let run_s = t0.elapsed().as_secs_f64();
        let out = Outcome::of_federation(&report);
        let replication = (what == "parallel run").then_some(0);
        tally.check(what, &out, run_s, replication);
        Some((run_s, out, report))
    };
    let mut serial_s = Vec::new();
    let mut last = None;
    while !samples.done(start, budget) {
        let Some((run_s, out, _)) = timed(tally, "parallel run", &cc, Federation::run) else {
            break;
        };
        samples.untraced_s.push(run_s);
        let Some((s_s, serial_out, _)) = timed(tally, "serial run", &cc, Federation::run_serial)
        else {
            break;
        };
        tally.same("serial run", &out.json, &serial_out.json);
        serial_s.push(s_s);
        let half = "half-horizon serial run";
        let Some((h_s, ..)) = timed(tally, half, &half_cc, Federation::run_serial) else {
            break;
        };
        samples.growth.push((s_s - h_s) / h_s);
        let Some((t_s, traced_out, report)) =
            timed(tally, "traced run", &traced_cc, Federation::run)
        else {
            break;
        };
        tally.same("traced run", &out.json, &traced_out.json);
        samples.traced_s.push(t_s);
        samples.kinds.push(kind_costs(&report.obs));
        last = Some(report);
    }
    let report = last?;
    Some(Layers {
        jobs_forwarded: report.jobs_forwarded() as f64,
        sites: report.sites,
        obs: report.obs,
        pending_peak: 0.0,
        serial_run_s: median(&serial_s),
    })
}
