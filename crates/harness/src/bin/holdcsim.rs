//! The `holdcsim` CLI: one entry point for single runs, declarative
//! parallel sweeps, and paper-figure reproduction.
//!
//! ```text
//! holdcsim run   [--servers N] [--cores C] [--rho R] [--preset P] [--tau T]
//!                [--policy POL] [--duration S] [--seed S] [--json]
//! holdcsim sweep [--policies a,b] [--rhos 0.1,0.3] [--taus 0.4,1.6|active-idle]
//!                [--presets web-search,web-serving] [--servers 8,50] [--cores 4]
//!                [--replications N] [--duration S] [--seed S]
//!                [--threads N] [--out DIR] [--name NAME]
//! holdcsim fig <4|5|6|8|9|11|table1> [--quick] [--threads N] [--seed S]
//! holdcsim bench-scale [--sizes 16,128,1024] [--duration S] [--seed S]
//!                [--repeats N] [--out PATH]
//! ```

// CLI flag maps are `--key value` lookups, never iterated (lint D001).
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use holdcsim::config::{
    ClusterConfig, NetworkConfig, PolicyKind, SimConfig, WanConfig, WanLinkMode,
};
use holdcsim::experiments::fat_tree_k_for;
use holdcsim::sim::Simulation;
use holdcsim_cluster::Federation;
use holdcsim_des::time::SimDuration;
use holdcsim_harness::artifacts;
use holdcsim_harness::bench_scale::{self, BenchScaleConfig};
use holdcsim_harness::exec::{default_threads, run_plan};
use holdcsim_harness::figs::{self, FigScale};
use holdcsim_harness::grid::SweepPlan;
use holdcsim_harness::obs_cli::ObsCli;
use holdcsim_network::flow::FlowSolverKind;
use holdcsim_obs::fingerprint;
use holdcsim_sched::geo::GeoPolicy;
use holdcsim_workload::presets::WorkloadPreset;

const USAGE: &str = "holdcsim — HolDCSim-RS experiment runner

USAGE:
    holdcsim run   [--servers N] [--cores C] [--rho R] [--preset P] [--tau T]
                   [--policy POL] [--duration SECS] [--seed S] [--json]
                   [--faults SPEC|FILE]
                   [--net [--flow-solver cohort|reference]] [OBS]
    holdcsim sweep [--policies a,b,c] [--rhos 0.1,0.3] [--taus 0.4,1.6]
                   [--presets web-search,web-serving] [--servers 8,50] [--cores 4]
                   [--replications N] [--duration SECS] [--seed S]
                   [--faults SPEC|FILE|none, |-separated arms]
                   [--threads N] [--out DIR] [--name NAME] [OBS]
    holdcsim fig   <4|5|6|8|9|11|table1> [--quick] [--threads N] [--seed S]
    holdcsim federate [--sites N] [--servers N] [--cores C] [--rho R] [--preset P]
                   [--affinity w1,w2,...] [--geo POL] [--spill L] [--latency-weight W]
                   [--wan-gbps G] [--wan-latency-ms L] [--wan-mode pipe|flow] [--hub]
                   [--job-bytes B] [--net]
                   [--faults SPEC|FILE]
                   [--duration SECS] [--seed S] [--json] [OBS]
    holdcsim trace-diff A.json B.json
    holdcsim bench-scale [--sizes 16,128,1024] [--duration SECS]
                   [--net-sizes 16,128 | none] [--net-duration SECS]
                   [--flow-solver cohort|reference|all]
                   [--clusters 2,4 | none] [--cluster-servers N]
                   [--cluster-duration SECS]
                   [--faults default|none|SPEC|FILE]
                   [--seed S] [--repeats N] [--out PATH] [--obs-overhead]

Observability ([OBS], accepted by run, federate, and sweep):
    --trace FILE [--trace-format jsonl|chrome] [--trace-limit N]
    --metrics FILE [--metrics-period SECS]
    --fingerprint FILE [--fingerprint-every K]
    --profile [--profile-sample N]

Policies:     round-robin, least-loaded, pack-first, random, network-aware.
Presets:      web-search, web-serving, provisioning.
Taus:         seconds, or `active-idle` for the no-sleep arm.
Geo policies: site-local (spill past --spill in-flight jobs/core),
              load-balanced, latency-aware (--latency-weight load units/s).

`federate` runs a multi-datacenter federation: N sites (each its own
fabric and RNG substream; add a fat-tree + flow comm with --net) behind
a full-mesh WAN (--hub for hub-and-spoke), with the aggregate arrival
rate split by --affinity weights and jobs geo-routed per --geo; prints
per-site and federation-wide reports. Sites advance in lockstep
through conservative WAN-lookahead windows; the same seed gives a
byte-identical report.

`bench-scale` runs the Table I configuration at each farm size plus a
network-heavy fat-tree grid (high-fan-out DAGs, flow and packet comm
models) at each --net-sizes size (`none` skips the network arms),
measures wall-clock events/second (best of --repeats), and writes the
JSON perf baseline (default ./BENCH_scalability.json). The flow arm
runs once per selected fair-share solver (`all` by default: the
cohort-cell production solver as `flow` and the global progressive-
filling reference as `flow-ref`, interleaved on the same grid with
byte-identical reports asserted); the same arms drive a wide-gather
incast stress grid (`incast*` points). With --obs-overhead it also
re-runs the network arms with fingerprinting on and reports the
observability overhead per point.

Fault plans (--faults, accepted by run, sweep, federate, bench-scale):
an inline spec or a file of `;`/newline-separated entries (`#` comments):
    crash@2s:0            kill server 0 at t=2s (in-flight tasks fail)
    recover@4s:0          bring it back
    straggle@1s:3,0.5,2s  run server 3 at 0.5x speed for 2s
    switch-down@1s:0      fabric switch outage (switch-up@.. restores)
    link-down@1s:4        fabric link outage (link-up@.. restores)
    wan-down@1s:0         WAN link outage (wan-up@.. restores; federate)
    mtbf:server=2,mtbf=5s,mttr=500ms   stochastic crash/repair cycle
    retry:max=3,backoff=10ms,mult=2    bounded exponential re-dispatch
Prefix an entry with `site<k>.` under federate to target one site.
Times accept ns/us/ms/s suffixes. `sweep --faults` takes |-separated
arms (`none` is a fault-free arm) as an extra grid axis; `bench-scale
--faults default` runs a canned crash+switch storm scaled to each farm.

`trace-diff` compares two fingerprint files (written with --fingerprint)
and bisects to the first divergent checkpoint, or reports `identical`.
Federation/sweep observability files are tagged per site/trial
(fp.json -> fp.site0.json / fp.trial0.json); the profile table prints
one section per site/trial.
";

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    match s {
        "round-robin" => Ok(PolicyKind::RoundRobin),
        "least-loaded" => Ok(PolicyKind::LeastLoaded),
        "pack-first" => Ok(PolicyKind::PackFirst),
        "random" => Ok(PolicyKind::Random),
        "network-aware" => Ok(PolicyKind::NetworkAware),
        _ => Err(format!("unknown policy `{s}`")),
    }
}

fn parse_preset(s: &str) -> Result<WorkloadPreset, String> {
    match s {
        "web-search" => Ok(WorkloadPreset::WebSearch),
        "web-serving" => Ok(WorkloadPreset::WebServing),
        "provisioning" => Ok(WorkloadPreset::Provisioning),
        _ => Err(format!("unknown preset `{s}`")),
    }
}

fn parse_list<T, F: Fn(&str) -> Result<T, String>>(s: &str, f: F) -> Result<Vec<T>, String> {
    s.split(',').map(|x| f(x.trim())).collect()
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

/// Splits `args` into `--key value` options; rejects unknown keys.
#[allow(clippy::disallowed_types)] // keyed flag lookups; never iterated
fn parse_opts(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{}`", args[i]))?;
        if !allowed.contains(&key) {
            return Err(format!("unknown option `--{key}`"));
        }
        // Flags (no value): --json, --quick, --hub, --net, --profile,
        // --obs-overhead.
        if matches!(
            key,
            "json" | "quick" | "hub" | "net" | "profile" | "obs-overhead"
        ) {
            opts.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("option `--{key}` needs a value"))?
            .clone();
        opts.insert(key.to_string(), value);
        i += 2;
    }
    Ok(opts)
}

/// The `--servers`, `--cores` and `--rho` of a farm, each checked so the
/// simulator's constructors cannot panic on them.
fn farm_args(get: &dyn Fn(&str, &str) -> String) -> Result<(usize, u32, f64), String> {
    let servers: usize = parse_num(&get("servers", "8"), "server count")?;
    if servers == 0 {
        return Err("--servers must be at least 1".into());
    }
    let cores: u32 = parse_num(&get("cores", "4"), "core count")?;
    if cores == 0 {
        return Err("--cores must be at least 1".into());
    }
    let rho: f64 = parse_num(&get("rho", "0.3"), "utilization")?;
    if !(rho.is_finite() && rho > 0.0) {
        return Err(format!(
            "--rho must be a positive, finite utilization (got `{rho}`)"
        ));
    }
    Ok((servers, cores, rho))
}

/// A `--duration` in simulated seconds: finite and non-negative.
fn duration_arg(s: &str) -> Result<SimDuration, String> {
    let secs: f64 = parse_num(s, "duration")?;
    if !(secs.is_finite() && secs >= 0.0) {
        return Err(format!(
            "--duration must be a non-negative, finite number of seconds (got `{secs}`)"
        ));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut allowed = vec![
        "servers",
        "cores",
        "rho",
        "preset",
        "tau",
        "policy",
        "duration",
        "seed",
        "json",
        "net",
        "flow-solver",
        "faults",
    ];
    allowed.extend_from_slice(&ObsCli::OPTS);
    let opts = parse_opts(args, &allowed)?;
    let obs = ObsCli::from_opts(&opts)?;
    let get = |k: &str, d: &str| opts.get(k).cloned().unwrap_or_else(|| d.to_string());
    let (servers, cores, rho) = farm_args(&get)?;
    let preset = parse_preset(&get("preset", "web-search"))?;
    let duration = duration_arg(&get("duration", "30"))?;
    let seed: u64 = parse_num(&get("seed", "42"), "seed")?;
    let cfg = match opts.get("tau") {
        Some(t) if t != "active-idle" => holdcsim::experiments::delay_timer_farm(
            preset,
            rho,
            servers,
            cores,
            parse_num(t, "tau")?,
            duration,
            seed,
        ),
        _ => {
            SimConfig::server_farm(servers, cores, rho, preset.template(), duration).with_seed(seed)
        }
    };
    let mut cfg = match opts.get("policy") {
        Some(p) => cfg.with_policy(parse_policy(p)?),
        None => cfg,
    };
    // --net attaches a fat-tree fabric with flow-model comm and swaps
    // in the fan-out/fan-in communicating workload (the presets are
    // compute-only, so the fabric would otherwise carry zero flows);
    // the solver arm is selectable so the CI smoke can A/B both arms
    // on one seed.
    if opts.contains_key("net") {
        let solver = match opts.get("flow-solver").map(String::as_str) {
            None | Some("cohort") => FlowSolverKind::Cohort,
            Some("reference") => FlowSolverKind::Reference,
            Some(other) => return Err(format!("unknown flow solver `{other}`")),
        };
        cfg.template = holdcsim::experiments::net_scalability_template();
        let mut net = NetworkConfig::fat_tree(fat_tree_k_for(servers));
        net.comm = holdcsim::config::CommModel::Flow;
        net.flow_solver = solver;
        cfg.network = Some(net);
    } else if opts.contains_key("flow-solver") {
        return Err("--flow-solver requires --net".to_string());
    }
    if let Some(s) = opts.get("faults") {
        let plan = holdcsim_faults::load_plan(s)?;
        check_fault_targets(&plan, servers, cfg.network.as_ref())?;
        cfg.faults = Some(plan);
    }
    cfg.obs = obs.cfg;
    let (report, arts) = Simulation::new(cfg).run_with_obs();
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.summary());
    }
    obs.emit(&arts, None)?;
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let mut allowed = vec![
        "policies",
        "rhos",
        "taus",
        "presets",
        "servers",
        "cores",
        "replications",
        "duration",
        "seed",
        "faults",
        "threads",
        "out",
        "name",
    ];
    allowed.extend_from_slice(&ObsCli::OPTS);
    let opts = parse_opts(args, &allowed)?;
    let obs = ObsCli::from_opts(&opts)?;
    let mut plan = SweepPlan::new(opts.get("name").map_or("sweep", |s| s.as_str()));
    plan = plan.obs(obs.cfg);
    if let Some(s) = opts.get("policies") {
        plan = plan.policies(&parse_list(s, parse_policy)?);
    }
    if let Some(s) = opts.get("presets") {
        plan = plan.presets(&parse_list(s, parse_preset)?);
    }
    if let Some(s) = opts.get("rhos") {
        plan = plan.utilizations(&parse_list(s, |x| parse_num(x, "rho"))?);
    }
    if let Some(s) = opts.get("taus") {
        let taus = parse_list(s, |x| {
            if x == "active-idle" {
                Ok(None)
            } else {
                parse_num(x, "tau").map(Some)
            }
        })?;
        plan = plan.taus_opt(&taus);
    }
    if let Some(s) = opts.get("servers") {
        plan = plan.servers(&parse_list(s, |x| parse_num(x, "server count"))?);
    }
    if let Some(s) = opts.get("cores") {
        plan = plan.cores(&parse_list(s, |x| parse_num(x, "core count"))?);
    }
    if let Some(s) = opts.get("replications") {
        plan = plan.replications(parse_num(s, "replications")?);
    }
    if let Some(s) = opts.get("duration") {
        plan = plan.duration(SimDuration::from_secs_f64(parse_num(s, "duration")?));
    }
    if let Some(s) = opts.get("seed") {
        plan = plan.seed(parse_num(s, "seed")?);
    }
    if let Some(s) = opts.get("faults") {
        // Fault specs contain `,` and `;`, so arms split on `|`;
        // `none` is the fault-free arm. Validate each spec here so a
        // bad plan fails before any trial runs.
        let mut arms = Vec::new();
        for arm in s.split('|') {
            let arm = arm.trim();
            if arm == "none" {
                arms.push(None);
            } else {
                holdcsim_faults::load_plan(arm)?;
                arms.push(Some(arm.to_string()));
            }
        }
        plan = plan.fault_specs(&arms);
    }
    let threads: usize = match opts.get("threads") {
        Some(s) => parse_num(s, "threads")?,
        None => default_threads(),
    };

    let size = plan.size().map_err(|e| e.to_string())?;
    eprintln!(
        "[{}] {} trials ({} points x {} replications) on {} threads",
        plan.name,
        size,
        size / plan.replications as usize,
        plan.replications,
        threads
    );
    let result = run_plan(&plan, threads, true).map_err(|e| e.to_string())?;

    // Console summary: the headline metrics with confidence intervals.
    for s in &result.summaries {
        let e = s.get("energy_j").expect("known metric");
        let p95 = s.get("latency_p95_s").expect("known metric");
        println!(
            "{} | energy {:.1} ± {:.1} J | p95 {:.2} ± {:.2} ms (n={})",
            s.point.label(),
            e.mean,
            e.ci95_half,
            p95.mean * 1e3,
            p95.ci95_half * 1e3,
            s.replications,
        );
    }

    let out = PathBuf::from(opts.get("out").map_or("artifacts", |s| s.as_str()));
    let paths = artifacts::write_artifacts(&out, &result).map_err(|e| e.to_string())?;
    for p in &paths {
        eprintln!("[{}] wrote {}", result.name, p.display());
    }
    if !obs.is_off() {
        for (i, arts) in result.obs.iter().enumerate() {
            obs.emit(arts, Some(&format!("trial{i}")))?;
        }
    }
    Ok(())
}

fn cmd_fig(args: &[String]) -> Result<(), String> {
    let which = args
        .first()
        .ok_or("`fig` needs a figure id (4, 5, 6, 8, 9, 11, table1)")?
        .clone();
    let opts = parse_opts(&args[1..], &["quick", "threads", "seed"])?;
    let scale = FigScale {
        quick: opts.contains_key("quick"),
        threads: match opts.get("threads") {
            Some(s) => parse_num(s, "threads")?,
            None => default_threads(),
        },
        seed: match opts.get("seed") {
            Some(s) => parse_num(s, "seed")?,
            None => 42,
        },
    };
    match which.as_str() {
        "4" => figs::fig4(&scale),
        "5" => figs::fig5(&scale),
        "6" => figs::fig6(&scale),
        "8" => figs::fig8(&scale),
        "9" => figs::fig9(&scale),
        "11" => figs::fig11(&scale),
        "table1" | "1" => figs::table1(&scale),
        other => {
            return Err(format!(
                "unknown figure `{other}` (try 4, 5, 6, 8, 9, 11, table1)"
            ))
        }
    }
    Ok(())
}

/// Rejects `--faults` entries whose server, switch or link target lies
/// outside the farm of `servers` servers and its fabric (none without
/// `--net`) — such entries would otherwise inject nothing.
fn check_fault_targets(
    plan: &holdcsim_faults::FaultPlan,
    servers: usize,
    net: Option<&NetworkConfig>,
) -> Result<(), String> {
    let (switches, links) = net.map_or((0, 0), |net| {
        let built = net.build_topology(servers);
        (
            built.topology.switches().len(),
            built.topology.links().len(),
        )
    });
    plan.check_server_targets(servers)
        .and_then(|()| plan.check_fabric_targets(switches, links))
        .map_err(|e| format!("--faults: {e}"))
}

fn cmd_federate(args: &[String]) -> Result<(), String> {
    let mut allowed = vec![
        "sites",
        "servers",
        "cores",
        "rho",
        "preset",
        "affinity",
        "geo",
        "spill",
        "latency-weight",
        "wan-gbps",
        "wan-latency-ms",
        "wan-mode",
        "hub",
        "job-bytes",
        "net",
        "duration",
        "seed",
        "json",
        "faults",
    ];
    allowed.extend_from_slice(&ObsCli::OPTS);
    let opts = parse_opts(args, &allowed)?;
    let obs = ObsCli::from_opts(&opts)?;
    let get = |k: &str, d: &str| opts.get(k).cloned().unwrap_or_else(|| d.to_string());
    let sites: usize = parse_num(&get("sites", "3"), "site count")?;
    if sites == 0 {
        return Err("a federation needs at least one site".into());
    }
    let (servers, cores, rho) = farm_args(&get)?;
    let preset = parse_preset(&get("preset", "web-search"))?;
    let duration = duration_arg(&get("duration", "10"))?;
    let seed: u64 = parse_num(&get("seed", "42"), "seed")?;
    let mut base = SimConfig::server_farm(servers, cores, rho, preset.template(), duration);
    base.obs = obs.cfg;
    if opts.contains_key("net") {
        base.network = Some(NetworkConfig::fat_tree(fat_tree_k_for(servers)));
    }
    let gbps: f64 = parse_num(&get("wan-gbps", "10"), "WAN rate")?;
    let rate_bps = (gbps * 1e9) as u64;
    if !gbps.is_finite() || rate_bps == 0 {
        return Err(format!(
            "--wan-gbps must be a positive, finite rate of at least 1 b/s (got `{gbps}`)"
        ));
    }
    let latency_ms: f64 = parse_num(&get("wan-latency-ms", "10"), "WAN latency")?;
    if !(latency_ms.is_finite() && latency_ms >= 0.0) {
        return Err(format!(
            "--wan-latency-ms must be a non-negative, finite latency (got `{latency_ms}`)"
        ));
    }
    let latency = SimDuration::from_secs_f64(latency_ms / 1e3);
    let mut wan = if opts.contains_key("hub") {
        WanConfig::hub(sites, rate_bps, latency)
    } else {
        WanConfig::full_mesh(sites, rate_bps, latency)
    };
    wan = match get("wan-mode", "pipe").as_str() {
        "pipe" => wan.with_mode(WanLinkMode::Pipe),
        "flow" => wan.with_mode(WanLinkMode::Flow),
        other => return Err(format!("unknown WAN mode `{other}`")),
    };
    let geo = match get("geo", "site-local").as_str() {
        "site-local" => GeoPolicy::SiteLocalFirst {
            spill_load: parse_num(&get("spill", "1.0"), "spill load")?,
        },
        "load-balanced" => GeoPolicy::LoadBalanced,
        "latency-aware" => GeoPolicy::LatencyAware {
            latency_weight: parse_num(&get("latency-weight", "5.0"), "latency weight")?,
        },
        other => return Err(format!("unknown geo policy `{other}`")),
    };
    let mut cc = ClusterConfig::uniform(base, sites, wan)
        .with_geo(geo)
        .with_seed(seed);
    cc.job_bytes = parse_num(&get("job-bytes", "1048576"), "job bytes")?;
    if cc.job_bytes == 0 {
        return Err("--job-bytes must be positive: forwarded jobs carry payload".into());
    }
    if let Some(s) = opts.get("faults") {
        let plan = holdcsim_faults::load_plan(s)?;
        check_fault_targets(&plan, servers, cc.base.network.as_ref())?;
        plan.check_site_targets(sites)
            .and_then(|()| plan.check_wan_targets(cc.wan.links.len()))
            .map_err(|e| format!("--faults: {e}"))?;
        cc.faults = Some(plan);
    }
    if let Some(s) = opts.get("affinity") {
        let weights: Vec<f64> = parse_list(s, |x| parse_num(x, "affinity weight"))?;
        if weights.len() != sites {
            return Err(format!(
                "--affinity needs one weight per site ({} != {sites})",
                weights.len()
            ));
        }
        for (spec, w) in cc.sites.iter_mut().zip(weights) {
            spec.affinity = Some(w);
        }
    }
    let report = Federation::new(&cc).run();
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.summary());
    }
    if !obs.is_off() {
        for arts in &report.obs {
            let tag = arts.site.map(|s| format!("site{s}"));
            obs.emit(arts, tag.as_deref())?;
        }
        if let Some(wm) = &report.wan_metrics {
            obs.emit_extra_metrics(wm, "wan")?;
        }
    }
    Ok(())
}

fn cmd_trace_diff(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("`trace-diff` needs exactly two fingerprint files".into());
    };
    let read = |p: &str| -> Result<(u64, Vec<fingerprint::Checkpoint>), String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        fingerprint::parse_file(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (every_a, ca) = read(a)?;
    let (every_b, cb) = read(b)?;
    if every_a != every_b {
        return Err(format!(
            "checkpoint cadences differ ({every_a} vs {every_b} events); \
             re-run with the same --fingerprint-every"
        ));
    }
    print!("{}", fingerprint::render_diff(&fingerprint::diff(&ca, &cb)));
    Ok(())
}

fn cmd_bench_scale(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(
        args,
        &[
            "sizes",
            "duration",
            "net-sizes",
            "net-duration",
            "clusters",
            "cluster-servers",
            "cluster-duration",
            "flow-solver",
            "obs-overhead",
            "faults",
            "seed",
            "repeats",
            "out",
        ],
    )?;
    let mut cfg = BenchScaleConfig::default();
    if let Some(s) = opts.get("sizes") {
        cfg.sizes = parse_list(s, |x| parse_num(x, "server count"))?;
        if cfg.sizes.is_empty() {
            return Err("`--sizes` needs at least one size".into());
        }
    }
    if let Some(s) = opts.get("duration") {
        cfg.duration = SimDuration::from_secs_f64(parse_num(s, "duration")?);
    }
    if let Some(s) = opts.get("net-sizes") {
        cfg.net_sizes = if s == "none" {
            Vec::new()
        } else {
            parse_list(s, |x| parse_num(x, "server count"))?
        };
    }
    if let Some(s) = opts.get("net-duration") {
        cfg.net_duration = SimDuration::from_secs_f64(parse_num(s, "net-duration")?);
    }
    if let Some(s) = opts.get("clusters") {
        cfg.clusters = if s == "none" {
            Vec::new()
        } else {
            parse_list(s, |x| parse_num(x, "site count"))?
        };
    }
    if let Some(s) = opts.get("cluster-servers") {
        cfg.cluster_servers = parse_num(s, "servers per site")?;
    }
    if let Some(s) = opts.get("cluster-duration") {
        cfg.cluster_duration = SimDuration::from_secs_f64(parse_num(s, "cluster-duration")?);
    }
    if let Some(s) = opts.get("flow-solver") {
        cfg.flow_solvers = match s.as_str() {
            "cohort" => vec![FlowSolverKind::Cohort],
            "reference" => vec![FlowSolverKind::Reference],
            "all" => vec![FlowSolverKind::Cohort, FlowSolverKind::Reference],
            other => return Err(format!("unknown flow solver `{other}`")),
        };
    }
    cfg.obs_overhead = opts.contains_key("obs-overhead");
    if let Some(s) = opts.get("faults") {
        cfg.faults = match s.as_str() {
            "none" => None,
            "default" => Some("default".to_string()),
            spec => {
                holdcsim_faults::load_plan(spec)?;
                Some(spec.to_string())
            }
        };
    }
    if let Some(s) = opts.get("seed") {
        cfg.seed = parse_num(s, "seed")?;
    }
    if let Some(s) = opts.get("repeats") {
        cfg.repeats = parse_num(s, "repeats")?;
    }
    if let Some(s) = opts.get("out") {
        cfg.out = PathBuf::from(s);
    }
    let path = bench_scale::run_bench_scale(&cfg).map_err(|e| e.to_string())?;
    eprintln!("[bench-scale] wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("fig") => cmd_fig(&args[1..]),
        Some("federate") => cmd_federate(&args[1..]),
        Some("trace-diff") => cmd_trace_diff(&args[1..]),
        Some("bench-scale") => cmd_bench_scale(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_parse_flags_and_pairs() {
        let args: Vec<String> = ["--rho", "0.3", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_opts(&args, &["rho", "json"]).unwrap();
        assert_eq!(opts["rho"], "0.3");
        assert_eq!(opts["json"], "true");
    }

    #[test]
    fn unknown_option_is_rejected() {
        let args: Vec<String> = ["--bogus", "1"].iter().map(|s| s.to_string()).collect();
        assert!(parse_opts(&args, &["rho"]).is_err());
    }

    #[test]
    fn policy_and_preset_round_trip() {
        for p in [
            "round-robin",
            "least-loaded",
            "pack-first",
            "random",
            "network-aware",
        ] {
            parse_policy(p).unwrap();
        }
        for p in ["web-search", "web-serving", "provisioning"] {
            parse_preset(p).unwrap();
        }
        assert!(parse_policy("nope").is_err());
    }

    fn federate(args: &[&str]) -> Result<(), String> {
        let mut all = vec!["--sites", "2", "--servers", "2", "--duration", "0.01"];
        all.extend_from_slice(args);
        let all: Vec<String> = all.iter().map(|s| s.to_string()).collect();
        cmd_federate(&all)
    }

    #[test]
    fn federate_rejects_non_positive_wan_rates() {
        for g in ["0", "-1", "nan", "inf", "1e-12"] {
            let err = federate(&["--wan-gbps", g]).expect_err(g);
            assert!(err.contains("--wan-gbps"), "{g}: {err}");
        }
    }

    #[test]
    fn federate_rejects_zero_job_bytes() {
        let err = federate(&["--job-bytes", "0"]).unwrap_err();
        assert!(err.contains("--job-bytes"), "{err}");
    }

    #[test]
    fn federate_rejects_bad_wan_latency() {
        for l in ["-1", "nan", "inf"] {
            let err = federate(&["--wan-latency-ms", l]).expect_err(l);
            assert!(err.contains("--wan-latency-ms"), "{l}: {err}");
        }
    }

    #[test]
    fn federate_accepts_zero_wan_latency() {
        federate(&["--wan-latency-ms", "0", "--json"]).unwrap();
    }
}
