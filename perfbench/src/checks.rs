//! Running a workload configuration and checking what it produced: the
//! report invariants, the steadiness guard, and the per-invocation tally
//! of attempted and failed runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use holdcsim::prelude::{SimDuration, SimTime};
use holdcsim::{finish_report, SimReport, Simulation};
use holdcsim_cluster::{Federation, FederationReport};
use holdcsim_obs::ObsArtifacts;

use crate::workloads::Config;
use crate::{quote, Json};

/// A run counts only if it completes at least this share of the jobs
/// submitted: a backlog that grows without bound leaves most of them in
/// flight at the horizon.
pub const MIN_COMPLETION: f64 = 0.8;
/// A run counts only if its later simulated slices cost at most this many
/// times the host time of its earlier ones (see [`slice_growth`]).
pub const MAX_SLICE_GROWTH: f64 = 2.0;
/// Slices per traced run.
pub const SLICES: u32 = 10;
/// Leading slices counted as warm-up from the empty farm.
pub const WARMUP_SLICES: usize = 2;
/// A single run over this many host seconds fails.
pub const RUN_CAP_S: f64 = 60.0;

/// The simulated outcome of one run, reduced to what the benchmark checks
/// and reports.
#[derive(Debug)]
pub struct Outcome {
    /// The report JSON, byte for byte.
    pub json: String,
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Simulated job-latency p95, seconds.
    pub p95_s: f64,
    /// Simulated energy, joules.
    pub energy_j: f64,
}

impl Outcome {
    /// The outcome of a single-datacenter run.
    pub fn of_sim(r: &SimReport) -> Self {
        Outcome {
            json: r.to_json(),
            jobs_submitted: r.jobs_submitted,
            jobs_completed: r.jobs_completed,
            p95_s: r.latency.p95,
            energy_j: r.total_energy_j(),
        }
    }

    /// The outcome of a federated run (latency merged over sites, energy
    /// including WAN transport).
    pub fn of_federation(r: &FederationReport) -> Self {
        Outcome {
            json: r.to_json(),
            jobs_submitted: r.jobs_submitted(),
            jobs_completed: r.jobs_completed(),
            p95_s: r.latency_quantile(0.95),
            energy_j: r.total_energy_j(),
        }
    }

    /// Completed ÷ submitted jobs.
    pub fn completion(&self) -> f64 {
        self.jobs_completed as f64 / self.jobs_submitted.max(1) as f64
    }

    /// Broken invariants and a failed completion guard, if any.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.jobs_submitted == 0 || self.jobs_completed > self.jobs_submitted {
            out.push(format!(
                "job ledger: {} completed of {} submitted",
                self.jobs_completed, self.jobs_submitted
            ));
        }
        if !(self.p95_s.is_finite() && self.p95_s > 0.0) {
            out.push(format!("latency p95 {} s", self.p95_s));
        }
        if !(self.energy_j.is_finite() && self.energy_j > 0.0) {
            out.push(format!("energy {} J", self.energy_j));
        }
        if self.completion() < MIN_COMPLETION {
            out.push(format!(
                "backlog: {:.3} of jobs completed, below {MIN_COMPLETION}",
                self.completion()
            ));
        }
        out
    }
}

/// Host time of the later half of the slices after warm-up ÷ the
/// earlier half: about 1 for a steady run, growing with a backlog that
/// grows. Halves rather than single slices, because the cost of one slice
/// swings with the number of concurrent flows even in a steady run.
pub fn slice_growth(slice_s: &[f64]) -> f64 {
    let steady = slice_s.get(WARMUP_SLICES..).unwrap_or_default();
    let (early, late) = steady.split_at(steady.len() / 2);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    mean(late) / mean(early)
}

/// The steadiness guard's verdict on a slice-growth figure.
pub fn growth_problem(growth: f64) -> Option<String> {
    (growth.is_nan() || growth > MAX_SLICE_GROWTH).then(|| {
        format!(
            "backlog: later slices took {growth:.2}x the earlier ones, above {MAX_SLICE_GROWTH}"
        )
    })
}

/// A configuration built and ready to run.
#[allow(clippy::large_enum_variant)] // built and consumed at once; boxing would add to set-up time
pub enum Built {
    /// One datacenter.
    Single(Simulation),
    /// A federation.
    Federated(Federation),
}

impl Built {
    /// Builds the simulator from `cfg` — the set-up cost the benchmark
    /// times.
    pub fn new(cfg: Config) -> Self {
        match cfg {
            Config::Single(c) => Built::Single(Simulation::new(c)),
            Config::Federated(c) => Built::Federated(Federation::new(&c)),
        }
    }

    /// Runs to the horizon through the public entry point.
    pub fn run(self) -> Outcome {
        match self {
            Built::Single(s) => Outcome::of_sim(&s.run()),
            Built::Federated(f) => Outcome::of_federation(&f.run()),
        }
    }
}

/// A run advanced in equal simulated-time slices, each timed.
pub struct SlicedRun {
    /// Host seconds per slice.
    pub slice_s: Vec<f64>,
    /// Largest calendar length seen at a slice boundary.
    pub pending_peak: usize,
    /// The final report.
    pub report: SimReport,
    /// What the observer collected.
    pub obs: ObsArtifacts,
}

/// Runs `cfg` to its horizon in [`SLICES`] slices of simulated time,
/// through `Simulation::into_engine` and `Engine::run_until`.
pub fn run_sliced(cfg: holdcsim::SimConfig) -> SlicedRun {
    let horizon = cfg.duration;
    let end = SimTime::ZERO + horizon;
    let mut engine = Simulation::new(cfg).into_engine();
    let mut slice_s = Vec::with_capacity(SLICES as usize);
    let mut pending_peak = 0;
    for i in 1..SLICES {
        let at = SimTime::ZERO
            + SimDuration::from_nanos(horizon.as_nanos() / u64::from(SLICES) * u64::from(i));
        let t = Instant::now();
        engine.run_until(at);
        slice_s.push(t.elapsed().as_secs_f64());
        pending_peak = pending_peak.max(engine.pending_events());
    }
    let t = Instant::now();
    engine.run_until(end);
    slice_s.push(t.elapsed().as_secs_f64());
    pending_peak = pending_peak.max(engine.pending_events());
    let events = engine.events_processed();
    let (dc, observer) = engine.into_parts();
    let wall_s = slice_s.iter().sum();
    SlicedRun {
        slice_s,
        pending_peak,
        report: finish_report(dc, end, events, wall_s),
        obs: observer.finish(end),
    }
}

/// Attempted and failed runs of one invocation, with the distinct report
/// JSONs seen and how many runs produced each.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
    /// Distinct report JSONs of the runs checked against the reference
    /// digests: replication, report, number of runs that produced it.
    pub reports: Vec<(u64, String, u64)>,
}

impl Tally {
    /// Runs `f` as one attempted run, counting a panic as a failure.
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.fail(format!("{what}: panicked"));
                None
            }
        }
    }

    /// Counts one failure of an attempted run.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Checks one run's outcome and host time; the report of a run of
    /// `replication` is also kept for the digest check.
    pub fn check(&mut self, what: &str, out: &Outcome, run_s: f64, replication: Option<u64>) {
        let mut problems = out.problems();
        if run_s > RUN_CAP_S {
            problems.push(format!("took {run_s:.1} s, over the {RUN_CAP_S} s cap"));
        }
        if !problems.is_empty() {
            self.fail(format!("{what}: {}", problems.join("; ")));
        } else if let Some(k) = replication {
            match self
                .reports
                .iter_mut()
                .find(|(r, j, _)| *r == k && *j == out.json)
            {
                Some((_, _, n)) => *n += 1,
                None => self.reports.push((k, out.json.clone(), 1)),
            }
        }
    }

    /// Checks that an arm that must reproduce `expected` byte for byte
    /// did so.
    pub fn same(&mut self, what: &str, expected: &str, got: &str) {
        if expected != got {
            self.fail(format!("{what}: report differs from the default arm"));
        }
    }
}

impl Tally {
    /// The tally as the head of a result object.
    pub fn to_json(&self) -> Json {
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        let reports: Vec<String> = self
            .reports
            .iter()
            .map(|(k, json, runs)| {
                Json::new()
                    .num("replication", *k as f64)
                    .str("json", json)
                    .num("runs", *runs as f64)
                    .finish()
            })
            .collect();
        Json::new()
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("failures", &format!("[{}]", failures.join(",")))
            .raw("reports", &format!("[{}]", reports.join(",")))
    }
}

#[cfg(test)]
mod tests {
    //! The guard must reject the committed `bench-scale` fabric points
    //! that sit past the fabric knee: at ρ=0.3 the flow points complete
    //! 29–46% of their jobs in the 0.2 s horizon, the 128-server packet
    //! point 67%, and the incast points none. (The 16-server packet point
    //! completes 86% and passes: it is below its knee.)

    use super::*;
    use holdcsim::config::CommModel;
    use holdcsim::experiments::{net_incast_config_with_solver, net_scalability_config};
    use holdcsim_network::flow::FlowSolverKind;

    /// The committed network grid's horizon and seed.
    const HORIZON: SimDuration = SimDuration::from_millis(200);
    const SEED: u64 = 42;

    fn guard_problems(cfg: holdcsim::SimConfig) -> Vec<String> {
        let run = run_sliced(cfg);
        let mut problems = Outcome::of_sim(&run.report).problems();
        problems.extend(growth_problem(slice_growth(&run.slice_s)));
        problems
    }

    #[test]
    fn saturated_scatter_gather_fails_the_guard() {
        let packet = CommModel::Packet {
            mtu: 1_500,
            buffer_bytes: 1 << 20,
        };
        for (servers, comm) in [(16, CommModel::Flow), (128, CommModel::Flow), (128, packet)] {
            let cfg = net_scalability_config(servers, comm, HORIZON, SEED);
            let problems = guard_problems(cfg);
            assert!(
                problems.iter().any(|p| p.starts_with("backlog")),
                "{servers}-server {comm:?} rho=0.3 point passed the guard"
            );
        }
    }

    #[test]
    fn incast_fails_the_guard() {
        for servers in [16, 128] {
            let cfg = net_incast_config_with_solver(servers, HORIZON, SEED, FlowSolverKind::Cohort);
            let problems = guard_problems(cfg);
            assert!(
                problems.iter().any(|p| p.starts_with("backlog")),
                "{servers}-server incast point passed the guard"
            );
        }
    }

    #[test]
    fn benchmark_workloads_pass_the_completion_guard() {
        for (name, _) in crate::workloads::WORKLOADS {
            let w = crate::workloads::Workload::by_name(name).expect("known workload");
            let out = Built::new(w.config(1, 0)).run();
            assert!(out.problems().is_empty(), "{name}: {:?}", out.problems());
        }
    }

    #[test]
    fn slice_growth_skips_warm_up() {
        assert_eq!(slice_growth(&[9.0, 5.0, 1.0, 2.0, 1.5, 3.0]), 1.5);
        assert!(slice_growth(&[1.0, 1.0]).is_nan());
        assert!(growth_problem(2.5).is_some());
        assert!(growth_problem(1.9).is_none());
        assert!(growth_problem(f64::NAN).is_some());
    }
}
