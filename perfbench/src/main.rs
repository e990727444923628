//! The benchmark binary of the HolDCSim-RS simulator: runs one named workload
//! through the public entry points and prints one JSON line of raw
//! measurements on standard output. `run.py` in this directory builds it,
//! runs it, checks the reports and reduces the measurements to metrics.
//!
//! ```text
//! perfbench timed  <workload> <seed> <seconds>   set-up and run host times,
//!                                                 simulated outputs
//! perfbench rss    <workload> <seed>             one run, then VmHWM
//! perfbench traced <workload> <seed> <seconds>   per-layer numbers
//! ```

// Host time is what a benchmark measures; it never feeds simulation state.
#![allow(clippy::disallowed_methods)]

mod calib;
mod checks;
mod traced;
mod workloads;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use checks::{Built, Tally};
use workloads::{Config, Workload, REPLICATIONS};

/// Constructions timed for `setup_s` before each timed run.
const SETUP_PER_RUN: usize = 16;

/// A hand-rolled JSON object writer (the repository carries no serde).
#[derive(Default)]
pub struct Json(String);

impl Json {
    /// An empty object.
    pub fn new() -> Self {
        Json(String::new())
    }

    fn key(mut self, k: &str) -> Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        self.0.push_str(&quote(k));
        self.0.push(':');
        self
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(self, k: &str, v: f64) -> Self {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.raw(k, &v)
    }

    /// Adds a string.
    pub fn str(self, k: &str, v: &str) -> Self {
        self.raw(k, &quote(v))
    }

    /// Adds a list of numbers.
    pub fn nums(self, k: &str, v: &[f64]) -> Self {
        let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
        self.raw(k, &format!("[{}]", items.join(",")))
    }

    /// Adds an already-serialized value.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self = self.key(k);
        self.0.push_str(v);
        self
    }

    /// The finished object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Timed runs cycling through the replications for `seconds` (each
/// replication at least once), with a speed probe before the first run
/// and after every run, and `SETUP_PER_RUN` timed constructions of the
/// next run's configuration after each probe.
fn timed(w: &Workload, seed: u64, seconds: f64) -> String {
    let configs: Vec<Config> = (0..REPLICATIONS).map(|k| w.config(seed, k)).collect();
    let mut tally = Tally::default();
    let (mut setup_s, mut setup_probe_s) = (Vec::new(), Vec::new());
    let mut run_s = Vec::new();
    // The first pass pays page faults and clock ramp-up: discard it.
    calib::probe();
    let mut probe_s = vec![calib::probe()];
    let mut sim: Vec<(f64, f64)> = Vec::new();
    let start = Instant::now();
    while run_s.len() < configs.len() || start.elapsed().as_secs_f64() < seconds {
        let k = run_s.len() % configs.len();
        let probe = probe_s[probe_s.len() - 1];
        for _ in 0..SETUP_PER_RUN {
            let c = configs[k].clone();
            let t0 = Instant::now();
            let built = Built::new(c);
            setup_s.push(t0.elapsed().as_secs_f64());
            setup_probe_s.push(probe);
            drop(black_box(built));
        }
        let built = Built::new(configs[k].clone());
        let t0 = Instant::now();
        let Some(out) = tally.attempt("run", || built.run()) else {
            break;
        };
        let dt = t0.elapsed().as_secs_f64();
        probe_s.push(calib::probe());
        run_s.push(dt);
        tally.check("run", &out, dt, Some(k as u64));
        if sim.len() == k {
            sim.push((out.p95_s * 1e3, out.energy_j / 1e3));
        }
    }
    let (p95, energy): (Vec<f64>, Vec<f64>) = sim.into_iter().unzip();
    tally
        .to_json()
        .nums("setup_s", &setup_s)
        .nums("setup_probe_s", &setup_probe_s)
        .nums("run_s", &run_s)
        .nums("probe_s", &probe_s)
        .nums("sim_p95_ms", &p95)
        .nums("sim_energy_kj", &energy)
        .finish()
}

/// Peak resident set of this process, KiB, from `/proc/self/status`.
fn vm_hwm_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Exactly one run (replication 0), then the process's peak resident set.
fn rss(w: &Workload, seed: u64) -> String {
    let mut tally = Tally::default();
    let built = Built::new(w.config(seed, 0));
    let t0 = Instant::now();
    if let Some(out) = tally.attempt("run", || built.run()) {
        tally.check("run", &out, t0.elapsed().as_secs_f64(), Some(0));
    }
    tally
        .to_json()
        .num("vm_hwm_kib", vm_hwm_kib().unwrap_or(f64::NAN))
        .finish()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench timed|rss|traced <workload> <seed> [seconds]";
    let (Some(mode), Some(name), Some(seed)) = (args.first(), args.get(1), args.get(2)) else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let Some(w) = Workload::by_name(name) else {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("unknown workload `{name}` (known: {})", known.join(", "));
        return ExitCode::from(2);
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("seed must be a non-negative integer, got `{seed}`");
        return ExitCode::from(2);
    };
    let seconds = match args.get(3).map(|s| s.parse::<f64>()) {
        None => 0.0,
        Some(Ok(s)) if s.is_finite() && s >= 0.0 => s,
        Some(_) => {
            eprintln!("seconds must be a non-negative number");
            return ExitCode::from(2);
        }
    };
    // A panicking run is counted and reported, not fatal; keep its
    // message on stderr.
    let line = match mode.as_str() {
        "timed" => timed(&w, seed, seconds),
        "rss" => rss(&w, seed),
        "traced" => traced::traced(&w, seed, seconds).finish(),
        _ => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}
