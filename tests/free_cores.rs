//! Model test for the pack-first free-core index: random farms are driven
//! through submits, completions, sleeps, wakes, crashes and committed
//! transfers, and after every mutation the incrementally refreshed
//! [`FreeCores`] must equal a rebuild from the servers, and its
//! `first_in` must equal the linear `has_free_core` scan over any
//! ascending candidate list. Cases come from the kernel's deterministic
//! [`SimRng`], so every failure reproduces from the fixed seed.

use holdcsim_des::rng::SimRng;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_sched::free_cores::has_free_core;
use holdcsim_sched::{ClusterView, FreeCores};
use holdcsim_server::policy::DeepState;
use holdcsim_server::server::{Effect, EffectBuf, Server, ServerConfig, ServerId, ServerMode};
use holdcsim_server::task::TaskHandle;
use holdcsim_workload::ids::{JobId, TaskId};

/// Server counts straddling the 64-bit word boundaries.
const SIZES: [u32; 5] = [1, 63, 64, 65, 200];
const CASES: usize = 4;

/// A farm plus the driver-side books the index depends on.
struct Farm {
    servers: Vec<Server>,
    committed: Vec<u32>,
    /// Busy cores per server, as reported by `TaskStarted` effects.
    running: Vec<Vec<u32>>,
    /// Server class per id (for class-filtered candidate lists).
    class: Vec<u32>,
    free: FreeCores,
    fx: EffectBuf,
    now: SimTime,
    next_job: u64,
}

impl Farm {
    fn new(n: u32, rng: &mut SimRng) -> Self {
        let servers: Vec<Server> = (0..n)
            .map(|i| {
                let cores = 1 + rng.below(4) as u32;
                Server::new(SimTime::ZERO, ServerId(i), ServerConfig::new(cores))
            })
            .collect();
        let class = (0..n).map(|_| rng.below(3) as u32).collect();
        // Claim every core of a random prefix, so the first free server
        // sits anywhere from the first word to past the last.
        let claimed = rng.below(u64::from(n) + 1) as usize;
        let committed: Vec<u32> = (0..n as usize)
            .map(|i| {
                if i < claimed {
                    servers[i].core_count()
                } else {
                    0
                }
            })
            .collect();
        Farm {
            free: FreeCores::from_servers(&servers, &committed),
            committed,
            running: vec![Vec::new(); n as usize],
            class,
            fx: EffectBuf::new(),
            now: SimTime::ZERO,
            next_job: 0,
            servers,
        }
    }

    /// Records the cores a server call started, then refreshes its bit.
    fn settle(&mut self, i: usize) {
        for e in self.fx.as_slice() {
            if let Effect::TaskStarted { core, .. } = *e {
                self.running[i].push(core);
            }
        }
        self.free
            .refresh(ServerId(i as u32), &self.servers[i], self.committed[i]);
    }

    /// One random mutation of server `i`.
    fn step(&mut self, i: usize, rng: &mut SimRng) {
        self.now += SimDuration::from_micros(1 + rng.below(50));
        let now = self.now;
        let s = &mut self.servers[i];
        let transitional = matches!(s.mode(), ServerMode::Suspending(_) | ServerMode::Resuming);
        match rng.below(8) {
            0 | 1 => {
                self.next_job += 1;
                let t = TaskHandle::new(
                    TaskId::new(JobId(self.next_job), 0),
                    SimDuration::from_millis(1),
                );
                s.submit(now, t, &mut self.fx);
            }
            2 | 3 if !self.running[i].is_empty() => {
                let k = rng.below(self.running[i].len() as u64) as usize;
                let core = self.running[i].swap_remove(k);
                s.complete(now, core, &mut self.fx);
            }
            4 if transitional => s.transition_done(now, &mut self.fx),
            4 => s.request_deep_sleep(now, DeepState::SuspendToRam, &mut self.fx),
            5 => s.request_wake(now, &mut self.fx),
            6 if rng.chance(0.1) => {
                let mut killed = Vec::new();
                s.fail(now, &mut killed);
                self.running[i].clear();
                self.fx.clear();
            }
            _ if self.committed[i] > 0 && rng.chance(0.5) => {
                self.committed[i] -= 1;
                self.fx.clear();
            }
            _ => {
                self.committed[i] += 1;
                self.fx.clear();
            }
        }
        self.settle(i);
    }

    fn linear_first(&self, candidates: &[ServerId]) -> Option<ServerId> {
        candidates.iter().copied().find(|&id| {
            let i = id.0 as usize;
            has_free_core(&self.servers[i], self.committed[i])
        })
    }

    fn check_queries(&self, rng: &mut SimRng) {
        let n = self.servers.len() as u32;
        let all: Vec<ServerId> = (0..n).map(ServerId).collect();
        let keep = rng.uniform_f64();
        let subset: Vec<ServerId> = all.iter().copied().filter(|_| rng.chance(keep)).collect();
        let c = rng.below(3) as u32;
        let classed: Vec<ServerId> = subset
            .iter()
            .copied()
            .filter(|id| self.class[id.0 as usize] == c)
            .collect();
        let lo = rng.below(u64::from(n)) as u32;
        let tail: Vec<ServerId> = (lo..n).map(ServerId).collect();
        let view = ClusterView::with_committed(&self.servers, &self.committed, &self.free);
        for cands in [&all, &subset, &classed, &tail, &Vec::new()] {
            let want = self.linear_first(cands);
            assert_eq!(self.free.first_in(cands), want, "candidates {cands:?}");
            assert_eq!(view.first_free(cands), want);
        }
    }
}

#[test]
fn refreshed_index_matches_a_rebuild_and_the_linear_scan() {
    let mut rng = SimRng::seed_from(0xF4EE_C0DE);
    for n in SIZES {
        for _case in 0..CASES {
            let mut farm = Farm::new(n, &mut rng);
            farm.check_queries(&mut rng);
            for op in 0..10 * n as usize + 100 {
                let i = rng.below(u64::from(n)) as usize;
                farm.step(i, &mut rng);
                assert_eq!(
                    farm.free,
                    FreeCores::from_servers(&farm.servers, &farm.committed),
                    "n = {n}, op {op}: index drifted after mutating server {i}"
                );
                if op % 7 == 0 {
                    farm.check_queries(&mut rng);
                }
            }
        }
    }
}
