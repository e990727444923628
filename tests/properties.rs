//! Property-style tests on the core data structures and invariants,
//! spanning crates. Cases are generated with the kernel's own
//! deterministic [`SimRng`] rather than an external property-testing
//! crate, so the workspace stays dependency-free and every failure is
//! reproducible from the fixed seed.

use holdcsim_des::queue::EventQueue;
use holdcsim_des::rng::SimRng;
use holdcsim_des::stats::{SampleSet, Tally, TimeWeighted};
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_network::flow::{FlowNet, FlowSolverKind};
use holdcsim_network::ids::{FlowId, LinkId};
use holdcsim_network::routing::Router;
use holdcsim_network::topologies::{fat_tree, star, LinkSpec};
use holdcsim_workload::dag::{JobDag, TaskSpec};

const CASES: usize = 64;

/// The event calendar pops in nondecreasing time order and FIFO within a
/// timestamp, regardless of push order.
#[test]
fn queue_pops_sorted() {
    let mut rng = SimRng::seed_from(0xC0FFEE);
    for _ in 0..CASES {
        let n = 1 + rng.below(200) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_nanos(rng.below(1_000)), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt);
                if t == lt {
                    assert!(i > li, "FIFO violated within a timestamp");
                }
            }
            last = Some((t, i));
        }
    }
}

/// Interleaved pushes and pops match a sorted `(time, push order)`
/// reference exactly: FIFO among several events at one instant, and the
/// extreme instants `SimTime::ZERO` and `SimTime::MAX` (the bounds of the
/// calendar's packed `(time << 64) | seq` key) order like any other.
#[test]
fn queue_order_matches_sorted_reference() {
    let mut rng = SimRng::seed_from(0x0D3E5);
    // A small pool of instants, so several events share each one.
    let instants = [
        SimTime::ZERO,
        SimTime::from_nanos(1),
        SimTime::from_nanos(7),
        SimTime::from_nanos(1 << 40),
        SimTime::from_nanos(u64::MAX - 1),
        SimTime::MAX,
    ];
    let (mut max_ties, mut zero_pops, mut max_pops) = (0, 0, 0);
    for _ in 0..CASES {
        let mut q = EventQueue::new();
        // Reference: every queued `(time, push index)`, popped by minimum.
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let mut pushed = 0usize;
        for _ in 0..1 + rng.below(300) {
            if model.is_empty() || rng.chance(0.6) {
                let at = *rng.choose(&instants).expect("non-empty pool");
                q.push(at, pushed);
                model.push((at, pushed));
                pushed += 1;
                let ties = model.iter().filter(|(t, _)| *t == at).count();
                max_ties = max_ties.max(ties);
            } else {
                let min = (0..model.len())
                    .min_by_key(|&i| model[i])
                    .expect("model non-empty");
                let want = model.swap_remove(min);
                assert_eq!(q.peek_time(), Some(want.0));
                assert_eq!(q.pop(), Some(want));
                zero_pops += usize::from(want.0 == SimTime::ZERO);
                max_pops += usize::from(want.0 == SimTime::MAX);
            }
            assert_eq!(q.len(), model.len());
        }
        model.sort_unstable();
        let rest: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, model);
        assert!(q.is_empty());
    }
    assert!(max_ties >= 3, "cases must hold >= 3 events at one instant");
    assert!(
        zero_pops > 0 && max_pops > 0,
        "extreme instants must be popped"
    );
}

/// Welford tally matches the naive two-pass computation.
#[test]
fn tally_matches_naive() {
    let mut rng = SimRng::seed_from(0x7A11);
    for _ in 0..CASES {
        let n = 2 + rng.below(200) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1e6, 1e6)).collect();
        let tally: Tally = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((tally.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        assert!((tally.population_variance() - var).abs() <= 1e-4 * var.max(1.0));
    }
}

/// Time-weighted integral is invariant to splitting an interval with
/// redundant set() calls.
#[test]
fn timeweighted_split_invariance() {
    let mut rng = SimRng::seed_from(0x7133);
    for _ in 0..CASES {
        let v = rng.uniform_range(-100.0, 100.0);
        let t1 = 1 + rng.below(1_000);
        let t2 = 1 + rng.below(1_000);
        let end = SimTime::from_nanos(t1 + t2);
        let plain = TimeWeighted::new(SimTime::ZERO, v);
        let mut split = TimeWeighted::new(SimTime::ZERO, v);
        split.set(SimTime::from_nanos(t1), v);
        assert!((plain.integral(end) - split.integral(end)).abs() < 1e-9);
    }
}

/// Nearest-rank quantiles are actual observed samples and monotone in q.
#[test]
fn quantiles_are_samples_and_monotone() {
    let mut rng = SimRng::seed_from(0x9A27);
    for _ in 0..CASES {
        let n = 1 + rng.below(100) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.0, 1e3)).collect();
        let mut s = SampleSet::unbounded();
        for &x in &xs {
            s.record(x);
        }
        let qs = s.quantiles(&[0.1, 0.5, 0.9, 1.0]);
        let mut prev = f64::NEG_INFINITY;
        for q in qs.into_iter().flatten() {
            assert!(xs.contains(&q));
            assert!(q >= prev);
            prev = q;
        }
    }
}

/// Random layered DAGs from the builder are acyclic with consistent
/// adjacency, and the critical path never exceeds total work.
#[test]
fn dag_invariants() {
    let mut rng = SimRng::seed_from(0xDA6);
    for _ in 0..CASES {
        let layers_n = 1 + rng.below(4) as usize;
        let layer_sizes: Vec<u32> = (0..layers_n).map(|_| 1 + rng.below(3) as u32).collect();
        let service_ms = 1 + rng.below(49);
        let mut b = JobDag::builder();
        let mut idx = 0u32;
        let mut layers: Vec<Vec<u32>> = Vec::new();
        for &w in &layer_sizes {
            let mut layer = Vec::new();
            for _ in 0..w {
                b = b.task(TaskSpec::compute(SimDuration::from_millis(service_ms)));
                if let Some(prev) = layers.last() {
                    b = b.edge(prev[0], idx, 10);
                }
                layer.push(idx);
                idx += 1;
            }
            layers.push(layer);
        }
        let dag = b.build().expect("layered construction is acyclic");
        assert!(dag.critical_path() <= dag.total_work());
        assert_eq!(dag.topo_order().len(), dag.len());
        for &r in dag.roots() {
            assert!(dag.predecessors(r).is_empty());
        }
    }
}

/// Max-min fair allocation never oversubscribes a link, and the total
/// rate of flows through the star's hub is positive when flows exist.
#[test]
fn flow_rates_respect_capacity() {
    let mut rng = SimRng::seed_from(0xF10);
    for _ in 0..CASES {
        let built = star(6, LinkSpec::gigabit());
        let mut router = Router::new();
        let mut net = FlowNet::new(&built.topology);
        let mut id = 0u64;
        let pairs_n = 1 + rng.below(20) as usize;
        for _ in 0..pairs_n {
            let a = rng.below(6) as usize;
            let b = rng.below(6) as usize;
            if a == b {
                continue;
            }
            let (ha, hb) = (built.hosts[a], built.hosts[b]);
            let route = router
                .route(&built.topology, ha, hb, id)
                .expect("star connected");
            net.add_flow(SimTime::ZERO, FlowId(id), ha, hb, &route.links, 1_000);
            id += 1;
        }
        for l in 0..built.topology.links().len() {
            let u = net.link_utilization(LinkId(l as u32));
            assert!(u <= 1.0 + 1e-9, "link {l} oversubscribed: {u}");
        }
    }
}

/// One randomized flow-churn pass over a fat tree: add random-pair
/// flows, cancel some, and run completions, reporting each live flow's
/// rate after every op via `observe` and every completion batch via
/// `completions`.
fn drive_flow_churn(
    net: &mut FlowNet,
    trial: u64,
    mut observe: impl FnMut(u64, FlowId, f64),
    mut completions: impl FnMut(u64, &[(FlowId, SimTime)]),
) {
    let built = fat_tree(4, LinkSpec::gigabit());
    let topo = built.topology;
    let hosts = built.hosts;
    let mut router = Router::new();
    let mut rng = SimRng::seed_from(0x11C7EA).substream(trial);
    let mut live: Vec<(u64, FlowId)> = Vec::new();
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;
    for step in 0..300u64 {
        now += SimDuration::from_micros(1 + rng.below(40));
        match rng.below(10) {
            0..=4 => {
                let i = rng.below(16) as usize;
                let j = (i + 1 + rng.below(15) as usize) % 16;
                let links = router.route(&topo, hosts[i], hosts[j], next_id).unwrap();
                let id = FlowId(next_id);
                next_id += 1;
                let key = net.add_flow(
                    now,
                    id,
                    hosts[i],
                    hosts[j],
                    &links.links,
                    1 + rng.below(4_000_000),
                );
                live.push((key, id));
            }
            5..=7 if !live.is_empty() => {
                let i = rng.below(live.len() as u64) as usize;
                let (key, _) = live.swap_remove(i);
                assert!(net.remove_flow(now, key));
            }
            _ => {
                if let Some(due) = net.next_due() {
                    now = now.max(due);
                    net.advance_due(due);
                }
            }
        }
        let done: Vec<(FlowId, SimTime)> = net
            .take_completed()
            .into_iter()
            .map(|c| (c.id, now))
            .collect();
        live.retain(|(_, id)| !done.iter().any(|(d, _)| d == id));
        completions(step, &done);
        for &(_, id) in &live {
            observe(step, id, net.flow_rate_bps(id).expect("live flow is rated"));
        }
    }
}

/// Satellite check: over arbitrary add/remove/complete sequences on
/// fat-tree topologies, the cohort solver's rates match the reference
/// progressive-filling solver within 1e-9 (relative; plus a couple of
/// 2⁻²⁰ bps quanta absolute — the fixed-point max-min solution is
/// non-unique at exact floor ties).
#[test]
fn cohort_flow_solver_matches_reference_on_fat_trees() {
    for trial in 0..6u64 {
        let built = fat_tree(4, LinkSpec::gigabit());
        let mut reference = FlowNet::with_solver(&built.topology, FlowSolverKind::Reference);
        let mut cohort = FlowNet::with_solver(&built.topology, FlowSolverKind::Cohort);
        let mut ref_rates: Vec<(u64, u64, f64)> = Vec::new();
        let mut cohort_rates: Vec<(u64, u64, f64)> = Vec::new();
        let mut ref_done: Vec<(FlowId, SimTime)> = Vec::new();
        let mut cohort_done: Vec<(FlowId, SimTime)> = Vec::new();
        drive_flow_churn(
            &mut reference,
            trial,
            |step, id, rate| ref_rates.push((step, id.0, rate)),
            |_, done| ref_done.extend_from_slice(done),
        );
        drive_flow_churn(
            &mut cohort,
            trial,
            |step, id, rate| cohort_rates.push((step, id.0, rate)),
            |_, done| cohort_done.extend_from_slice(done),
        );
        assert_eq!(ref_rates.len(), cohort_rates.len(), "trial {trial}");
        let quantum = 1.0 / (1u64 << 20) as f64;
        for (&(s, id, ra), &(_, _, rb)) in ref_rates.iter().zip(&cohort_rates) {
            assert!(
                (ra - rb).abs() <= (1e-9 * ra.max(rb)).max(4.0 * quantum),
                "trial {trial} step {s} flow {id}: {ra} vs {rb}"
            );
        }
        let ids_a: Vec<FlowId> = ref_done.iter().map(|&(id, _)| id).collect();
        let ids_b: Vec<FlowId> = cohort_done.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids_a, ids_b, "trial {trial}: completion sequences differ");
    }
}

/// One randomized batched-churn pass: admissions arrive in bursts via
/// `add_flow_batched` + `flush` (half biased into an incast on host 0),
/// interleaved with cancellations and completion advances. Returns the
/// full rate trajectory and every completion with the instant it was
/// harvested at (the due for advances, the op time otherwise).
/// `(step, flow id, rate bps)` samples plus `(flow, harvest instant)`
/// completions from one churn pass.
type ChurnTrace = (Vec<(u64, u64, f64)>, Vec<(FlowId, SimTime)>);

fn drive_batched_churn(net: &mut FlowNet, trial: u64) -> ChurnTrace {
    let built = fat_tree(4, LinkSpec::gigabit());
    let topo = built.topology;
    let hosts = built.hosts;
    let mut router = Router::new();
    let mut rng = SimRng::seed_from(0xBA7C4).substream(trial);
    let mut live: Vec<(u64, FlowId)> = Vec::new();
    let mut rates: Vec<(u64, u64, f64)> = Vec::new();
    let mut done: Vec<(FlowId, SimTime)> = Vec::new();
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;
    for step in 0..200u64 {
        now += SimDuration::from_micros(1 + rng.below(40));
        let mut instant = now;
        match rng.below(10) {
            0..=4 => {
                // An admission wave: one flush-time solve covers it all.
                let burst = 1 + rng.below(6);
                for _ in 0..burst {
                    let i = 1 + rng.below(15) as usize;
                    let j = if rng.below(2) == 0 {
                        0 // incast: converge on host 0's downlink
                    } else {
                        (i + 1 + rng.below(14) as usize) % 16
                    };
                    if i == j {
                        continue;
                    }
                    let links = router.route(&topo, hosts[i], hosts[j], next_id).unwrap();
                    let id = FlowId(next_id);
                    next_id += 1;
                    let key = net.add_flow_batched(
                        now,
                        id,
                        hosts[i],
                        hosts[j],
                        &links.links,
                        1 + rng.below(2_000_000),
                    );
                    live.push((key, id));
                }
                net.flush(now);
            }
            5..=6 if !live.is_empty() => {
                let i = rng.below(live.len() as u64) as usize;
                let (key, _) = live.swap_remove(i);
                assert!(net.remove_flow(now, key));
            }
            _ => {
                if let Some(due) = net.next_due() {
                    now = now.max(due);
                    instant = due;
                    net.advance_due(due);
                }
            }
        }
        let batch: Vec<(FlowId, SimTime)> = net
            .take_completed()
            .into_iter()
            .map(|c| (c.id, instant))
            .collect();
        live.retain(|(_, id)| !batch.iter().any(|(d, _)| d == id));
        done.extend(batch);
        for &(_, id) in &live {
            rates.push((
                step,
                id.0,
                net.flow_rate_bps(id).expect("live flow is rated"),
            ));
        }
    }
    (rates, done)
}

/// Tentpole equivalence property: arbitrary batched-admission /
/// cancellation / completion sequences produce identical rate
/// trajectories and completion instants across both solver arms.
/// Rates match to fixed-point quanta; completion instants to the 1 ns
/// ceil-guard the due computation carries.
#[test]
fn flow_solver_arms_agree_on_batched_incast_churn() {
    let kinds = [FlowSolverKind::Reference, FlowSolverKind::Cohort];
    for trial in 0..4u64 {
        let built = fat_tree(4, LinkSpec::gigabit());
        let runs: Vec<ChurnTrace> = kinds
            .iter()
            .map(|&kind| {
                let mut net = FlowNet::with_solver(&built.topology, kind);
                drive_batched_churn(&mut net, trial)
            })
            .collect();
        let (ref_rates, ref_done) = &runs[0];
        let quantum = 1.0 / (1u64 << 20) as f64;
        for (run, kind) in runs[1..].iter().zip(&kinds[1..]) {
            let (rates, done) = run;
            assert_eq!(ref_rates.len(), rates.len(), "trial {trial} vs {kind:?}");
            for (&(s, id, ra), &(_, _, rb)) in ref_rates.iter().zip(rates) {
                assert!(
                    (ra - rb).abs() <= (1e-9 * ra.max(rb)).max(4.0 * quantum),
                    "trial {trial} step {s} flow {id}: {ra} vs {rb} ({kind:?})"
                );
            }
            assert_eq!(ref_done.len(), done.len(), "trial {trial} vs {kind:?}");
            for (&(ida, ta), &(idb, tb)) in ref_done.iter().zip(done) {
                assert_eq!(ida, idb, "trial {trial}: completion order ({kind:?})");
                let gap = ta.max(tb).saturating_duration_since(ta.min(tb));
                assert!(
                    gap <= SimDuration::from_nanos(1),
                    "trial {trial} flow {ida}: completion {ta} vs {tb} ({kind:?})"
                );
            }
        }
    }
}

/// Satellite check: flow completions under the cohort solver are
/// bitwise deterministic — two runs of the same fixed-seed churn produce
/// identical completion sequences, rates, and instants.
#[test]
fn flow_completions_bitwise_deterministic_under_cohort_solver() {
    let run = |trial: u64| {
        let built = fat_tree(4, LinkSpec::gigabit());
        let mut net = FlowNet::with_solver(&built.topology, FlowSolverKind::Cohort);
        let mut rates: Vec<u64> = Vec::new();
        let mut done: Vec<(FlowId, SimTime)> = Vec::new();
        drive_flow_churn(
            &mut net,
            trial,
            |_, _, rate| rates.push(rate.to_bits()),
            |_, batch| done.extend_from_slice(batch),
        );
        (rates, done)
    };
    for trial in 0..3u64 {
        assert_eq!(run(trial), run(trial), "trial {trial}");
    }
}

/// ECMP routes in a fat tree are always shortest and loop-free.
#[test]
#[allow(clippy::disallowed_types)] // loop-detection set; order unobserved
fn fat_tree_routes_shortest_loop_free() {
    let mut rng = SimRng::seed_from(0xFA7);
    let built = fat_tree(4, LinkSpec::gigabit());
    let mut router = Router::new();
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let a = rng.below(16) as usize;
        let b = rng.below(16) as usize;
        let (ha, hb) = (built.hosts[a], built.hosts[b]);
        let route = router
            .route(&built.topology, ha, hb, seed)
            .expect("connected");
        let dist = router.distance(&built.topology, ha, hb).expect("connected");
        assert_eq!(route.hops() as u32, dist);
        let mut seen = std::collections::HashSet::new();
        for n in &route.nodes {
            assert!(seen.insert(*n), "loop at {n}");
        }
    }
}
