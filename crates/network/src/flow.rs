//! Flow-level communication: max-min fair bandwidth sharing (§III-B:
//! "Multiple flows ... can simultaneously travel along a link if it has not
//! yet been saturated").
//!
//! [`FlowNet`] tracks active flows and assigns each the max-min fair rate
//! over its route via progressive filling. Rates are recomputed on every
//! flow arrival/departure by one of two arms ([`FlowSolverKind`]):
//!
//! * [`FlowSolverKind::Cohort`] — the production arm (the
//!   `flow_cohort` module). Every bottleneck cohort — the flows fixed at
//!   one link's fair share — is one *rate cell* with a virtual-time
//!   clock, and only the *dirty set* is re-solved: a change pulls in
//!   exactly the cells whose bottleneck link is affected, charges every
//!   untouched cell crossing a dirty link as a fixed reservation against
//!   that link's capacity, and re-runs progressive filling on the small
//!   sub-problem, popping bottlenecks from a per-round heap of link fair
//!   shares. A post-solve audit expands the set and re-solves in the
//!   (rare) case a dirty link's new fair level undercuts a reserved
//!   rate. Cells outside the dirty set keep their rates and completion
//!   entries, and a rate shift costs O(links) per cell instead of
//!   O(flows).
//! * [`FlowSolverKind::Reference`] — the textbook global solve over
//!   per-flow state: reset every link, scan the used-link working set for
//!   the bottleneck each round. O(used links × bottleneck rounds) per
//!   change. The oracle the cohort arm is tested against.
//!
//! Fair shares are computed in exact fixed-point integer arithmetic
//! (2⁻²⁰ bits/second units, floor division), so capacity reservations
//! are order-independent — the exactness the cohort arm's budget sums
//! rely on. Both arms pick bottlenecks by the canonical `(fair share,
//! link index)` order; at exact floor ties the (non-unique) quantized
//! max-min solution may assign shares that differ by one 2⁻²⁰ bps
//! quantum between the arms, ~10⁻¹⁵ relative at gigabit rates — far
//! below the 1 ns event resolution, so the A/B arms of the driving
//! simulation produce identical event trajectories.
//!
//! Completion scheduling is *delta-driven*: the cohort arm keeps one
//! projected-completion entry per cell in a position-indexed min-heap
//! (the reference arm caches one instant per flow and scans them). A
//! re-solve updates, in place, only the entries whose rate actually
//! changed; unchanged rates are never settled and keep their entry. The
//! driving simulation keeps a *single* calendar event armed at
//! [`FlowNet::next_due`] and calls [`FlowNet::advance_due`] when it
//! fires — the event calendar sees roughly one event per completion
//! instead of a cancel/reinsert per flow per rate change (which is
//! quadratic when a saturated fabric re-shares rates on every
//! admission). Admissions landing in the same
//! event are batched into one re-solve ([`FlowNet::add_flow_batched`] +
//! [`FlowNet::flush`]) — exact under max-min, whose rates depend only on
//! the final flow set at an instant.
//!
//! Flow states live in a [`SlotWindow`] (no hash probe per lookup), and
//! all solver working sets are persistent scratch — steady-state admission
//! and completion perform no allocation (flow states, including their
//! route vectors, are recycled through a pool).

use holdcsim_des::slot_window::SlotWindow;
use holdcsim_des::time::{SimDuration, SimTime};

use crate::flow_cohort::CohortNet;
use crate::ids::{FlowId, LinkId, NodeId};
use crate::topology::Topology;

/// Sentinel bottleneck index for flows not currently fixed by any link
/// (just admitted, or fixed at rate 0 by the route-less fallback).
pub(crate) const NO_BOTTLENECK: u32 = u32::MAX;

/// Fair-share fixed-point scale: rates and link budgets are integers in
/// units of 2⁻²⁰ bits/second. Integer arithmetic keeps capacity
/// reservations order-independent (the cohort solver's correctness
/// hinges on exact sums), while the sub-micro-bps quantum keeps both
/// solver arms' rates equal to ~10⁻¹⁵ relative — far below the 1 ns
/// event resolution, so the arms produce identical trajectories.
const RATE_FRAC_BITS: u32 = 20;

/// One bit/second in rate units.
pub(crate) const RATE_UNIT_PER_BPS: u64 = 1 << RATE_FRAC_BITS;

/// One byte of payload in *progress units*: the exact-integer scale on
/// which flow progress is tracked. A flow at `r` rate units drains
/// exactly `r` progress units per nanosecond (rate units × ns), so a
/// payload of `bytes` spans `bytes · 8 · 2²⁰ · 10⁹` progress units.
/// Settling is an exact integer multiply-subtract, completion instants
/// are exact ceiling divisions, and — because integer sums are
/// associative — *any* schedule of partial settles lands on the same
/// remainder bitwise. That associativity is what lets the cohort arm
/// account progress on a shared per-cell virtual clock and still
/// reproduce the per-flow arms' completion instants exactly.
pub(crate) const PROGRESS_PER_BYTE: u128 = 8 * RATE_UNIT_PER_BPS as u128 * 1_000_000_000;

/// `bytes` of payload in progress units.
#[inline]
pub(crate) fn progress_units(bytes: u64) -> u128 {
    bytes as u128 * PROGRESS_PER_BYTE
}

/// Exact progress drained over `dt_ns` at `rate_units`.
#[inline]
pub(crate) fn drained_units(rate_units: u64, dt_ns: u64) -> u128 {
    rate_units as u128 * dt_ns as u128
}

/// The exact time to drain `remaining` progress units at `rate_units`:
/// ceil(remaining / rate), saturating at the far end of sim time for
/// degenerate rates (a sub-bps trickle on a huge payload never fires
/// within any horizon).
#[inline]
pub(crate) fn due_after(remaining: u128, rate_units: u64) -> SimDuration {
    debug_assert!(rate_units > 0);
    let ns = remaining.div_ceil(rate_units as u128);
    SimDuration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
}

/// Route links stored inline in a [`FlowState`] (covers every fat-tree
/// route; longer routes spill to the heap).
const INLINE_LINKS: usize = 8;

/// A flow's route links, inline up to [`INLINE_LINKS`] with heap spill —
/// the solver iterates a flow's links several times per re-solve, and
/// keeping them in the flow's own cache lines avoids a pointer chase per
/// touch.
#[derive(Debug, Clone)]
pub(crate) struct RouteLinks {
    inline: [LinkId; INLINE_LINKS],
    len: u8,
    spill: Vec<LinkId>,
}

impl Default for RouteLinks {
    fn default() -> Self {
        RouteLinks {
            inline: [LinkId(0); INLINE_LINKS],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl RouteLinks {
    pub(crate) fn set(&mut self, links: &[LinkId]) {
        self.spill.clear();
        if links.len() <= INLINE_LINKS {
            self.inline[..links.len()].copy_from_slice(links);
            self.len = links.len() as u8;
        } else {
            self.spill.extend_from_slice(links);
            self.len = 0;
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[LinkId] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

/// One active flow's state.
#[derive(Debug, Clone)]
struct FlowState {
    /// The caller's flow id, echoed back in [`CompletedFlow`].
    id: FlowId,
    links: RouteLinks,
    /// Undelivered payload in exact progress units (see
    /// [`PROGRESS_PER_BYTE`]); `0` ⇔ the flow is done.
    remaining: u128,
    /// The current fair rate in fixed-point units of 2⁻²⁰ bits/second
    /// (fair shares are computed with exact integer arithmetic).
    rate_units: u64,
    /// The rate the in-progress solve assigned (promoted to `rate_units`
    /// by the post-solve diff pass only if it actually changed).
    new_rate: u64,
    /// The link whose progressive-filling round fixed this flow (test
    /// dumps only).
    bottleneck: u32,
    /// When `remaining` was last settled. Only flows whose rate
    /// changes are settled; an untouched flow's progress is implied by
    /// `(last_update, rate_units)`.
    last_update: SimTime,
    src: NodeId,
    dst: NodeId,
    started: SimTime,
    total: u128,
    /// The projected completion instant (`None` at rate 0), recomputed
    /// whenever the rate changes.
    due: Option<SimTime>,
    /// Outside a solve: `true` (rate is settled). During a solve: `false`
    /// until the flow's bottleneck round fixes it.
    fixed: bool,
}

impl FlowState {
    /// The current rate in bits/second.
    fn rate_bps(&self) -> f64 {
        self.rate_units as f64 / RATE_UNIT_PER_BPS as f64
    }

    /// Advances progress to `now` at the current rate — an exact
    /// integer multiply-subtract, so any settle schedule yields the
    /// same remainder.
    fn settle(&mut self, now: SimTime) {
        let dt = now.saturating_duration_since(self.last_update).as_nanos();
        if dt > 0 {
            self.remaining = self
                .remaining
                .saturating_sub(drained_units(self.rate_units, dt));
        }
        self.last_update = now;
    }

    /// The exact instant this flow's completion event should fire: the
    /// ceiling of remaining/rate lands the event on the first whole
    /// nanosecond at which the payload has fully drained (`None` at
    /// rate 0). Call right after a settle.
    fn projected_due(&self) -> Option<SimTime> {
        (self.rate_units > 0).then(|| {
            self.last_update
                .saturating_add(due_after(self.remaining, self.rate_units))
        })
    }
}

/// A completed flow, as reported by [`FlowNet::take_completed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedFlow {
    /// The flow that finished.
    pub id: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// When the flow was admitted.
    pub started: SimTime,
}

/// Selects the fair-share solver implementation of a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowSolverKind {
    /// Global progressive filling over the whole used-link working set on
    /// every change, with per-flow rates and completion entries (the
    /// oracle arm for tests and cross-arm checks).
    Reference,
    /// Cohort-level rate cells with per-cell virtual-time clocks: every
    /// bottleneck cohort (the flows fixed at one link's fair share) is
    /// one cell, so a rate-level shift is O(1) per affected *link*
    /// instead of per flow, and completion instants are read off
    /// accumulated virtual time instead of being retimed per flow. Only
    /// cells whose bottleneck is transitively affected by a change are
    /// re-solved. The production arm; byte-identical trajectories to
    /// the reference arm.
    #[default]
    Cohort,
}

impl FlowSolverKind {
    /// The CLI/report label of this solver arm.
    pub fn label(self) -> &'static str {
        match self {
            FlowSolverKind::Reference => "reference",
            FlowSolverKind::Cohort => "cohort",
        }
    }
}

/// The per-flow backend of the [`Reference`] arm — the oracle the
/// cohort engine is checked against. Every flow carries its own rate,
/// progress remainder, and projected completion (`next_due` scans
/// them); each change re-runs global progressive filling over the
/// used-link working set
/// (bottlenecks picked by the canonical `(share, link index)` order with
/// linear scans), and the diff pass settles/retimes exactly the flows
/// whose rate changed. O(used links × bottleneck rounds) per change.
///
/// [`Reference`]: FlowSolverKind::Reference
#[derive(Debug)]
pub(crate) struct PerFlowNet {
    capacity_bps: Vec<u64>,
    /// Active flows, keyed by admission order (internal keys — callers
    /// address flows by their [`FlowId`], carried inside the state).
    flows: SlotWindow<FlowState>,
    flows_per_link: Vec<Vec<u64>>,
    /// Link indices that may carry flows, lazily pruned by the solve.
    used_links: Vec<usize>,
    used_mask: Vec<bool>,
    /// Residual capacity per link (solve scratch, refreshed only for
    /// used links).
    cap: Vec<u64>,
    /// Unfixed-flow count per link (solve scratch).
    cnt: Vec<usize>,
    /// Flows fixed at the current bottleneck (solve scratch).
    fixing: Vec<u64>,
    completed: Vec<CompletedFlow>,
    total_admitted: u64,
    /// Recycled flow states: completed flows return here so admissions
    /// reuse their route-vector allocations.
    pool: Vec<FlowState>,
    /// A re-solve is pending (flows were admitted or removed).
    pending: bool,
    /// Sim time of the pending admission batch (batches never span two
    /// instants; debug-asserted).
    pending_since: SimTime,
    /// Live flows at the most recent solve (every one is re-rated).
    last_solve_touched: usize,
    /// Flows detected complete during the diff pass or due at an
    /// advance, as `(due, key)` (completion-order scratch).
    scratch_done: Vec<(SimTime, u64)>,
}

/// `topo`'s link capacities in rate units (2⁻²⁰ bps).
pub(crate) fn link_capacities(topo: &Topology) -> Vec<u64> {
    topo.links()
        .iter()
        .map(|l| {
            l.rate_bps
                .checked_mul(RATE_UNIT_PER_BPS)
                .expect("link rate fits the fixed-point range (< ~17 Tb/s)")
        })
        .collect()
}

impl PerFlowNet {
    /// Creates a reference-arm network over `topo`'s links.
    fn new(topo: &Topology) -> Self {
        let capacity_bps = link_capacities(topo);
        let n = capacity_bps.len();
        PerFlowNet {
            capacity_bps,
            flows: SlotWindow::new(),
            flows_per_link: vec![Vec::new(); n],
            used_links: Vec::new(),
            used_mask: vec![false; n],
            cap: vec![0; n],
            cnt: vec![0; n],
            fixing: Vec::new(),
            completed: Vec::new(),
            total_admitted: 0,
            pool: Vec::new(),
            pending: false,
            pending_since: SimTime::ZERO,
            last_solve_touched: 0,
            scratch_done: Vec::new(),
        }
    }

    /// Admits a flow of `bytes` over `links` at `now`, re-solves the
    /// affected component, and returns the flow's key. Reschedule the
    /// completion check if [`next_due`](Self::next_due) moved earlier.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is already active, the route is empty (same-
    /// host transfers never reach the network), or `bytes == 0`.
    pub fn add_flow(
        &mut self,
        now: SimTime,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        links: &[LinkId],
        bytes: u64,
    ) -> u64 {
        let key = self.add_flow_batched(now, id, src, dst, links, bytes);
        self.flush(now);
        key
    }

    /// Like [`add_flow`](Self::add_flow) but defers the re-solve,
    /// accumulating seeds until [`flush`](Self::flush) (or any reading
    /// call that flushes) runs. Admissions that land in the same event —
    /// a task's inbound transfer fan-in — share one re-solve this way;
    /// with max-min fairness the final rates only depend on the final
    /// flow set, so batching at one instant is exact.
    ///
    /// # Panics
    ///
    /// As [`add_flow`](Self::add_flow); additionally (debug) if a batch
    /// spans two distinct sim times without an intervening flush.
    pub fn add_flow_batched(
        &mut self,
        now: SimTime,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        links: &[LinkId],
        bytes: u64,
    ) -> u64 {
        assert!(!links.is_empty(), "flow with empty route");
        assert!(bytes > 0, "flow with no data");
        debug_assert!(
            self.flows.iter().all(|(_, f)| f.id != id),
            "flow id {id} reused while active"
        );
        let mut st = self.pool.pop().unwrap_or_else(|| FlowState {
            id,
            links: RouteLinks::default(),
            remaining: 0,
            rate_units: 0,
            new_rate: 0,
            bottleneck: NO_BOTTLENECK,
            last_update: now,
            src,
            dst,
            started: now,
            total: 0,
            due: None,
            fixed: true,
        });
        st.id = id;
        st.links.set(links);
        st.remaining = progress_units(bytes);
        st.rate_units = 0;
        st.new_rate = 0;
        st.bottleneck = NO_BOTTLENECK;
        st.last_update = now;
        st.src = src;
        st.dst = dst;
        st.started = now;
        st.total = st.remaining;
        st.due = None;
        st.fixed = true;
        let key = self.flows.insert(st);
        debug_assert!(
            !self.pending || self.pending_since == now,
            "a batch must not span sim times; flush first"
        );
        self.pending_since = now;
        for &l in links {
            let li = l.0 as usize;
            if !self.used_mask[li] {
                self.used_mask[li] = true;
                self.used_links.push(li);
            }
            self.flows_per_link[li].push(key);
        }
        self.pending = true;
        self.total_admitted += 1;
        key
    }

    /// Re-solves any batched admissions. A no-op when none are pending.
    pub fn flush(&mut self, now: SimTime) {
        if !self.pending {
            return;
        }
        debug_assert_eq!(self.pending_since, now, "batch flushed at a later instant");
        self.resolve(now);
    }

    /// The earliest projected completion among active flows (a scan —
    /// this is the oracle arm). Arm one calendar event at this instant.
    /// Batched admissions must be flushed first.
    pub fn next_due(&mut self) -> Option<SimTime> {
        debug_assert!(
            !self.pending,
            "flush batched admissions before reading completions"
        );
        self.flows.iter().filter_map(|(_, f)| f.due).min()
    }

    /// Completes every flow whose projection is due at or before `now`
    /// (they land in [`take_completed`](Self::take_completed) in
    /// deterministic `(due, key)` order), then re-solves the freed
    /// component(s) in one batch, retiming neighbors whose rate changed.
    /// A no-op when nothing is due.
    pub fn advance_due(&mut self, now: SimTime) {
        self.flush(now);
        self.advance_due_inner(now);
    }

    fn advance_due_inner(&mut self, now: SimTime) {
        let mut due = std::mem::take(&mut self.scratch_done);
        due.clear();
        due.extend(
            self.flows
                .iter()
                .filter_map(|(k, f)| f.due.filter(|&d| d <= now).map(|d| (d, k))),
        );
        due.sort_unstable();
        for &(_, key) in &due {
            let f = self.flows.get_mut(key).expect("due flow is live");
            f.settle(now);
            // A flow's due *is* the first instant its payload has
            // drained under exact progress accounting.
            debug_assert_eq!(f.remaining, 0, "flow past due with progress left");
            self.unlink(key, true);
        }
        let any = !due.is_empty();
        self.scratch_done = due;
        if any {
            self.resolve(now);
        }
    }

    /// Cancels a live flow (no completion is reported), re-solving the
    /// freed component. Returns `false` if the key is not live.
    pub fn remove_flow(&mut self, now: SimTime, flow: u64) -> bool {
        self.flush(now);
        if !self.flows.contains(flow) {
            return false;
        }
        self.unlink(flow, false);
        self.resolve(now);
        true
    }

    /// Removes `flow` from the tables and optionally reports it
    /// completed.
    fn unlink(&mut self, flow: u64, completed: bool) {
        let f = self.flows.remove(flow).expect("live flow");
        for &l in f.links.as_slice() {
            let li = l.0 as usize;
            self.flows_per_link[li].retain(|&x| x != flow);
        }
        if completed {
            self.completed.push(CompletedFlow {
                id: f.id,
                src: f.src,
                dst: f.dst,
                started: f.started,
            });
        }
        self.pool.push(f);
    }

    /// Global progressive filling: writes every live flow's max-min rate
    /// into its `new_rate` (and its bottleneck link). Bottlenecks are
    /// picked by the canonical `(fair share, link index)` order the
    /// cohort engine shares.
    fn solve(&mut self) {
        let PerFlowNet {
            capacity_bps,
            flows,
            flows_per_link,
            used_links,
            used_mask,
            cap,
            cnt,
            fixing,
            last_solve_touched,
            ..
        } = self;
        *last_solve_touched = flows.len();
        if flows.is_empty() {
            return;
        }
        // Prune links that stopped carrying flows; refresh the residual
        // capacity and unfixed count of the rest.
        used_links.retain(|&li| {
            if flows_per_link[li].is_empty() {
                used_mask[li] = false;
                false
            } else {
                cap[li] = capacity_bps[li];
                cnt[li] = flows_per_link[li].len();
                true
            }
        });
        let mut unfixed = flows.len();
        for (_, f) in flows.iter_mut() {
            f.fixed = false;
        }
        while unfixed > 0 {
            // Bottleneck: minimal (fair share, link index) among loaded
            // links.
            let mut bottleneck: Option<(usize, u64)> = None;
            for &li in used_links.iter() {
                if cnt[li] == 0 {
                    continue;
                }
                let share = cap[li] / cnt[li] as u64;
                let better = match bottleneck {
                    None => true,
                    Some((bl, s)) => share < s || (share == s && li < bl),
                };
                if better {
                    bottleneck = Some((li, share));
                }
            }
            let Some((bl, share)) = bottleneck else {
                // No loaded links left: remaining flows are route-less
                // (cannot happen given add_flow's assertion) — fix at 0.
                for (_, f) in flows.iter_mut() {
                    if !f.fixed {
                        f.fixed = true;
                        f.new_rate = 0;
                        f.bottleneck = NO_BOTTLENECK;
                    }
                }
                break;
            };
            // Fix every unfixed flow crossing the bottleneck at the share.
            fixing.clear();
            fixing.extend(
                flows_per_link[bl]
                    .iter()
                    .copied()
                    .filter(|&k| !flows.get(k).expect("indexed flow exists").fixed),
            );
            debug_assert!(!fixing.is_empty());
            for &key in fixing.iter() {
                let f = flows.get_mut(key).expect("flow exists");
                f.fixed = true;
                f.new_rate = share;
                f.bottleneck = bl as u32;
                unfixed -= 1;
                for &l in f.links.as_slice() {
                    let li = l.0 as usize;
                    cap[li] -= share;
                    cnt[li] -= 1;
                }
            }
        }
    }

    /// Re-solves, settles and retimes the flows whose rate changed, and
    /// completes (then cascades over) flows that turn out to be already
    /// done at `now`.
    fn resolve(&mut self, now: SimTime) {
        self.pending = false;
        loop {
            self.solve();
            let mut done = std::mem::take(&mut self.scratch_done);
            done.clear();
            for (key, f) in self.flows.iter_mut() {
                debug_assert!(f.fixed, "solver left a flow unfixed");
                if f.new_rate == f.rate_units {
                    continue;
                }
                f.settle(now);
                if f.remaining == 0 {
                    // Already finished under its old rate: complete it
                    // now instead of retiming (its own event may be
                    // stale).
                    done.push((now, key));
                    continue;
                }
                f.rate_units = f.new_rate;
                f.due = f.projected_due();
            }
            let finished = done.is_empty();
            // Completions reach the caller in canonical (admission)
            // order.
            done.sort_unstable();
            for &(_, key) in &done {
                self.unlink(key, true);
            }
            self.scratch_done = done;
            if finished {
                return;
            }
            // Completions freed capacity: cascade a re-solve.
        }
    }

    /// Drains the flows that have completed since the last call.
    pub fn take_completed(&mut self) -> Vec<CompletedFlow> {
        std::mem::take(&mut self.completed)
    }

    /// Drains the completed flows without surrendering the buffer
    /// (allocation-free on the driving simulation's hot path).
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, CompletedFlow> {
        self.completed.drain(..)
    }

    /// The projected completion of a live flow with a positive rate (an
    /// observer for tests and tools — the driving simulation arms a
    /// single event at [`next_due`](Self::next_due) instead).
    pub fn completion_of(&self, flow: u64) -> Option<SimTime> {
        self.flows.get(flow)?.due
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total flows ever admitted.
    pub fn total_admitted(&self) -> u64 {
        self.total_admitted
    }

    /// Flows the most recent re-solve re-rated (all live flows) — 0
    /// before any solve.
    pub fn last_solve_touched(&self) -> usize {
        self.last_solve_touched
    }

    /// The current fair rate of `id` in bits/second, if active (a linear
    /// scan — an observer for tests and reports, not the event hot path).
    pub fn flow_rate_bps(&self, id: FlowId) -> Option<f64> {
        self.find(id).map(|f| f.rate_bps())
    }

    /// Fraction of `id`'s bytes delivered by `now` (in `[0, 1]`), if
    /// active (a linear scan — an observer, not the event hot path).
    pub fn flow_progress(&self, id: FlowId, now: SimTime) -> Option<f64> {
        self.find(id).map(|f| {
            let dt = now.saturating_duration_since(f.last_update).as_nanos();
            let rem = f.remaining.saturating_sub(drained_units(f.rate_units, dt));
            1.0 - (rem as f64 / f.total as f64).clamp(0.0, 1.0)
        })
    }

    fn find(&self, id: FlowId) -> Option<&FlowState> {
        self.flows.iter().find(|(_, f)| f.id == id).map(|(_, f)| f)
    }

    /// Test-only state dump: `(id, rate, bottleneck link, route)` per live
    /// flow, sorted by id.
    #[cfg(test)]
    fn dump(&self) -> Vec<(u64, u64, u32, Vec<u32>)> {
        let mut v: Vec<_> = self
            .flows
            .iter()
            .map(|(_, f)| {
                (
                    f.id.0,
                    f.rate_units,
                    f.bottleneck,
                    f.links.as_slice().iter().map(|l| l.0).collect(),
                )
            })
            .collect();
        v.sort();
        v
    }

    /// Fraction of `link`'s capacity currently allocated.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        let cap = self.capacity_bps[link.0 as usize];
        if cap == 0 {
            return 0.0;
        }
        let used: u64 = self.flows_per_link[link.0 as usize]
            .iter()
            .filter_map(|&k| self.flows.get(k))
            .map(|f| f.rate_units)
            .sum();
        used as f64 / cap as f64
    }

    /// Number of active flows crossing `link`.
    pub fn flows_on_link(&self, link: LinkId) -> usize {
        self.flows_per_link[link.0 as usize].len()
    }
}

/// Max-min fair flow-level network model with delta-driven completion
/// retiming, behind one of two solver arms (see [`FlowSolverKind`]): the
/// cohort-cell `cohort` production arm and the per-flow `reference`
/// oracle. Both retrace byte-identical trajectories on the same
/// admission sequence.
///
/// # Examples
///
/// ```
/// use holdcsim_network::flow::FlowNet;
/// use holdcsim_network::ids::FlowId;
/// use holdcsim_network::routing::Router;
/// use holdcsim_network::topologies::{star, LinkSpec};
/// use holdcsim_des::time::SimTime;
///
/// let built = star(4, LinkSpec::gigabit());
/// let mut router = Router::new();
/// let mut net = FlowNet::new(&built.topology);
/// let route = router
///     .route(&built.topology, built.hosts[0], built.hosts[1], 0)
///     .unwrap();
/// let t0 = SimTime::ZERO;
/// net.add_flow(t0, FlowId(1), built.hosts[0], built.hosts[1], &route.links, 125_000_000);
/// // Alone on 1 GbE: 1 Gbit = 125 MB takes exactly 1 s.
/// let due = net.next_due().unwrap();
/// assert!((due.as_secs_f64() - 1.0).abs() < 1e-6);
/// net.advance_due(due);
/// assert_eq!(net.take_completed().len(), 1);
/// ```
#[derive(Debug)]
pub struct FlowNet {
    inner: NetImpl,
}

/// The backend selected by [`FlowNet::with_solver`]: the per-flow
/// reference engine or the cohort-cell engine.
// One instance lives per simulation (inside NetState), so the variant
// size gap costs nothing; boxing would add a pointer chase to every
// solver call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum NetImpl {
    PerFlow(PerFlowNet),
    Cohort(CohortNet),
}

/// Forwards a method through both backends.
macro_rules! forward {
    ($self:ident, $net:ident => $body:expr) => {
        match &$self.inner {
            NetImpl::PerFlow($net) => $body,
            NetImpl::Cohort($net) => $body,
        }
    };
    (mut $self:ident, $net:ident => $body:expr) => {
        match &mut $self.inner {
            NetImpl::PerFlow($net) => $body,
            NetImpl::Cohort($net) => $body,
        }
    };
}

impl FlowNet {
    /// Creates a flow network over `topo`'s links with the default
    /// (cohort) solver.
    pub fn new(topo: &Topology) -> Self {
        Self::with_solver(topo, FlowSolverKind::default())
    }

    /// Creates a flow network over `topo`'s links with the given solver
    /// arm.
    pub fn with_solver(topo: &Topology, kind: FlowSolverKind) -> Self {
        let inner = match kind {
            FlowSolverKind::Cohort => NetImpl::Cohort(CohortNet::new(topo)),
            FlowSolverKind::Reference => NetImpl::PerFlow(PerFlowNet::new(topo)),
        };
        FlowNet { inner }
    }

    /// Admits a flow of `bytes` over `links` at `now`, re-solves the
    /// affected component, and returns the flow's key. Reschedule the
    /// completion check if [`next_due`](Self::next_due) moved earlier.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is already active, the route is empty (same-
    /// host transfers never reach the network), or `bytes == 0`.
    pub fn add_flow(
        &mut self,
        now: SimTime,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        links: &[LinkId],
        bytes: u64,
    ) -> u64 {
        forward!(mut self, n => n.add_flow(now, id, src, dst, links, bytes))
    }

    /// Like [`add_flow`](Self::add_flow) but defers the re-solve,
    /// accumulating seeds until [`flush`](Self::flush) (or any reading
    /// call that flushes) runs. Admissions that land in the same event —
    /// a task's inbound transfer fan-in — share one re-solve this way;
    /// with max-min fairness the final rates only depend on the final
    /// flow set, so batching at one instant is exact.
    ///
    /// # Panics
    ///
    /// As [`add_flow`](Self::add_flow); additionally (debug) if a batch
    /// spans two distinct sim times without an intervening flush.
    pub fn add_flow_batched(
        &mut self,
        now: SimTime,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        links: &[LinkId],
        bytes: u64,
    ) -> u64 {
        forward!(mut self, n => n.add_flow_batched(now, id, src, dst, links, bytes))
    }

    /// Re-solves any batched admissions. A no-op when none are pending.
    pub fn flush(&mut self, now: SimTime) {
        forward!(mut self, n => n.flush(now))
    }

    /// The earliest projected completion among active flows (exact in
    /// both backends — no stale entries are ever reported). Arm one
    /// calendar event at this instant. Batched admissions must be
    /// flushed first.
    pub fn next_due(&mut self) -> Option<SimTime> {
        forward!(mut self, n => n.next_due())
    }

    /// Completes every flow whose projection is due at or before `now`
    /// (they land in [`take_completed`](Self::take_completed) in
    /// deterministic `(due, key)` order), then re-solves the freed
    /// component(s) in one batch, retiming neighbors whose rate changed.
    /// A no-op when nothing is due.
    pub fn advance_due(&mut self, now: SimTime) {
        forward!(mut self, n => n.advance_due(now))
    }

    /// Cancels a live flow (no completion is reported), re-solving the
    /// freed component. Returns `false` if the key is not live.
    pub fn remove_flow(&mut self, now: SimTime, flow: u64) -> bool {
        forward!(mut self, n => n.remove_flow(now, flow))
    }

    /// Drains the flows that have completed since the last call.
    pub fn take_completed(&mut self) -> Vec<CompletedFlow> {
        forward!(mut self, n => n.take_completed())
    }

    /// Drains the completed flows without surrendering the buffer
    /// (allocation-free on the driving simulation's hot path).
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, CompletedFlow> {
        forward!(mut self, n => n.drain_completed())
    }

    /// The projected completion of a live flow with a positive rate (an
    /// observer for tests and tools — the driving simulation arms a
    /// single event at [`next_due`](Self::next_due) instead).
    pub fn completion_of(&self, flow: u64) -> Option<SimTime> {
        forward!(self, n => n.completion_of(flow))
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        forward!(self, n => n.active_flows())
    }

    /// Total flows ever admitted.
    pub fn total_admitted(&self) -> u64 {
        forward!(self, n => n.total_admitted())
    }

    /// Size of the most recent re-solve's dirty set, in flows (the flows
    /// whose rate the solver recomputed) — 0 before any solve. A
    /// locality observable sampled by the metrics probes.
    pub fn last_solve_touched(&self) -> usize {
        forward!(self, n => n.last_solve_touched())
    }

    /// The current fair rate of `id` in bits/second, if active (a linear
    /// scan — an observer for tests and reports, not the event hot path).
    pub fn flow_rate_bps(&self, id: FlowId) -> Option<f64> {
        forward!(self, n => n.flow_rate_bps(id))
    }

    /// Fraction of `id`'s bytes delivered by `now` (in `[0, 1]`), if
    /// active (a linear scan — an observer, not the event hot path).
    pub fn flow_progress(&self, id: FlowId, now: SimTime) -> Option<f64> {
        forward!(self, n => n.flow_progress(id, now))
    }

    /// Fraction of `link`'s capacity currently allocated.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        forward!(self, n => n.link_utilization(link))
    }

    /// Number of active flows crossing `link`.
    pub fn flows_on_link(&self, link: LinkId) -> usize {
        forward!(self, n => n.flows_on_link(link))
    }

    /// Test-only state dump: `(id, rate, bottleneck link, route)` per
    /// live flow, sorted by id.
    #[cfg(test)]
    pub(crate) fn dump(&self) -> Vec<(u64, u64, u32, Vec<u32>)> {
        forward!(self, n => n.dump())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Router;
    use crate::topologies::{star, LinkSpec};
    use crate::topology::Topology;

    const GBE: u64 = 1_000_000_000;

    /// Two hosts joined by a single link through a switch.
    fn two_host_net() -> (Topology, Vec<NodeId>, Router) {
        let built = star(2, LinkSpec::gigabit());
        (built.topology, built.hosts, Router::new())
    }

    fn route_links(
        topo: &Topology,
        router: &mut Router,
        a: NodeId,
        b: NodeId,
        seed: u64,
    ) -> Vec<LinkId> {
        router.route(topo, a, b, seed).unwrap().links
    }

    /// Test driver: advances to and fires the earliest pending completion,
    /// returning the instant it fired at.
    fn fire_next(net: &mut FlowNet) -> Option<SimTime> {
        let due = net.next_due()?;
        net.advance_due(due);
        Some(due)
    }

    fn solver_kinds() -> [FlowSolverKind; 2] {
        [FlowSolverKind::Reference, FlowSolverKind::Cohort]
    }

    #[test]
    fn single_flow_gets_full_rate() {
        for kind in solver_kinds() {
            let (topo, hosts, mut router) = two_host_net();
            let mut net = FlowNet::with_solver(&topo, kind);
            let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
            let key = net.add_flow(
                SimTime::ZERO,
                FlowId(1),
                hosts[0],
                hosts[1],
                &links,
                125_000_000,
            );
            assert_eq!(net.flow_rate_bps(FlowId(1)), Some(1e9));
            let t = net.completion_of(key).unwrap();
            assert!(
                (t.as_secs_f64() - 1.0).abs() < 1e-6,
                "finish {t} ({kind:?})"
            );
        }
    }

    #[test]
    fn two_flows_share_the_bottleneck_evenly() {
        for kind in solver_kinds() {
            let (topo, hosts, mut router) = two_host_net();
            let mut net = FlowNet::with_solver(&topo, kind);
            let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
            net.add_flow(
                SimTime::ZERO,
                FlowId(1),
                hosts[0],
                hosts[1],
                &links,
                125_000_000,
            );
            net.add_flow(
                SimTime::ZERO,
                FlowId(2),
                hosts[0],
                hosts[1],
                &links,
                125_000_000,
            );
            assert_eq!(net.flow_rate_bps(FlowId(1)), Some(5e8));
            assert_eq!(net.flow_rate_bps(FlowId(2)), Some(5e8));
            assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn departure_releases_bandwidth_and_retimes_survivor() {
        for kind in solver_kinds() {
            let (topo, hosts, mut router) = two_host_net();
            let mut net = FlowNet::with_solver(&topo, kind);
            let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
            // Flow 1: 125 MB, flow 2: 250 MB, admitted together.
            net.add_flow(
                SimTime::ZERO,
                FlowId(1),
                hosts[0],
                hosts[1],
                &links,
                125_000_000,
            );
            net.add_flow(
                SimTime::ZERO,
                FlowId(2),
                hosts[0],
                hosts[1],
                &links,
                250_000_000,
            );
            // At 0.5 Gb/s each, flow 1 finishes at t=2 s.
            let t1 = fire_next(&mut net).unwrap();
            assert!((t1.as_secs_f64() - 2.0).abs() < 1e-6, "t1 {t1}");
            let done = net.take_completed();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].id, FlowId(1));
            // Flow 2 now gets the full link: 1 Gb of its 2 Gb remain.
            let rate = net.flow_rate_bps(FlowId(2)).unwrap();
            assert!((rate - 1e9).abs() < 1.0, "rate {rate}");
            let t2 = fire_next(&mut net).unwrap();
            assert!((t2.as_secs_f64() - 3.0).abs() < 1e-6, "t2 {t2}");
            assert_eq!(net.take_completed()[0].id, FlowId(2));
            assert_eq!(net.active_flows(), 0);
        }
    }

    #[test]
    fn max_min_gives_unbottlenecked_flow_the_slack() {
        // Star with 3 hosts: flows A->C and B->C share C's link; flow A->B
        // only contends with A's portion.
        for kind in solver_kinds() {
            let built = star(3, LinkSpec::gigabit());
            let topo = built.topology;
            let h = built.hosts.clone();
            let mut router = Router::new();
            let mut net = FlowNet::with_solver(&topo, kind);
            let ac = route_links(&topo, &mut router, h[0], h[2], 0);
            let bc = route_links(&topo, &mut router, h[1], h[2], 0);
            let ab = route_links(&topo, &mut router, h[0], h[1], 0);
            net.add_flow(SimTime::ZERO, FlowId(1), h[0], h[2], &ac, 1_000_000);
            net.add_flow(SimTime::ZERO, FlowId(2), h[1], h[2], &bc, 1_000_000);
            net.add_flow(SimTime::ZERO, FlowId(3), h[0], h[1], &ab, 1_000_000);
            // C's downlink is the bottleneck: flows 1 and 2 get 0.5 Gb/s,
            // and max-min gives flow 3 min(0.5, 0.5) = 0.5 Gb/s of slack.
            assert!((net.flow_rate_bps(FlowId(1)).unwrap() - 5e8).abs() < 1.0);
            assert!((net.flow_rate_bps(FlowId(2)).unwrap() - 5e8).abs() < 1.0);
            assert!((net.flow_rate_bps(FlowId(3)).unwrap() - 5e8).abs() < 1.0);
        }
    }

    #[test]
    fn unchanged_rates_are_not_retimed() {
        // Two disjoint host pairs on a star share no links, so admitting
        // the second flow must leave the first's generation (and its
        // pending completion entry) untouched.
        let built = star(4, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut net = FlowNet::new(&topo);
        let ab = route_links(&topo, &mut router, h[0], h[1], 0);
        let cd = route_links(&topo, &mut router, h[2], h[3], 0);
        let k1 = net.add_flow(SimTime::ZERO, FlowId(1), h[0], h[1], &ab, 1_000_000);
        let before = net.completion_of(k1).unwrap();
        net.add_flow(
            SimTime::from_millis(1),
            FlowId(2),
            h[2],
            h[3],
            &cd,
            1_000_000,
        );
        assert_eq!(
            net.completion_of(k1).unwrap(),
            before,
            "disjoint admission must not settle or retime flow 1"
        );
        // Sharing the link *does* retime it (rate halves).
        net.add_flow(
            SimTime::from_millis(2),
            FlowId(3),
            h[0],
            h[1],
            &ab,
            1_000_000,
        );
        let after = net.completion_of(k1).unwrap();
        assert!(after > before, "halved rate pushes completion out");
    }

    #[test]
    fn superseded_projections_are_retimed_in_place() {
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        net.add_flow(
            SimTime::ZERO,
            FlowId(1),
            hosts[0],
            hosts[1],
            &links,
            125_000_000,
        );
        let solo = net.next_due().unwrap();
        // A second flow on the same link halves flow 1's rate: the old
        // 1-second projection is superseded by the 2-second one.
        net.add_flow(
            SimTime::ZERO,
            FlowId(2),
            hosts[0],
            hosts[1],
            &links,
            125_000_000,
        );
        let shared = net.next_due().unwrap();
        assert!(shared > solo, "the due entry must move with the rate");
        // Advancing to the superseded (earlier) instant completes nothing.
        net.advance_due(solo);
        assert!(net.take_completed().is_empty());
        assert_eq!(net.active_flows(), 2);
    }

    #[test]
    fn remove_flow_releases_bandwidth_without_completion() {
        for kind in solver_kinds() {
            let (topo, hosts, mut router) = two_host_net();
            let mut net = FlowNet::with_solver(&topo, kind);
            let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
            let k1 = net.add_flow(SimTime::ZERO, FlowId(1), hosts[0], hosts[1], &links, 1_000);
            net.add_flow(SimTime::ZERO, FlowId(2), hosts[0], hosts[1], &links, 1_000);
            assert!(net.remove_flow(SimTime::ZERO, k1));
            assert!(!net.remove_flow(SimTime::ZERO, k1), "already gone");
            assert!(net.take_completed().is_empty());
            assert_eq!(net.flow_rate_bps(FlowId(2)), Some(1e9));
        }
    }

    #[test]
    fn simultaneous_completions_cascade() {
        // Two identical flows finish at the same instant; completing the
        // first must sweep the second (settled to zero remaining by the
        // re-solve) into the same completion batch.
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        net.add_flow(
            SimTime::ZERO,
            FlowId(1),
            hosts[0],
            hosts[1],
            &links,
            125_000_000,
        );
        net.add_flow(
            SimTime::ZERO,
            FlowId(2),
            hosts[0],
            hosts[1],
            &links,
            125_000_000,
        );
        fire_next(&mut net).unwrap();
        let done = net.take_completed();
        assert_eq!(done.len(), 2, "both identical flows complete together");
        assert_eq!(done[0].id, FlowId(1));
        assert_eq!(done[1].id, FlowId(2));
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    #[should_panic(expected = "empty route")]
    fn empty_route_rejected() {
        let (topo, hosts, _) = two_host_net();
        let mut net = FlowNet::new(&topo);
        net.add_flow(SimTime::ZERO, FlowId(1), hosts[0], hosts[1], &[], 10);
    }

    #[test]
    #[should_panic(expected = "reused while active")]
    fn duplicate_flow_id_rejected() {
        let (topo, hosts, mut router) = two_host_net();
        let mut net = FlowNet::new(&topo);
        let links = route_links(&topo, &mut router, hosts[0], hosts[1], 0);
        net.add_flow(SimTime::ZERO, FlowId(1), hosts[0], hosts[1], &links, 10);
        net.add_flow(SimTime::ZERO, FlowId(1), hosts[0], hosts[1], &links, 10);
    }

    #[test]
    fn many_flows_conserve_capacity() {
        for kind in solver_kinds() {
            let built = star(8, LinkSpec::gigabit());
            let topo = built.topology;
            let h = built.hosts.clone();
            let mut router = Router::new();
            let mut net = FlowNet::with_solver(&topo, kind);
            let mut id = 0;
            for i in 0..8 {
                for j in 0..8 {
                    if i != j {
                        let links = route_links(&topo, &mut router, h[i], h[j], id);
                        net.add_flow(SimTime::ZERO, FlowId(id), h[i], h[j], &links, 1_000_000);
                        id += 1;
                    }
                }
            }
            // No link may be allocated beyond capacity.
            for l in 0..topo.links().len() {
                let u = net.link_utilization(LinkId(l as u32));
                assert!(u <= 1.0 + 1e-9, "link {l} over-allocated: {u}");
            }
            // Total goodput is positive and bounded by 8 links' capacity.
            let total: f64 = (0..id).filter_map(|k| net.flow_rate_bps(FlowId(k))).sum();
            assert!(total > 0.0 && total <= 8.0 * GBE as f64 + 1.0);
        }
    }

    /// `true` if two rates agree within 1e-9 relative or a few
    /// fixed-point quanta absolute (the quantized max-min solution is
    /// non-unique at exact floor ties; see the module docs).
    fn rates_close(a: f64, b: f64) -> bool {
        let quantum = 1.0 / (1u64 << 20) as f64;
        (a - b).abs() <= (1e-9 * a.max(b)).max(4.0 * quantum)
    }

    /// The decisive equivalence check: drive both solver arms through the
    /// same randomized add/remove/complete sequence on a fat tree and a
    /// star, comparing every flow's rate after every operation. This is
    /// what licenses the cohort solver's bottleneck-aware pull set.
    #[test]
    fn random_add_remove_matches_reference() {
        use crate::topologies::fat_tree;
        use holdcsim_des::rng::SimRng;

        let root = SimRng::seed_from(0xFA1235);
        for trial in 0..12u64 {
            let mut rng = root.substream(trial);
            let built = if trial % 2 == 0 {
                fat_tree(4, LinkSpec::gigabit())
            } else {
                star(8, LinkSpec::gigabit())
            };
            let topo = built.topology;
            let hosts = built.hosts.clone();
            let mut router = Router::new();
            let mut nets: Vec<FlowNet> = solver_kinds()
                .iter()
                .map(|&k| FlowNet::with_solver(&topo, k))
                .collect();
            let mut live: Vec<(Vec<u64>, FlowId)> = Vec::new(); // (key per net, id)
            let mut next_id = 0u64;
            let mut now = SimTime::ZERO;
            for step in 0..400u64 {
                now += SimDuration::from_micros(1 + rng.below(50));
                let op = rng.below(10);
                if live.is_empty() || op < 5 {
                    // Admit a random-pair flow.
                    let i = rng.below(hosts.len() as u64) as usize;
                    let j = (i + 1 + rng.below(hosts.len() as u64 - 1) as usize) % hosts.len();
                    let links = route_links(&topo, &mut router, hosts[i], hosts[j], next_id);
                    let bytes = 1_000 + rng.below(5_000_000);
                    let id = FlowId(next_id);
                    next_id += 1;
                    let keys = nets
                        .iter_mut()
                        .map(|n| n.add_flow(now, id, hosts[i], hosts[j], &links, bytes))
                        .collect();
                    live.push((keys, id));
                } else if op < 8 {
                    // Cancel a random live flow.
                    let i = rng.below(live.len() as u64) as usize;
                    let (keys, _) = live.swap_remove(i);
                    for (n, &k) in nets.iter_mut().zip(&keys) {
                        assert!(n.remove_flow(now, k));
                    }
                } else {
                    // Run every net to its next completion, if any
                    // (each at its own due instant; the heads agree to
                    // well below the nanosecond event resolution).
                    let dues: Vec<_> = nets.iter_mut().map(|n| n.next_due()).collect();
                    for d in &dues[1..] {
                        assert_eq!(dues[0].is_some(), d.is_some(), "trial {trial} step {step}");
                    }
                    if dues[0].is_some() {
                        let dues: Vec<SimTime> = dues.into_iter().flatten().collect();
                        let (lo, hi) = (*dues.iter().min().unwrap(), *dues.iter().max().unwrap());
                        let gap = hi.saturating_duration_since(lo);
                        assert!(
                            gap <= SimDuration::from_nanos(1),
                            "trial {trial} step {step}: due heads {lo} vs {hi}"
                        );
                        now = now.max(hi);
                        for (n, d) in nets.iter_mut().zip(dues) {
                            n.advance_due(d);
                        }
                    }
                }
                // Any op can complete flows (a rate change may settle a
                // flow to zero remaining): reconcile after every step.
                let done: Vec<_> = nets.iter_mut().map(|n| n.take_completed()).collect();
                for d in &done[1..] {
                    assert_eq!(&done[0], d, "trial {trial} step {step}");
                }
                live.retain(|(_, id)| !done[0].iter().any(|c| c.id == *id));
                // Every live flow's rate must match within tolerance.
                for &(_, id) in &live {
                    let ra = nets[0].flow_rate_bps(id).unwrap();
                    for n in &nets[1..] {
                        let rb = n.flow_rate_bps(id).unwrap();
                        assert!(
                            rates_close(ra, rb),
                            "trial {trial} step {step} flow {id}: {ra} vs {rb}\nref: {:?}\nother: {:?}",
                            nets[0].dump(),
                            n.dump()
                        );
                    }
                }
                for n in &nets[1..] {
                    assert_eq!(nets[0].active_flows(), n.active_flows());
                }
            }
        }
    }

    #[test]
    fn solver_arms_assign_bitwise_identical_rates() {
        // The same admission sequence through both arms must produce
        // bitwise-identical rates (the canonical bottleneck order makes
        // the floating-point op sequences per link identical).
        let built = star(6, LinkSpec::gigabit());
        let topo = built.topology;
        let h = built.hosts.clone();
        let mut router = Router::new();
        let mut nets: Vec<FlowNet> = solver_kinds()
            .iter()
            .map(|&k| FlowNet::with_solver(&topo, k))
            .collect();
        let mut id = 0u64;
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let links = route_links(&topo, &mut router, h[i], h[j], id);
                for n in nets.iter_mut() {
                    n.add_flow(SimTime::ZERO, FlowId(id), h[i], h[j], &links, 3_000_000);
                }
                id += 1;
            }
        }
        for k in 0..id {
            let ra = nets[0].flow_rate_bps(FlowId(k));
            for n in &nets[1..] {
                let rb = n.flow_rate_bps(FlowId(k));
                assert_eq!(
                    ra.map(f64::to_bits),
                    rb.map(f64::to_bits),
                    "flow {k}: {ra:?} vs {rb:?}"
                );
            }
        }
    }
}
