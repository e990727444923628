//! The driver's network bundle: topology + router + flow/packet models +
//! switch power devices, with the index structures the event loop needs.

use std::sync::Arc;

use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_network::flow::FlowNet;
use holdcsim_network::ids::{LinkId, NodeId};
use holdcsim_network::packet::PacketNet;
use holdcsim_network::routing::{ecmp_bucket, Route, Router};
use holdcsim_network::switch::SwitchDevice;
use holdcsim_network::topologies::BuiltTopology;
use holdcsim_network::topology::{NodeKind, Topology};
use holdcsim_server::server::ServerId;

use crate::config::{CommModel, NetworkConfig};

/// The switch-side `(switch index, port)` endpoints of one link, by value
/// (a link touches at most two switches). Returned from
/// [`NetState::switch_ports_of_link`] so wake paths iterate endpoints
/// without a per-call allocation or a borrow on the [`NetState`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkPorts {
    buf: [(usize, u32); 2],
    len: u8,
}

impl LinkPorts {
    fn push(&mut self, p: (usize, u32)) {
        self.buf[self.len as usize] = p;
        self.len += 1;
    }

    /// The endpoints as a slice.
    pub fn as_slice(&self) -> &[(usize, u32)] {
        &self.buf[..self.len as usize]
    }

    /// Number of switch-side endpoints (0–2).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if neither end of the link is a switch.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first endpoint, if any.
    pub fn first(&self) -> Option<(usize, u32)> {
        self.as_slice().first().copied()
    }
}

impl IntoIterator for LinkPorts {
    type Item = (usize, u32);
    type IntoIter = std::iter::Take<std::array::IntoIter<(usize, u32), 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

/// Everything network-side, owned by the simulation driver.
#[derive(Debug)]
pub struct NetState {
    /// The graph.
    pub topology: Topology,
    /// Host NIC of each server (`hosts[i]` serves `ServerId(i)`).
    pub hosts: Vec<NodeId>,
    /// Shortest-path router with distance cache.
    pub router: Router,
    /// Flow-level model (present in both comm modes; only used in Flow).
    pub flows: FlowNet,
    /// Packet-level model.
    pub packets: PacketNet,
    /// Switch power devices, parallel to `topology.switches()`.
    pub switches: Vec<SwitchDevice>,
    /// Index into `switches` of every node, by `NodeId` (`None` for
    /// hosts): the per-hop node → device lookup is one array read.
    switch_of: Vec<Option<u32>>,
    /// Communication granularity.
    pub comm: CommModel,
    /// LPI hold time, if enabled.
    pub lpi_hold: Option<SimDuration>,
    /// Idle ports use ALR rate reduction instead of LPI.
    pub use_alr: bool,
    /// Ingress request/response sizes, if front-end traffic is modeled.
    pub ingress_bytes: Option<(u64, u64)>,
    /// Topology display name.
    pub name: String,
    /// Reverse map: `port_links[switch index][port]` is the link on that
    /// port (`None` for an unwired port).
    port_links: Vec<Vec<Option<LinkId>>>,
    /// Deadline of the furthest-out `LpiCheck` event armed per switch
    /// port (packet mode coalesces per-port idle checks to at most one
    /// outstanding timer; see the driver's `schedule_lpi_check`).
    pub lpi_armed: Vec<Vec<SimTime>>,
    /// Fault mask: `down_nodes[n]` marks node `n` (a failed switch)
    /// unusable for routing.
    pub down_nodes: Vec<bool>,
    /// Fault mask: `down_links[l]` marks fabric link `l` unusable.
    pub down_links: Vec<bool>,
    /// Number of currently-down fabric components. Non-zero switches
    /// [`NetState::route_between`] to the masked (uncached) router path.
    pub fabric_down: u32,
}

impl NetState {
    /// ECMP spreading ways for inter-server routes: distinct seeds map to
    /// at most this many route choices per server pair (covering the core
    /// multiplicity of fat trees up to k = 8), which bounds the router's
    /// shared-route cache at `hosts² × 16` entries and lets steady-state
    /// transfers hit it quickly.
    pub const ECMP_WAYS: u64 = 16;

    /// Builds the network per `cfg`, sized to cover `server_count` hosts.
    ///
    /// # Panics
    ///
    /// Panics if the requested topology yields fewer hosts than servers.
    pub fn build(now: SimTime, cfg: &NetworkConfig, server_count: usize) -> Self {
        let built: BuiltTopology = cfg.build_topology(server_count);
        assert!(
            built.hosts.len() >= server_count,
            "topology {} provides {} hosts for {} servers",
            built.name,
            built.hosts.len(),
            server_count
        );
        let topology = built.topology;
        let mut switches = Vec::new();
        let mut switch_of = vec![None; topology.node_count()];
        for &sw in topology.switches() {
            let NodeKind::Switch {
                linecards,
                ports_per_card,
            } = topology.kind(sw)
            else {
                unreachable!("switch list contains only switches")
            };
            switch_of[sw.0 as usize] = Some(switches.len() as u32);
            switches.push(SwitchDevice::new(
                now,
                sw,
                linecards,
                ports_per_card,
                cfg.switch_profile.clone(),
            ));
        }
        let mut port_links: Vec<Vec<Option<LinkId>>> = switches
            .iter()
            .map(|sw| vec![None; sw.port_count()])
            .collect();
        for (i, l) in topology.links().iter().enumerate() {
            for p in [l.a, l.b] {
                if let Some(sw) = switch_of[p.node.0 as usize] {
                    let ports = &mut port_links[sw as usize];
                    let port = p.port as usize;
                    if ports.len() <= port {
                        ports.resize(port + 1, None);
                    }
                    ports[port] = Some(LinkId(i as u32));
                }
            }
        }
        let mut router = Router::new();
        // Cover the whole bounded route key space (hosts² × ECMP ways)
        // when it fits in memory, so sustained all-pairs traffic cannot
        // thrash the shared-route cache; past ~4M entries (≥ 512 hosts)
        // fall back to the capped wholesale-drop behavior.
        let hosts_n = built.hosts.len() as u64;
        let key_space = hosts_n
            .saturating_mul(hosts_n)
            .saturating_mul(Self::ECMP_WAYS)
            .min(1 << 22);
        router.set_route_cache_cap(key_space as usize);
        let flows = FlowNet::with_solver(&topology, cfg.flow_solver);
        let buffer = match cfg.comm {
            CommModel::Packet { buffer_bytes, .. } => buffer_bytes,
            CommModel::Flow => 1 << 20,
        };
        let packets = PacketNet::new(&topology, buffer);
        let lpi_armed = switches
            .iter()
            .map(|sw| vec![SimTime::ZERO; sw.port_count()])
            .collect();
        let down_nodes = vec![false; topology.node_count()];
        let down_links = vec![false; topology.links().len()];
        NetState {
            hosts: built.hosts,
            router,
            flows,
            packets,
            switches,
            switch_of,
            comm: cfg.comm,
            lpi_hold: cfg.lpi_hold,
            use_alr: cfg.use_alr,
            ingress_bytes: cfg.ingress_bytes,
            name: built.name,
            port_links,
            lpi_armed,
            down_nodes,
            down_links,
            fabric_down: 0,
            topology,
        }
    }

    /// The host NIC of `server`.
    pub fn host_of(&self, server: ServerId) -> NodeId {
        self.hosts[server.0 as usize]
    }

    /// The index into [`NetState::switches`] of `node`, or `None` if
    /// `node` is a host.
    #[inline]
    pub fn switch_index(&self, node: NodeId) -> Option<usize> {
        self.switch_of[node.0 as usize].map(|i| i as usize)
    }

    /// The link wired to `port` of switch `switch`, if any.
    pub fn port_link(&self, switch: usize, port: u32) -> Option<LinkId> {
        self.port_links[switch]
            .get(port as usize)
            .copied()
            .flatten()
    }

    /// Routes between two servers' hosts, ECMP-spread by `seed`.
    ///
    /// The seed is folded into one of [`NetState::ECMP_WAYS`] buckets
    /// (like a switch hashing the flow tuple into a bounded next-hop
    /// table), so the router's shared-route cache serves steady-state
    /// transfers without a path walk or a `Route` allocation.
    pub fn route_between(&mut self, a: ServerId, b: ServerId, seed: u64) -> Option<Arc<Route>> {
        let (ha, hb) = (self.host_of(a), self.host_of(b));
        if self.fabric_down > 0 {
            // Masked BFS on the surviving fabric; uncached because fault
            // windows are transient — the caller owns the `Arc`.
            return self
                .router
                .route_avoiding(
                    &self.topology,
                    ha,
                    hb,
                    ecmp_bucket(seed, Self::ECMP_WAYS),
                    &self.down_nodes,
                    &self.down_links,
                )
                .map(Arc::new);
        }
        self.router
            .route_shared(&self.topology, ha, hb, ecmp_bucket(seed, Self::ECMP_WAYS))
    }

    /// Routes between two host NICs over the surviving fabric only (fault
    /// reroutes re-plan from in-flight routes, whose endpoints are hosts,
    /// not servers). Returns `None` when no surviving path exists.
    pub fn route_hosts_avoiding(
        &mut self,
        hs: NodeId,
        hd: NodeId,
        seed: u64,
    ) -> Option<Arc<Route>> {
        self.router
            .route_avoiding(
                &self.topology,
                hs,
                hd,
                ecmp_bucket(seed, Self::ECMP_WAYS),
                &self.down_nodes,
                &self.down_links,
            )
            .map(Arc::new)
    }

    /// Marks `node` down (`true`) or back up (`false`), dropping the route
    /// caches. Returns `false` if the mask already had that state (the
    /// transition is a no-op and should be ignored by the caller).
    pub fn set_node_down(&mut self, node: NodeId, down: bool) -> bool {
        let slot = &mut self.down_nodes[node.0 as usize];
        if *slot == down {
            return false;
        }
        *slot = down;
        self.fabric_down = if down {
            self.fabric_down + 1
        } else {
            self.fabric_down - 1
        };
        self.router.clear_cache();
        true
    }

    /// Marks fabric link `link` down/up; same contract as
    /// [`NetState::set_node_down`].
    pub fn set_link_down(&mut self, link: LinkId, down: bool) -> bool {
        let slot = &mut self.down_links[link.0 as usize];
        if *slot == down {
            return false;
        }
        *slot = down;
        self.fabric_down = if down {
            self.fabric_down + 1
        } else {
            self.fabric_down - 1
        };
        self.router.clear_cache();
        true
    }

    /// `true` if `route` traverses any currently-down node or link.
    pub fn route_is_dead(&self, route: &Route) -> bool {
        route.nodes.iter().any(|n| self.down_nodes[n.0 as usize])
            || route.links.iter().any(|l| self.down_links[l.0 as usize])
    }

    /// Switch-side `(switch index, port)` endpoints of `link`, by value
    /// (allocation-free; the wake paths call this per link per event).
    pub fn switch_ports_of_link(&self, link: LinkId) -> LinkPorts {
        let l = self.topology.link(link);
        let mut ports = LinkPorts::default();
        for p in [l.a, l.b] {
            if let Some(i) = self.switch_index(p.node) {
                ports.push((i, p.port));
            }
        }
        ports
    }

    /// Wakes the switch ports at both ends of `link` for transmission,
    /// returning the largest wake latency among them.
    pub fn wake_link(&mut self, now: SimTime, link: LinkId) -> SimDuration {
        let mut worst = SimDuration::ZERO;
        for (sw, port) in self.switch_ports_of_link(link) {
            let d = self.switches[sw].wake_for_tx(now, port);
            worst = worst.max(d);
        }
        worst
    }

    /// Network wake cost of placing work on `dst` given data sources
    /// `srcs`: the number of sleeping switches (no active port), plus a
    /// small charge per LPI port along the routes, plus a tiny distance
    /// term so nearer servers win ties (§IV-D's cost).
    pub fn wake_cost(&mut self, srcs: &[ServerId], dst: ServerId, seed: u64) -> f64 {
        let mut cost = 0.0;
        for &src in srcs {
            if src == dst {
                continue;
            }
            let Some(route) = self.route_between(src, dst, seed) else {
                continue;
            };
            cost += 0.02 * route.hops() as f64;
            for &node in &route.nodes {
                if let Some(sw) = self.switch_index(node) {
                    if !self.switches[sw].any_port_active() {
                        cost += 1.0;
                    }
                }
            }
            for link in &route.links {
                for (sw, port) in self.switch_ports_of_link(*link) {
                    if self.switches[sw].wake_cost(port) > SimDuration::ZERO {
                        cost += 0.01;
                    }
                }
            }
        }
        cost
    }

    /// The switch-side `(switch index, port, link)` of `server`'s access
    /// link, if its first-hop neighbor is a switch.
    pub fn access_port(&self, server: ServerId) -> Option<(usize, u32, LinkId)> {
        let host = self.host_of(server);
        let (_, link) = self.topology.neighbors(host).next()?;
        let (swi, port) = self.switch_ports_of_link(link).first()?;
        Some((swi, port, link))
    }

    /// Instantaneous total switch power.
    pub fn switch_power_w(&self) -> f64 {
        self.switches.iter().map(|s| s.power_w()).sum()
    }

    /// Total switch energy through `now`.
    pub fn switch_energy_j(&self, now: SimTime) -> f64 {
        self.switches.iter().map(|s| s.energy_j(now)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holdcsim_power::switch_profile::SwitchPowerProfile;

    fn fat_tree_cfg() -> NetworkConfig {
        NetworkConfig::fat_tree(4)
    }

    #[test]
    fn builds_fat_tree_with_devices() {
        let net = NetState::build(SimTime::ZERO, &fat_tree_cfg(), 16);
        assert_eq!(net.hosts.len(), 16);
        assert_eq!(net.switches.len(), 20);
        assert!(net.switch_power_w() > 0.0);
    }

    #[test]
    #[should_panic(expected = "provides")]
    fn too_many_servers_rejected() {
        let _ = NetState::build(SimTime::ZERO, &fat_tree_cfg(), 17);
    }

    #[test]
    fn star_sizes_to_server_count() {
        let cfg = NetworkConfig::validation_star();
        let net = NetState::build(SimTime::ZERO, &cfg, 24);
        assert_eq!(net.hosts.len(), 24);
        assert_eq!(net.switches.len(), 1);
        let p = net.switch_power_w();
        assert!((p - 20.22).abs() < 1e-9, "power {p}");
    }

    #[test]
    fn link_ports_map_to_switch_side() {
        let net = NetState::build(SimTime::ZERO, &NetworkConfig::validation_star(), 4);
        // Host links touch exactly one switch.
        for l in 0..net.topology.links().len() {
            let ports = net.switch_ports_of_link(LinkId(l as u32));
            assert_eq!(ports.len(), 1);
        }
    }

    #[test]
    fn dense_switch_and_port_tables_invert_the_topology() {
        let net = NetState::build(SimTime::ZERO, &fat_tree_cfg(), 16);
        for (i, &sw) in net.topology.switches().iter().enumerate() {
            assert_eq!(net.switch_index(sw), Some(i));
            assert_eq!(net.switches[i].node(), sw);
        }
        for &h in &net.hosts {
            assert_eq!(net.switch_index(h), None);
        }
        let mut wired = 0;
        for l in 0..net.topology.links().len() {
            let link = LinkId(l as u32);
            for (sw, port) in net.switch_ports_of_link(link) {
                assert_eq!(net.port_link(sw, port), Some(link));
                wired += 1;
            }
        }
        // k = 4: 16 host links plus 16 edge-agg and 16 agg-core links.
        assert_eq!(wired, 16 + 2 * 32);
        assert_eq!(net.port_link(0, u32::MAX), None, "no such port");
    }

    #[test]
    fn wake_cost_counts_sleeping_switches() {
        let mut net = NetState::build(SimTime::ZERO, &fat_tree_cfg(), 16);
        let srcs = [ServerId(0)];
        let base = net.wake_cost(&srcs, ServerId(15), 1);
        // All switches awake: only the small distance term remains
        // (cross-pod route: 6 hops x 0.02).
        assert!(base < 0.2, "all awake, cost {base}");
        // Put every port of every switch into LPI: switches count as asleep.
        let t = SimTime::from_secs(1);
        for sw in &mut net.switches {
            for p in 0..sw.port_count() as u32 {
                sw.enter_lpi(t, p);
            }
        }
        let asleep = net.wake_cost(&srcs, ServerId(15), 1);
        assert!(
            asleep >= 3.0,
            "cross-pod route wakes several switches: {asleep}"
        );
    }

    #[test]
    fn wake_link_returns_worst_latency() {
        let cfg = NetworkConfig {
            switch_profile: SwitchPowerProfile::datacenter_48port(),
            ..NetworkConfig::validation_star()
        };
        let mut net = NetState::build(SimTime::ZERO, &cfg, 4);
        let t = SimTime::from_secs(1);
        for p in 0..4 {
            net.switches[0].enter_lpi(t, p);
        }
        let d = net.wake_link(SimTime::from_secs(2), LinkId(0));
        assert_eq!(d, SimDuration::from_micros(5));
        // Idempotent: second wake is free.
        assert_eq!(
            net.wake_link(SimTime::from_secs(2), LinkId(0)),
            SimDuration::ZERO
        );
    }
}
