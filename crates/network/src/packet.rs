//! Packet-level communication: store-and-forward transmission with per-port
//! output queues and tail-drop (§III-B's finer-grained communication model).
//!
//! Each directed link endpoint models an egress port with a transmission
//! backlog. Transmitting computes exact departure/arrival instants from the
//! port's `busy_until` horizon — no per-byte events — while the backlog
//! depth doubles as the queue-occupancy signal for tail-drop and LPI
//! decisions.

use std::sync::Arc;

use holdcsim_des::time::{SimDuration, SimTime};

use crate::ids::{LinkId, NodeId, PacketId};
use crate::routing::Route;
use crate::topology::{Link, Topology};

/// Default Ethernet MTU payload used when packetizing task transfers.
pub const DEFAULT_MTU_BYTES: u64 = 1_500;

/// A packet traversing a precomputed route.
///
/// The route is shared (`Arc`): every packet of a transfer — and, with
/// the router's route cache, every transfer along the same cached path —
/// points at one allocation instead of cloning the hop vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// The route this packet follows.
    pub route: Arc<Route>,
    /// Next hop index into `route.links` (0 = about to leave the source).
    pub hop: usize,
}

impl Packet {
    /// Creates a packet at the head of its route.
    pub fn new(id: PacketId, bytes: u64, route: Arc<Route>) -> Self {
        Packet {
            id,
            bytes,
            route,
            hop: 0,
        }
    }

    /// The node currently holding the packet.
    pub fn current_node(&self) -> NodeId {
        self.route.nodes[self.hop]
    }

    /// The link the packet will traverse next, or `None` at the destination.
    pub fn next_link(&self) -> Option<LinkId> {
        self.route.links.get(self.hop).copied()
    }

    /// `true` once the packet has reached its destination.
    pub fn at_destination(&self) -> bool {
        self.hop == self.route.links.len()
    }
}

/// Splits `bytes` into MTU-sized segments (last may be short).
///
/// # Panics
///
/// Panics if `mtu == 0`.
pub fn segment(bytes: u64, mtu: u64) -> Vec<u64> {
    assert!(mtu > 0, "mtu must be positive");
    if bytes == 0 {
        return Vec::new();
    }
    let full = bytes / mtu;
    let tail = bytes % mtu;
    let mut v = vec![mtu; full as usize];
    if tail > 0 {
        v.push(tail);
    }
    v
}

/// One direction of a link, resolved to its egress queue: the caller
/// reads the link record once per hop and hands the result to
/// [`PacketNet::transmit`], which then needs no topology lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgressPort {
    /// Index into the per-direction egress table (`2*link + side`).
    idx: usize,
    /// Link rate in bits per second (each direction gets the full rate).
    pub rate_bps: u64,
    /// Propagation latency per traversal.
    pub latency: SimDuration,
}

impl EgressPort {
    /// The egress of `link` at `from`'s end, where `l` is `link`'s record,
    /// together with the transmitting port number on `from`. `None` if
    /// the link does not touch `from`.
    #[inline]
    pub fn at(link: LinkId, l: &Link, from: NodeId) -> Option<(Self, u32)> {
        let (side, port) = if l.a.node == from {
            (0, l.a.port)
        } else if l.b.node == from {
            (1, l.b.port)
        } else {
            return None;
        };
        let egress = EgressPort {
            idx: link.0 as usize * 2 + side,
            rate_bps: l.rate_bps,
            latency: l.latency,
        };
        Some((egress, port))
    }
}

/// Outcome of a transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The packet will arrive at the far end at this instant.
    Forwarded {
        /// Arrival time at the next node (departure + propagation).
        arrives_at: SimTime,
    },
    /// The egress queue overflowed; the packet is dropped.
    Dropped,
}

/// The packet-level network: per-port transmission horizons and statistics.
///
/// # Examples
///
/// ```
/// use holdcsim_network::packet::{EgressPort, PacketNet, TxOutcome};
/// use holdcsim_network::routing::Router;
/// use holdcsim_network::topologies::{star, LinkSpec};
/// use holdcsim_des::time::SimTime;
///
/// let built = star(2, LinkSpec::gigabit());
/// let mut router = Router::new();
/// let route = router
///     .route(&built.topology, built.hosts[0], built.hosts[1], 0)
///     .unwrap();
/// let first = route.links[0];
/// let (egress, _port) =
///     EgressPort::at(first, built.topology.link(first), built.hosts[0]).unwrap();
/// let mut net = PacketNet::new(&built.topology, 512 * 1024);
/// let out = net.transmit(SimTime::ZERO, egress, 1_500);
/// assert!(matches!(out, TxOutcome::Forwarded { .. }));
/// ```
#[derive(Debug)]
pub struct PacketNet {
    /// When each egress port's backlog drains, two per link: index
    /// `2*link` is the A-side egress, `2*link + 1` the B-side.
    busy_until: Vec<SimTime>,
    buffer_bytes: u64,
    forwarded: u64,
    dropped: u64,
}

impl PacketNet {
    /// Creates a packet network with `buffer_bytes` of egress buffering per
    /// port.
    pub fn new(topo: &Topology, buffer_bytes: u64) -> Self {
        PacketNet {
            busy_until: vec![SimTime::ZERO; topo.links().len() * 2],
            buffer_bytes,
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Attempts to transmit `bytes` out of `egress` at `now`.
    ///
    /// On success the returned arrival instant accounts for queueing behind
    /// the port's backlog, serialization at the link rate, and propagation
    /// latency. On overflow the packet is dropped (tail-drop).
    #[inline]
    pub fn transmit(&mut self, now: SimTime, egress: EgressPort, bytes: u64) -> TxOutcome {
        let busy_until = &mut self.busy_until[egress.idx];

        // Backlog currently queued (in bytes) behind this packet.
        let backlog = busy_until.saturating_duration_since(now).as_secs_f64();
        let queued_bytes = backlog * egress.rate_bps as f64 / 8.0;
        if queued_bytes + bytes as f64 > self.buffer_bytes as f64 {
            self.dropped += 1;
            return TxOutcome::Dropped;
        }

        let start = (*busy_until).max(now);
        let tx = SimDuration::from_secs_f64(bytes as f64 * 8.0 / egress.rate_bps as f64);
        *busy_until = start + tx;
        self.forwarded += 1;
        TxOutcome::Forwarded {
            arrives_at: *busy_until + egress.latency,
        }
    }

    /// The instant `egress` drains, given no further traffic (`now` if
    /// already idle).
    pub fn egress_idle_at(&self, egress: EgressPort, now: SimTime) -> SimTime {
        self.busy_until[egress.idx].max(now)
    }

    /// Packets forwarded successfully.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets dropped to tail-drop.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drop fraction over all attempts (0 if none).
    pub fn drop_rate(&self) -> f64 {
        let total = self.forwarded + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Router;
    use crate::topologies::{star, LinkSpec};

    fn setup() -> (Topology, Vec<NodeId>, Route) {
        let built = star(2, LinkSpec::gigabit());
        let mut router = Router::new();
        let route = router
            .route(&built.topology, built.hosts[0], built.hosts[1], 0)
            .unwrap();
        (built.topology, built.hosts, route)
    }

    /// The egress of `link` at `from`, resolved the way each packet hop does.
    fn egress(topo: &Topology, link: LinkId, from: NodeId) -> EgressPort {
        EgressPort::at(link, topo.link(link), from).unwrap().0
    }

    #[test]
    fn segment_splits_at_mtu() {
        assert_eq!(segment(0, 1500), Vec::<u64>::new());
        assert_eq!(segment(1500, 1500), vec![1500]);
        assert_eq!(segment(3100, 1500), vec![1500, 1500, 100]);
    }

    #[test]
    fn egress_resolves_side_and_port() {
        let (topo, hosts, route) = setup();
        let l = route.links[0];
        let link = topo.link(l);
        let sw = link.opposite(hosts[0]);
        let (host_side, host_port) = EgressPort::at(l, link, hosts[0]).unwrap();
        let (sw_side, sw_port) = EgressPort::at(l, link, sw).unwrap();
        assert_ne!(host_side, sw_side, "the two ends are distinct queues");
        assert_eq!(host_port, link.endpoint_on(hosts[0]).unwrap().port);
        assert_eq!(sw_port, link.endpoint_on(sw).unwrap().port);
        assert_eq!(host_side.rate_bps, link.rate_bps);
        assert_eq!(sw_side.latency, link.latency);
        // A link that does not touch the node resolves to nothing.
        assert_eq!(EgressPort::at(l, link, hosts[1]), None);
    }

    #[test]
    fn serialization_plus_propagation() {
        let (topo, hosts, route) = setup();
        let mut net = PacketNet::new(&topo, 1 << 20);
        // 1500 B at 1 Gb/s = 12 µs; + 5 µs propagation.
        let out = net.transmit(SimTime::ZERO, egress(&topo, route.links[0], hosts[0]), 1500);
        match out {
            TxOutcome::Forwarded { arrives_at } => {
                assert_eq!(arrives_at, SimTime::from_nanos(12_000 + 5_000));
            }
            TxOutcome::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let (topo, hosts, route) = setup();
        let mut net = PacketNet::new(&topo, 1 << 20);
        let e = egress(&topo, route.links[0], hosts[0]);
        let a1 = match net.transmit(SimTime::ZERO, e, 1500) {
            TxOutcome::Forwarded { arrives_at } => arrives_at,
            _ => panic!(),
        };
        let a2 = match net.transmit(SimTime::ZERO, e, 1500) {
            TxOutcome::Forwarded { arrives_at } => arrives_at,
            _ => panic!(),
        };
        // Second packet serializes after the first: +12 µs.
        assert_eq!(a2.as_nanos() - a1.as_nanos(), 12_000);
        assert_eq!(net.forwarded(), 2);
    }

    #[test]
    fn directions_are_independent() {
        let (topo, hosts, route) = setup();
        let mut net = PacketNet::new(&topo, 1 << 20);
        let l = route.links[0];
        let forward = egress(&topo, l, hosts[0]);
        net.transmit(SimTime::ZERO, forward, 1500);
        // Reverse direction (switch -> host0) is not delayed by the forward tx.
        let sw = topo.link(l).opposite(hosts[0]);
        let reverse = egress(&topo, l, sw);
        assert_eq!(net.egress_idle_at(reverse, SimTime::ZERO), SimTime::ZERO);
        match net.transmit(SimTime::ZERO, reverse, 1500) {
            TxOutcome::Forwarded { arrives_at } => {
                assert_eq!(arrives_at, SimTime::from_nanos(17_000));
            }
            _ => panic!(),
        }
        // Both directions now drain at the same instant, independently.
        let drained = SimTime::from_nanos(12_000);
        assert_eq!(net.egress_idle_at(forward, SimTime::ZERO), drained);
        assert_eq!(net.egress_idle_at(reverse, SimTime::ZERO), drained);
    }

    #[test]
    fn tail_drop_on_overflow() {
        let (topo, hosts, route) = setup();
        // Tiny 3 KB buffer: third 1500 B packet overflows.
        let mut net = PacketNet::new(&topo, 3_000);
        let e = egress(&topo, route.links[0], hosts[0]);
        assert!(matches!(
            net.transmit(SimTime::ZERO, e, 1500),
            TxOutcome::Forwarded { .. }
        ));
        assert!(matches!(
            net.transmit(SimTime::ZERO, e, 1500),
            TxOutcome::Forwarded { .. }
        ));
        assert_eq!(net.transmit(SimTime::ZERO, e, 1500), TxOutcome::Dropped);
        assert_eq!(net.dropped(), 1);
        assert!(net.drop_rate() > 0.3 && net.drop_rate() < 0.34);
    }

    #[test]
    fn queue_drains_over_time() {
        let (topo, hosts, route) = setup();
        let mut net = PacketNet::new(&topo, 3_000);
        let e = egress(&topo, route.links[0], hosts[0]);
        net.transmit(SimTime::ZERO, e, 1500);
        net.transmit(SimTime::ZERO, e, 1500);
        // After both serialize (24 µs), the port is free again.
        let later = SimTime::from_nanos(24_000);
        assert_eq!(net.egress_idle_at(e, later), later);
        assert!(matches!(
            net.transmit(later, e, 1500),
            TxOutcome::Forwarded { .. }
        ));
    }

    #[test]
    fn packet_walks_its_route() {
        let (_, _, route) = setup();
        let mut p = Packet::new(PacketId(1), 1500, Arc::new(route.clone()));
        assert_eq!(p.current_node(), route.nodes[0]);
        assert!(!p.at_destination());
        assert_eq!(p.next_link(), Some(route.links[0]));
        p.hop += 1;
        assert_eq!(p.next_link(), Some(route.links[1]));
        p.hop += 1;
        assert!(p.at_destination());
        assert_eq!(p.next_link(), None);
    }
}
