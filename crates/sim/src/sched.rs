//! The discrete-event scheduler every simulated world runs on.
//!
//! It drives *production* [`NodeRuntime`] cores (the same code the TCP
//! daemon runs) and [`GdpClient`]s over the seeded `gdp_net::simnet`
//! fabric from a single thread, so a run is a pure function of its seed:
//! inboxes drain in fixed slot order, every node ticks on the daemon's
//! 200 ms cadence, and peer-down reports fire at scheduled virtual
//! instants, mirroring what the TCP connection pool would report.
//!
//! [`crate::SimCluster`] (chaos testing) and [`crate::GdpWorld`] (paper
//! figures, CAAPIs, facade tests) are two topologies over this one
//! scheduler. Endpoints allocated straight from [`Scheduler::net`] are
//! not drained here: their owner reads them, which is how load
//! generators, baselines and hostile peers join a world.

use gdp_client::{ClientEvent, GdpClient};
use gdp_net::simnet::{LinkSpec, SimAddr, SimEndpoint, SimNet};
use gdp_node::runtime::FOREVER;
use gdp_node::{NodeConfig, NodeRuntime, Role};
use gdp_router::{AttachStep, Attacher};
use gdp_wire::{Name, Pdu};
use std::collections::VecDeque;

/// Virtual maintenance-tick cadence (µs) — matches the TCP daemon's
/// 200 ms `TICK_INTERVAL`.
pub const TICK_US: u64 = 200_000;

/// Quiet period (µs) before a driven client re-sends an unanswered attach
/// Hello — mirrors `ClusterClient`'s 300 ms re-Hello, rounded to the tick
/// cadence.
pub const CLIENT_HELLO_RETRY_US: u64 = 300_000;

/// Config of a simulated node with identity seed `key`, every other field
/// at its `gdpd` default (simulated nodes never listen, so the address is
/// a placeholder).
pub fn node_config(role: Role, key: [u8; 32], label: &str) -> NodeConfig {
    NodeConfig::new(role, "127.0.0.1:0".parse().expect("literal addr"), key, label)
}

/// How an attach handshake run by [`Scheduler::attach_endpoint`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// The router answered and refused the attach.
    Rejected(String),
    /// No answer within the window.
    TimedOut,
}

/// A [`GdpClient`] driven by the scheduler: attach handshake toward its
/// router, then every received PDU through `handle_pdu`, with the
/// resulting events queued for the world that owns it.
pub struct DrivenClient {
    /// The client core.
    pub client: GdpClient,
    router: SimAddr,
    router_name: Name,
    attach: Option<Attacher>,
    attached: bool,
    last_hello: u64,
    /// Events not yet consumed by the driver, oldest first.
    pub events: VecDeque<ClientEvent>,
    /// Every `VerificationFailed` reason the client ever reported.
    pub verification_failures: Vec<&'static str>,
}

impl DrivenClient {
    /// True once the router accepted the client's attach.
    pub fn attached(&self) -> bool {
        self.attached
    }

    fn fresh_attacher(&self) -> Attacher {
        Attacher::new(self.client.principal_id().clone(), self.router_name, Vec::new(), FOREVER)
    }

    /// Feeds one PDU; returns a reply for the router, if any.
    fn on_pdu(&mut self, now: u64, pdu: Pdu) -> Option<Pdu> {
        // The attach handshake claims matching PDUs first, like the node.
        if !self.attached {
            if let Some(attacher) = self.attach.as_mut() {
                match attacher.on_pdu(&pdu) {
                    AttachStep::Send(reply) => return Some(reply),
                    AttachStep::Done(_) => {
                        self.attached = true;
                        return None;
                    }
                    AttachStep::Failed(_) => {
                        // Re-arm but let the tick retry send the next
                        // Hello: immediate re-Hello on rejection feeds an
                        // attach storm (see chaos seed 160).
                        self.attach = Some(self.fresh_attacher());
                        self.last_hello = now;
                        return None;
                    }
                    AttachStep::Ignored => {}
                }
            }
        }
        for ev in self.client.handle_pdu(now, pdu) {
            // Replay aid: GDP_SIM_DEBUG=1 narrates every client event with
            // its virtual timestamp (stderr only — never affects the run).
            if std::env::var("GDP_SIM_DEBUG").is_ok() {
                eprintln!("[sim-client] now={now} {ev:?}");
            }
            if let ClientEvent::VerificationFailed { reason, .. } = &ev {
                self.verification_failures.push(reason);
            }
            self.events.push_back(ev);
        }
        None
    }

    /// Deadline sweep plus attach retry; returns a Hello to send, if due.
    fn tick(&mut self, now: u64) -> Option<Pdu> {
        // Expire pending requests whose responses were lost, exactly like
        // the live driver's wait loop does.
        for ev in self.client.sweep_timeouts(now) {
            if std::env::var("GDP_SIM_DEBUG").is_ok() {
                eprintln!("[sim-client] now={now} {ev:?}");
            }
            self.events.push_back(ev);
        }
        if self.attached || now.saturating_sub(self.last_hello) < CLIENT_HELLO_RETRY_US {
            return None;
        }
        let hello = self.attach.as_ref()?.hello();
        self.last_hello = now;
        Some(hello)
    }
}

enum Slot {
    /// `None` while the node is crashed.
    Node(Option<NodeRuntime<SimAddr>>),
    Client(Box<DrivenClient>),
}

/// Node runtimes and driven clients on one fabric, stepped in virtual
/// time.
pub struct Scheduler {
    /// The fabric (world control: links, partitions, crashes, digest).
    pub net: SimNet,
    endpoints: Vec<SimEndpoint>,
    /// Same index as `endpoints`; drained and ticked in this order.
    slots: Vec<Slot>,
    next_tick: u64,
    /// Scheduled `(fire_at, node, dead_peer)` peer-down reports.
    pending_downs: Vec<(u64, SimAddr, SimAddr)>,
}

impl Scheduler {
    /// An empty scheduler over `net`.
    pub fn new(net: SimNet) -> Scheduler {
        Scheduler {
            net,
            endpoints: Vec::new(),
            slots: Vec::new(),
            next_tick: TICK_US,
            pending_downs: Vec::new(),
        }
    }

    fn add(&mut self, slot: Slot) -> SimAddr {
        let ep = self.net.endpoint();
        let addr = ep.addr;
        self.endpoints.push(ep);
        self.slots.push(slot);
        addr
    }

    fn idx(&self, addr: SimAddr) -> usize {
        self.endpoints
            .iter()
            .position(|e| e.addr == addr)
            .unwrap_or_else(|| panic!("sim address {addr} is not a scheduler slot"))
    }

    /// Adds a node on a fresh endpoint; it stays silent until
    /// [`Scheduler::start_node`].
    pub fn add_node(&mut self, rt: NodeRuntime<SimAddr>) -> SimAddr {
        self.add(Slot::Node(Some(rt)))
    }

    /// Runs a node's boot sequence (local or network attach).
    pub fn start_node(&mut self, addr: SimAddr) {
        let now = self.net.now();
        let out = self.node_mut(addr).expect("start of a crashed node").start(now);
        self.transmit(addr, out);
    }

    /// Adds and starts a router node (identity seed `key`) built the way
    /// `gdpd` builds it, its RNG seeded with `rng_seed`. With a `parent`,
    /// the router uses it as its GLookupService parent over `link` (both
    /// directions).
    pub fn add_router(
        &mut self,
        key: [u8; 32],
        label: &str,
        rng_seed: u64,
        parent: Option<(SimAddr, LinkSpec)>,
    ) -> (SimAddr, Name) {
        let cfg = node_config(Role::Router, key, label);
        let mut rt = NodeRuntime::from_config(&cfg, None).expect("router cores");
        rt.set_rng_seed(rng_seed);
        if let Some((parent, _)) = parent {
            let nid = rt.neighbor_id(parent);
            rt.router_mut().expect("router role").set_parent(nid);
        }
        let name = rt.router_name().expect("router role");
        let addr = self.add_node(rt);
        if let Some((parent, link)) = parent {
            self.net.connect(addr, parent, link);
        }
        self.start_node(addr);
        (addr, name)
    }

    /// Adds a client on a fresh endpoint, attached through `router`
    /// (identity `router_name`) once [`Scheduler::attach_client`] runs.
    pub fn add_client(&mut self, client: GdpClient, router: SimAddr, router_name: Name) -> SimAddr {
        self.add(Slot::Client(Box::new(DrivenClient {
            client,
            router,
            router_name,
            attach: None,
            attached: false,
            last_hello: 0,
            events: VecDeque::new(),
            verification_failures: Vec::new(),
        })))
    }

    /// Opens the client's attach handshake (the tick retries the Hello
    /// until the router answers).
    pub fn attach_client(&mut self, addr: SimAddr) {
        let now = self.net.now();
        let c = self.client_mut(addr);
        let attacher = c.fresh_attacher();
        let hello = attacher.hello();
        c.attach = Some(attacher);
        c.last_hello = now;
        self.send_to_router(addr, hello);
    }

    /// The node at `addr`; `None` while it is crashed.
    pub fn node(&self, addr: SimAddr) -> Option<&NodeRuntime<SimAddr>> {
        match &self.slots[self.idx(addr)] {
            Slot::Node(rt) => rt.as_ref(),
            Slot::Client(_) => panic!("sim address {addr} is a client"),
        }
    }

    /// Mutable access to the node at `addr`; `None` while it is crashed.
    pub fn node_mut(&mut self, addr: SimAddr) -> Option<&mut NodeRuntime<SimAddr>> {
        let i = self.idx(addr);
        match &mut self.slots[i] {
            Slot::Node(rt) => rt.as_mut(),
            Slot::Client(_) => panic!("sim address {addr} is a client"),
        }
    }

    /// The driven client at `addr`.
    pub fn client(&self, addr: SimAddr) -> &DrivenClient {
        match &self.slots[self.idx(addr)] {
            Slot::Client(c) => c,
            Slot::Node(_) => panic!("sim address {addr} is a node"),
        }
    }

    /// Mutable access to the driven client at `addr`.
    pub fn client_mut(&mut self, addr: SimAddr) -> &mut DrivenClient {
        let i = self.idx(addr);
        match &mut self.slots[i] {
            Slot::Client(c) => c,
            Slot::Node(_) => panic!("sim address {addr} is a node"),
        }
    }

    /// Sends `pdu` from the client at `addr` to its router.
    pub fn send_to_router(&mut self, addr: SimAddr, pdu: Pdu) {
        let router = self.client(addr).router;
        self.transmit(addr, vec![(router, pdu)]);
    }

    /// Crashes the node at `addr`: its process state evaporates and its
    /// fabric endpoint drops traffic until [`Scheduler::restart_node`].
    pub fn crash_node(&mut self, addr: SimAddr) {
        self.net.crash(addr);
        let i = self.idx(addr);
        self.slots[i] = Slot::Node(None);
    }

    /// Boots `rt` in place of the crashed node at `addr`.
    pub fn restart_node(&mut self, addr: SimAddr, mut rt: NodeRuntime<SimAddr>) {
        self.net.restart(addr);
        let out = rt.start(self.net.now());
        let i = self.idx(addr);
        self.slots[i] = Slot::Node(Some(rt));
        self.transmit(addr, out);
    }

    /// Schedules a transport peer-down report: at virtual time `at`, the
    /// node at `node` learns that `peer` is dead.
    pub fn report_down(&mut self, at: u64, node: SimAddr, peer: SimAddr) {
        self.pending_downs.push((at, node, peer));
    }

    /// Cancels not-yet-fired peer-down reports matching `pred(node, peer)`.
    pub fn cancel_downs(&mut self, mut pred: impl FnMut(SimAddr, SimAddr) -> bool) {
        self.pending_downs.retain(|&(_, node, peer)| !pred(node, peer));
    }

    fn transmit(&mut self, from: SimAddr, out: Vec<(SimAddr, Pdu)>) {
        let ep = &self.endpoints[self.idx(from)];
        for (to, pdu) in out {
            // A send can only fail if the sender itself is crashed (we
            // never address unknown endpoints); drop mirrors real loss.
            let _ = ep.send(to, pdu);
        }
    }

    /// Drains every live slot's inbox in fixed order, feeding the
    /// runtimes / clients. Returns true if anything was processed.
    fn drain(&mut self) -> bool {
        let mut progressed = false;
        for idx in 0..self.endpoints.len() {
            let addr = self.endpoints[idx].addr;
            // try_recv errors mean the endpoint is crashed — same as empty.
            while let Ok(Some((from, pdu))) = self.endpoints[idx].try_recv() {
                progressed = true;
                let now = self.net.now();
                // Replay aid: GDP_SIM_DEBUG2=1 narrates every delivered
                // message (slot index, sender, type, seq) — one level below
                // GDP_SIM_DEBUG's client-event narration. This is how the
                // seed-160 attach storm was localized.
                if std::env::var("GDP_SIM_DEBUG2").is_ok() {
                    eprintln!(
                        "[sim-drain] idx={idx} from={from} type={:?} seq={} len={}",
                        pdu.pdu_type,
                        pdu.seq,
                        pdu.payload.len()
                    );
                }
                let out = match &mut self.slots[idx] {
                    Slot::Node(Some(rt)) => rt.on_pdu(now, from, pdu),
                    Slot::Node(None) => Vec::new(),
                    Slot::Client(c) => {
                        c.on_pdu(now, pdu).map(|r| vec![(c.router, r)]).unwrap_or_default()
                    }
                };
                self.transmit(addr, out);
            }
        }
        progressed
    }

    fn fire_due_downs(&mut self, now: u64) -> bool {
        let Some(pos) = self.pending_downs.iter().position(|d| d.0 <= now) else {
            return false;
        };
        let (_, node, peer) = self.pending_downs.remove(pos);
        self.peer_down(node, peer);
        true
    }

    /// Tells the node at `node` right now that `peer` is dead (a crashed
    /// node ignores it).
    pub fn peer_down(&mut self, node: SimAddr, peer: SimAddr) {
        let now = self.net.now();
        if let Some(rt) = self.node_mut(node) {
            let out = rt.on_peer_down(now, peer);
            self.transmit(node, out);
        }
    }

    /// Runs the maintenance tick of the node at `addr` now, off the
    /// regular cadence (e.g. to re-advertise freshly hosted capsules
    /// without waiting out the tick phase).
    pub fn tick_node(&mut self, addr: SimAddr) {
        let now = self.net.now();
        if let Some(rt) = self.node_mut(addr) {
            let out = rt.tick(now);
            self.transmit(addr, out);
        }
    }

    fn tick_all(&mut self, now: u64) {
        for idx in 0..self.slots.len() {
            let addr = self.endpoints[idx].addr;
            let out = match &mut self.slots[idx] {
                Slot::Node(Some(rt)) => rt.tick(now),
                Slot::Node(None) => Vec::new(),
                Slot::Client(c) => c.tick(now).map(|h| vec![(c.router, h)]).unwrap_or_default(),
            };
            self.transmit(addr, out);
        }
    }

    /// One scheduler quantum: drain inboxes, or fire a due peer-down, or
    /// tick, or advance virtual time toward the next interesting instant.
    /// Returns false once `target` is reached with nothing left due.
    pub fn step(&mut self, target: u64) -> bool {
        if self.drain() {
            return true;
        }
        let now = self.net.now();
        if self.fire_due_downs(now) {
            return true;
        }
        if now >= self.next_tick {
            self.tick_all(now);
            self.next_tick = now - (now % TICK_US) + TICK_US;
            return true;
        }
        if now >= target {
            return false;
        }
        let mut next = target.min(self.next_tick);
        if let Some(at) = self.net.next_event_at() {
            next = next.min(at.max(now + 1));
        }
        for d in &self.pending_downs {
            next = next.min(d.0.max(now + 1));
        }
        self.net.advance_to(next.max(now + 1));
        true
    }

    /// Runs the world until virtual time `target`.
    pub fn run_until(&mut self, target: u64) {
        while self.step(target) {}
    }

    /// Runs the world for `dt` more microseconds.
    pub fn run_for(&mut self, dt: u64) {
        let t = self.net.now() + dt;
        self.run_until(t);
    }

    /// Runs until no PDU is in flight or queued. Ticks and peer-down
    /// reports that fall due on the way fire; time never advances just to
    /// reach one, so periodic maintenance cannot keep a settle alive.
    pub fn settle(&mut self) {
        loop {
            self.run_until(self.net.now());
            match self.net.next_event_at() {
                Some(at) => self.run_until(at),
                None => return,
            }
        }
    }

    /// Steps until the client at `addr` has an event queued or `deadline`
    /// passes, then takes every queued event.
    pub fn wait_events(&mut self, addr: SimAddr, deadline: u64) -> Vec<ClientEvent> {
        while self.client(addr).events.is_empty() && self.step(deadline) {}
        self.client_mut(addr).events.drain(..).collect()
    }

    /// Pumps the world until `pred` accepts an event of the client at
    /// `addr` (events it rejects are consumed) or `deadline` passes.
    pub fn pump_until(
        &mut self,
        addr: SimAddr,
        deadline: u64,
        mut pred: impl FnMut(&ClientEvent) -> bool,
    ) -> bool {
        loop {
            while let Some(ev) = self.client_mut(addr).events.pop_front() {
                if pred(&ev) {
                    return true;
                }
            }
            if !self.step(deadline) {
                return false;
            }
        }
    }

    /// Runs an attach handshake for an endpoint this scheduler does not
    /// drain (a load generator or a test harness), pumping the world until
    /// the router accepts or rejects it or `window_us` passes. Other
    /// traffic reaching `ep` meanwhile is discarded.
    pub fn attach_endpoint(
        &mut self,
        ep: &SimEndpoint,
        router: SimAddr,
        mut attacher: Attacher,
        window_us: u64,
    ) -> Result<Vec<Name>, AttachError> {
        let _ = ep.send(router, attacher.hello());
        let deadline = self.net.now() + window_us;
        loop {
            while let Ok(Some((_, pdu))) = ep.try_recv() {
                match attacher.on_pdu(&pdu) {
                    AttachStep::Send(reply) => {
                        let _ = ep.send(router, reply);
                    }
                    AttachStep::Done(names) => return Ok(names),
                    AttachStep::Failed(reason) => return Err(AttachError::Rejected(reason)),
                    AttachStep::Ignored => {}
                }
            }
            if !self.step(deadline) {
                return Err(AttachError::TimedOut);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(net: SimNet) -> (Scheduler, SimAddr, Name) {
        let mut sched = Scheduler::new(net);
        let (addr, name) = sched.add_router([3u8; 32], "r", 1, None);
        (sched, addr, name)
    }

    #[test]
    fn ticks_fire_in_order_on_the_daemon_cadence() {
        let (mut sched, _, _) = router(SimNet::new(1));
        let mut ticks = Vec::new();
        let mut next = sched.next_tick;
        while sched.step(3 * TICK_US) {
            if sched.next_tick != next {
                ticks.push(sched.net.now());
                next = sched.next_tick;
            }
        }
        assert_eq!(ticks, vec![TICK_US, 2 * TICK_US, 3 * TICK_US]);
    }

    #[test]
    fn settle_stops_when_the_fabric_is_idle() {
        let (mut sched, r, name) = router(SimNet::new(2));
        let c = sched.add_client(GdpClient::from_seed(&[4u8; 32], "c"), r, name);
        sched.attach_client(c);
        sched.settle();
        assert!(sched.client(c).attached());
        assert!(sched.net.now() < TICK_US, "settling never waits for a tick");
        assert_eq!(sched.net.next_event_at(), None);
    }
}
