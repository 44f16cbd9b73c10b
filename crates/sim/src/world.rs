//! Scenario builder: assembles complete GDP deployments on the shared
//! simulation [`Scheduler`] and drives them synchronously.
//!
//! A [`GdpWorld`] runs production [`NodeRuntime`] routers and
//! DataCapsule-servers — built from [`NodeConfig`], exactly as `gdpd`
//! builds them — plus a driving [`GdpClient`], on the `simnet` fabric
//! with per-link latency/bandwidth and a modeled server CPU. It exposes
//! blocking operations (create capsule, append, read, …) that send a
//! request and step the world until the answer arrives, and it
//! implements `gdp_caapi::CapsuleAccess`, so every CAAPI — including the
//! Fig 8 filesystem — runs unmodified over the full client → router →
//! server network stack.

use crate::sched::{node_config, Scheduler};
use gdp_caapi::{CaapiError, CapsuleAccess};
use gdp_capsule::{CapsuleMetadata, PointerStrategy, Record};
use gdp_cert::{AdCert, PrincipalId, Scope, ServingChain};
use gdp_client::{ClientEvent, GdpClient, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_net::simnet::{CpuSpec, LinkSpec, SimAddr, SimNet, MS};
use gdp_node::{NodeConfig, NodeRuntime, Role};
use gdp_router::Router;
use gdp_server::{AckMode, DataCapsuleServer, DataMsg, ReadTarget};
use gdp_wire::{Name, Pdu, PduType, Wire};

pub use gdp_node::runtime::FOREVER;

/// Modeled DataCapsule-server CPU per delivered PDU (µs). A constant, not
/// a measurement: it stands for the Ed25519 record verification, which
/// `cargo bench -p gdp-bench --bench ablation_session` measured at
/// ~170 µs when the model was calibrated.
pub const SERVER_CPU_US: u64 = 200;

/// Which physical deployment to model (paper §IX).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Client on a residential link (100 Mbps down / 10 Mbps up, 10 ms) to
    /// a cloud region; server inside the region on a LAN.
    CloudFromResidential,
    /// Client and server on the same edge LAN (1 Gbps, 200 µs).
    EdgeLan,
}

/// A fully assembled simulated deployment with one driving client.
pub struct GdpWorld {
    /// The scheduler: fabric, node runtimes and driven clients (public
    /// for advanced scenarios and assertions).
    pub sched: Scheduler,
    /// Router nodes, in creation order (index 0 = the client's router).
    pub routers: Vec<(SimAddr, Name)>,
    /// Server nodes with their principals.
    pub servers: Vec<(SimAddr, PrincipalId)>,
    /// The driving client.
    pub client_node: SimAddr,
    /// Capsule owner key used for delegations.
    pub owner: SigningKey,
    /// Maximum virtual time to wait for any single response.
    pub op_timeout: u64,
    /// How many records a network `read_range` fetches per request
    /// (flow-control batch; ablation knob).
    pub read_batch: u64,
    /// Durability mode used for CAAPI appends.
    pub ack_mode: AckMode,
    seed: u64,
}

impl GdpWorld {
    fn empty(seed: u64, routers: Vec<(SimAddr, Name)>, sched: Scheduler) -> GdpWorld {
        GdpWorld {
            sched,
            routers,
            servers: Vec::new(),
            client_node: 0,
            owner: SigningKey::from_seed(&[99u8; 32]),
            op_timeout: 600 * 1000 * MS, // 10 virtual minutes
            read_batch: 16,
            ack_mode: AckMode::Local,
            seed,
        }
    }

    /// Builds the single-domain world for `placement`.
    pub fn new(seed: u64, placement: Placement) -> GdpWorld {
        let mut sched = Scheduler::new(SimNet::new(seed));
        let router = sched.add_router([100; 32], "domain", seed ^ 100, None);
        let mut world = GdpWorld::empty(seed, vec![router], sched);
        world.add_server(0, 101, "server");
        let (up, down) = match placement {
            Placement::CloudFromResidential => {
                (LinkSpec::residential_up(), LinkSpec::residential_down())
            }
            Placement::EdgeLan => (LinkSpec::lan(), LinkSpec::lan()),
        };
        let client = GdpClient::from_seed(&[102u8; 32], "client");
        world.client_node = world.add_client_at(0, client, up, down);
        world.settle();
        world
    }

    /// A two-domain hierarchy (root + two leaf domains) with one server in
    /// each leaf and the client in domain 2. Used by locality/ablation
    /// studies.
    pub fn hierarchy(seed: u64) -> GdpWorld {
        let mut sched = Scheduler::new(SimNet::new(seed));
        let root = sched.add_router([110; 32], "root", seed ^ 110, None);
        let under_root = Some((root.0, LinkSpec::wan()));
        let d1 = sched.add_router([111; 32], "d1", seed ^ 111, under_root);
        let d2 = sched.add_router([112; 32], "d2", seed ^ 112, under_root);
        let mut world = GdpWorld::empty(seed, vec![d2, root, d1], sched);
        world.add_server(2, 113, "srv-d1");
        world.add_server(0, 114, "srv-d2");
        let client = GdpClient::from_seed(&[115u8; 32], "client");
        world.client_node = world.add_client_at(0, client, LinkSpec::lan(), LinkSpec::lan());
        world.settle();
        world
    }

    /// Adds a storage node (identity seed `[key; 32]`) on a LAN link to
    /// router `router`, with the modeled server CPU, and starts its attach.
    fn add_server(&mut self, router: usize, key: u8, label: &str) {
        let (router_addr, router_name) = self.routers[router];
        let cfg = NodeConfig {
            router: Some(router_name),
            ..node_config(Role::Storage, [key; 32], label)
        };
        let mut rt = NodeRuntime::from_config(&cfg, Some(router_addr)).expect("storage cores");
        rt.set_rng_seed(self.seed ^ key as u64);
        let id = rt.server().expect("storage role").principal_id().clone();
        let addr = self.sched.add_node(rt);
        self.sched.net.connect(addr, router_addr, LinkSpec::lan());
        self.sched.net.set_cpu(addr, CpuSpec { per_pdu_us: SERVER_CPU_US, per_byte_ns: 0 });
        self.sched.start_node(addr);
        self.servers.push((addr, id));
    }

    /// Adds `client` to router `router` over `up`/`down` links and starts
    /// its attach. Its requests never time out: each operation is bounded
    /// by [`GdpWorld::op_timeout`] instead.
    fn add_client_at(
        &mut self,
        router: usize,
        mut client: GdpClient,
        up: LinkSpec,
        down: LinkSpec,
    ) -> SimAddr {
        let (router_addr, router_name) = self.routers[router];
        client.set_rng_seed(self.seed ^ 0x434c_4945 ^ self.sched.net.now());
        client.set_request_timeout(u64::MAX);
        let addr = self.sched.add_client(client, router_addr, router_name);
        self.sched.net.connect_directed(addr, router_addr, up);
        self.sched.net.connect_directed(router_addr, addr, down);
        self.sched.attach_client(addr);
        addr
    }

    /// Attaches another client (e.g. a subscriber) to router `router` and
    /// waits for the attach; returns its address for [`GdpWorld::send`]
    /// and [`GdpWorld::take_events`].
    pub fn add_client(&mut self, router: usize, client: GdpClient) -> SimAddr {
        let addr = self.add_client_at(router, client, LinkSpec::lan(), LinkSpec::lan());
        self.settle();
        addr
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> u64 {
        self.sched.net.now()
    }

    /// Runs until no PDU is in flight (see [`Scheduler::settle`]).
    pub fn settle(&mut self) {
        self.sched.settle();
    }

    /// Runs the world for `dt` more virtual microseconds.
    pub fn run_for(&mut self, dt: u64) {
        self.sched.run_for(dt);
    }

    /// Sends `pdu` from the client at `client` to its router.
    pub fn send(&mut self, client: SimAddr, pdu: Pdu) {
        self.sched.send_to_router(client, pdu);
    }

    /// Takes the events queued at the client at `client`.
    pub fn take_events(&mut self, client: SimAddr) -> Vec<ClientEvent> {
        self.sched.client_mut(client).events.drain(..).collect()
    }

    /// The DataCapsule-server core of `servers[i]`.
    pub fn server(&self, i: usize) -> &DataCapsuleServer {
        self.sched.node(self.servers[i].0).and_then(|rt| rt.server()).expect("live server")
    }

    /// Mutable access to the server core of `servers[i]`.
    pub fn server_mut(&mut self, i: usize) -> &mut DataCapsuleServer {
        let addr = self.servers[i].0;
        self.sched.node_mut(addr).and_then(|rt| rt.server_mut()).expect("live server")
    }

    /// The routing core of `routers[i]`.
    pub fn router(&self, i: usize) -> &Router {
        self.sched.node(self.routers[i].0).and_then(|rt| rt.router()).expect("live router")
    }

    /// Mutable access to the routing core of `routers[i]`.
    pub fn router_mut(&mut self, i: usize) -> &mut Router {
        let addr = self.routers[i].0;
        self.sched.node_mut(addr).and_then(|rt| rt.router_mut()).expect("live router")
    }

    /// Brings the link between `a` and `b` down (both directions dropped)
    /// or back up. Neither side is told; see [`GdpWorld::peer_down`].
    pub fn set_link_up(&mut self, a: SimAddr, b: SimAddr, up: bool) {
        if up {
            self.sched.net.heal(a, b);
        } else {
            self.sched.net.partition(a, b);
        }
    }

    /// Reports `peer` dead to the node at `node` now, as its transport
    /// would: a router withdraws every route the peer advertised.
    pub fn peer_down(&mut self, node: SimAddr, peer: SimAddr) {
        self.sched.peer_down(node, peer);
    }

    /// Sends a request PDU from the driving client and steps the world
    /// until events appear or the op times out. Returns the events.
    pub fn drive(&mut self, pdu: Pdu) -> Vec<ClientEvent> {
        self.send(self.client_node, pdu);
        let deadline = self.now() + self.op_timeout;
        self.sched.wait_events(self.client_node, deadline)
    }

    /// Access to the client state machine.
    pub fn client_mut(&mut self) -> &mut GdpClient {
        &mut self.sched.client_mut(self.client_node).client
    }

    /// Provisions `metadata` on every server (Host + delegation), waits for
    /// the re-advertisements, and registers the client writer.
    pub fn provision_capsule(
        &mut self,
        metadata: &CapsuleMetadata,
        writer: SigningKey,
        strategy: PointerStrategy,
    ) -> Result<Name, CaapiError> {
        let capsule = metadata.name();
        self.client_mut()
            .register_writer(metadata, writer, strategy)
            .map_err(|e| CaapiError::Transport(e.to_string()))?;
        let server_names: Vec<Name> = self.servers.iter().map(|(_, id)| id.name()).collect();
        for (i, (_, server_id)) in self.servers.clone().iter().enumerate() {
            let chain = ServingChain::direct(
                AdCert::issue(
                    &self.owner,
                    capsule,
                    server_id.name(),
                    false,
                    Scope::Global,
                    FOREVER,
                ),
                server_id.principal().clone(),
            );
            let peers: Vec<Name> =
                server_names.iter().filter(|n| **n != server_id.name()).copied().collect();
            let msg = DataMsg::Host { metadata: metadata.clone(), chain, peers };
            let pdu = Pdu {
                pdu_type: PduType::Data,
                src: self.client_name(),
                dst: server_id.name(),
                seq: 1_000_000 + i as u64,
                payload: msg.to_wire().into(),
            };
            self.send(self.client_node, pdu);
        }
        self.settle();
        // Hosting flags a re-advertisement, which a node runs in its
        // maintenance tick: run that tick now rather than waiting out the
        // tick phase, so hosting costs what the handshake costs.
        for (addr, _) in self.servers.clone() {
            self.sched.tick_node(addr);
        }
        self.settle();
        // Drop HostAck noise.
        let _ = self.take_events(self.client_node);
        Ok(capsule)
    }

    /// The client's flat name.
    pub fn client_name(&mut self) -> Name {
        self.client_mut().name()
    }

    /// Establishes an HMAC flow with the capsule's serving replica.
    pub fn establish_session(&mut self, capsule: Name) -> Result<(), CaapiError> {
        let pdu = self.client_mut().session_init(capsule);
        let events = self.drive(pdu);
        if events.iter().any(|e| matches!(e, ClientEvent::SessionReady { .. })) {
            Ok(())
        } else {
            Err(CaapiError::Transport(format!("session failed: {events:?}")))
        }
    }
}

impl CapsuleAccess for GdpWorld {
    fn create_capsule(
        &mut self,
        metadata: CapsuleMetadata,
        writer: SigningKey,
        strategy: PointerStrategy,
    ) -> Result<Name, CaapiError> {
        self.provision_capsule(&metadata, writer, strategy)
    }

    fn append(&mut self, capsule: &Name, body: &[u8]) -> Result<u64, CaapiError> {
        let ts = self.now();
        let ack_mode = self.ack_mode;
        let (pdu, record) = self
            .client_mut()
            .append(*capsule, body, ts, ack_mode)
            .map_err(|e| CaapiError::Transport(e.to_string()))?;
        let want_seq = record.header.seq;
        let events = self.drive(pdu);
        for e in &events {
            if let ClientEvent::AppendAcked { seq, .. } = e {
                if *seq == want_seq {
                    return Ok(*seq);
                }
            }
        }
        Err(CaapiError::Transport(format!("append not acked: {events:?}")))
    }

    fn append_batch(&mut self, capsule: &Name, bodies: &[Vec<u8>]) -> Result<u64, CaapiError> {
        // Pipelined: sign and inject all records back to back, then wait
        // for every ack. The sender link serializes transmissions; no
        // artificial per-record round trip.
        let ack_mode = self.ack_mode;
        let mut want: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut last_seq = 0;
        for body in bodies {
            let ts = self.now();
            let (pdu, record) = self
                .client_mut()
                .append(*capsule, body, ts, ack_mode)
                .map_err(|e| CaapiError::Transport(e.to_string()))?;
            want.insert(record.header.seq);
            last_seq = last_seq.max(record.header.seq);
            self.send(self.client_node, pdu);
        }
        let deadline = self.now() + self.op_timeout;
        while !want.is_empty() {
            for e in self.take_events(self.client_node) {
                if let ClientEvent::AppendAcked { seq, .. } = e {
                    want.remove(&seq);
                }
            }
            if want.is_empty() || !self.sched.step(deadline) {
                break;
            }
        }
        if want.is_empty() {
            Ok(last_seq)
        } else {
            Err(CaapiError::Transport(format!("{} appends not acked", want.len())))
        }
    }

    fn read(&mut self, capsule: &Name, seq: u64) -> Result<Record, CaapiError> {
        let pdu = self.client_mut().read(*capsule, ReadTarget::One(seq));
        let events = self.drive(pdu);
        for e in events {
            match e {
                ClientEvent::ReadOk { result: VerifiedRead::Record(r), .. } => return Ok(r),
                ClientEvent::ServerError { code, detail, .. } => {
                    return Err(CaapiError::NotFound(format!("{code:?}: {detail}")))
                }
                _ => {}
            }
        }
        Err(CaapiError::Transport("no read response".into()))
    }

    fn read_range(
        &mut self,
        capsule: &Name,
        from: u64,
        to: u64,
    ) -> Result<Vec<Record>, CaapiError> {
        let mut out = Vec::new();
        let mut cursor = from;
        // Batched fetch: models client flow control (one request per batch
        // round trip), the knob the Fig 8 study sweeps.
        while cursor <= to {
            let hi = (cursor + self.read_batch - 1).min(to);
            let pdu = self.client_mut().read(*capsule, ReadTarget::Range(cursor, hi));
            let events = self.drive(pdu);
            let mut got = false;
            for e in events {
                match e {
                    ClientEvent::ReadOk { result: VerifiedRead::Records(rs), .. } => {
                        out.extend(rs);
                        got = true;
                    }
                    ClientEvent::ServerError { code, detail, .. } => {
                        return Err(CaapiError::NotFound(format!("{code:?}: {detail}")))
                    }
                    _ => {}
                }
            }
            if !got {
                return Err(CaapiError::Transport("range read failed".into()));
            }
            cursor = hi + 1;
        }
        Ok(out)
    }

    fn latest(&mut self, capsule: &Name) -> Result<Option<Record>, CaapiError> {
        let pdu = self.client_mut().read(*capsule, ReadTarget::Latest);
        let events = self.drive(pdu);
        for e in events {
            match e {
                ClientEvent::ReadOk { result: VerifiedRead::Latest(r, _), .. } => {
                    return Ok(Some(r))
                }
                ClientEvent::ServerError { code: gdp_server::ErrorCode::Empty, .. } => {
                    return Ok(None)
                }
                ClientEvent::ServerError { code, detail, .. } => {
                    return Err(CaapiError::NotFound(format!("{code:?}: {detail}")))
                }
                _ => {}
            }
        }
        Err(CaapiError::Transport("no latest response".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_capsule::MetadataBuilder;

    fn spec(owner: &SigningKey) -> (CapsuleMetadata, SigningKey) {
        let writer = SigningKey::from_seed(&[7u8; 32]);
        let meta = MetadataBuilder::new()
            .writer(&writer.verifying_key())
            .set_str("description", "world test")
            .sign(owner);
        (meta, writer)
    }

    #[test]
    fn edge_world_basic_ops() {
        let mut world = GdpWorld::new(3, Placement::EdgeLan);
        let owner = world.owner.clone();
        let (meta, writer) = spec(&owner);
        let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
        assert_eq!(world.append(&capsule, b"first").unwrap(), 1);
        assert_eq!(world.append(&capsule, b"second").unwrap(), 2);
        assert_eq!(world.read(&capsule, 1).unwrap().body, b"first");
        assert_eq!(world.latest(&capsule).unwrap().unwrap().header.seq, 2);
        let range = world.read_range(&capsule, 1, 2).unwrap();
        assert_eq!(range.len(), 2);
    }

    #[test]
    fn cloud_world_is_slower_than_edge() {
        let body = vec![0u8; 500_000];
        let run = |placement| {
            let mut world = GdpWorld::new(3, placement);
            let owner = world.owner.clone();
            let (meta, writer) = spec(&owner);
            let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
            let t0 = world.now();
            world.append(&capsule, &body).unwrap();
            world.now() - t0
        };
        let edge = run(Placement::EdgeLan);
        let cloud = run(Placement::CloudFromResidential);
        // 500 KB upload at 10 Mbps ≈ 400 ms vs ≈ 4 ms at 1 Gbps.
        assert!(cloud > 20 * edge, "cloud {cloud} edge {edge}");
    }

    #[test]
    fn session_over_world() {
        let mut world = GdpWorld::new(4, Placement::EdgeLan);
        let owner = world.owner.clone();
        let (meta, writer) = spec(&owner);
        let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
        world.establish_session(capsule).unwrap();
        // HMAC-authenticated appends still work.
        assert_eq!(world.append(&capsule, b"with hmac").unwrap(), 1);
    }

    #[test]
    fn hierarchy_replicates_to_both_domains() {
        let mut world = GdpWorld::hierarchy(5);
        let owner = world.owner.clone();
        let (meta, writer) = spec(&owner);
        let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
        world.append(&capsule, b"replicated").unwrap();
        world.settle();
        for i in 0..world.servers.len() {
            let len = world.server(i).capsule(&capsule).unwrap().len();
            assert_eq!(len, 1, "both replicas must hold the record");
        }
    }

    /// Regression: a client with flow sessions on two capsules of one
    /// server gets MAC'd responses on both (the server keys flow keys per
    /// client *and* capsule).
    #[test]
    fn sessions_on_two_capsules_of_one_server() {
        let mut world = GdpWorld::new(6, Placement::EdgeLan);
        let owner = world.owner.clone();
        let (meta_a, writer) = spec(&owner);
        let meta_b = MetadataBuilder::new()
            .writer(&writer.verifying_key())
            .set_str("description", "second capsule")
            .sign(&owner);
        let a = world.create_capsule(meta_a, writer.clone(), PointerStrategy::Chain).unwrap();
        let b = world.create_capsule(meta_b, writer, PointerStrategy::Chain).unwrap();
        world.append(&a, b"in a").unwrap();
        world.append(&b, b"in b").unwrap();
        world.establish_session(a).unwrap();
        world.establish_session(b).unwrap();
        assert_eq!(world.read(&a, 1).unwrap().body, b"in a");
        assert_eq!(world.read(&b, 1).unwrap().body, b"in b");
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed| {
            let mut world = GdpWorld::hierarchy(seed);
            let owner = world.owner.clone();
            let (meta, writer) = spec(&owner);
            let capsule = world.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
            world.establish_session(capsule).unwrap();
            world.append(&capsule, b"one").unwrap();
            world.append(&capsule, b"two").unwrap();
            world.read_range(&capsule, 1, 2).unwrap();
            world.settle();
            (world.sched.net.trace_digest(), world.sched.net.trace_events(), world.now())
        };
        assert_eq!(run(7), run(7), "same seed must replay byte-identically");
        assert_ne!(run(7).0, run(8).0, "different seeds must diverge");
    }
}
