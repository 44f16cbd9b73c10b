//! End-to-end routing tests on the deterministic simulator: secure
//! advertisement over the network, hierarchical forwarding, anycast
//! locality, scope enforcement, and GLookupService recursion.

use gdp_capsule::{CapsuleMetadata, MetadataBuilder};
use gdp_cert::{AdCert, CapsuleAdvert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_crypto::SigningKey;
use gdp_net::simnet::{LinkSpec, SimAddr, SimEndpoint, SimNet};
use gdp_router::{Attacher, LookupMsg, Router};
use gdp_sim::sched::AttachError;
use gdp_sim::Scheduler;
use gdp_wire::{Name, Pdu, PduType, Wire};

fn owner() -> SigningKey {
    SigningKey::from_seed(&[1u8; 32])
}
fn writer() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

fn metadata(desc: &str) -> CapsuleMetadata {
    MetadataBuilder::new()
        .writer(&writer().verifying_key())
        .set_str("description", desc)
        .sign(&owner())
}

/// A bare fabric endpoint that ran an attach handshake through one
/// router. Stands in for a server or client endpoint.
struct EndpointNode {
    ep: SimEndpoint,
    router: SimAddr,
    /// The handshake outcome: accepted names, or the rejection reason.
    attach: Result<Vec<Name>, AttachError>,
}

impl EndpointNode {
    fn send(&self, pdu: Pdu) {
        self.ep.send(self.router, pdu).unwrap();
    }

    /// Everything delivered since the last call.
    fn received(&self) -> Vec<Pdu> {
        std::iter::from_fn(|| self.ep.try_recv().unwrap().map(|(_, pdu)| pdu)).collect()
    }
}

fn server_principal(seed: u8, label: &str) -> PrincipalId {
    PrincipalId::from_seed(PrincipalKind::Server, &[seed; 32], label)
}

fn capsule_advert(meta: &CapsuleMetadata, server: &PrincipalId, scope: Scope) -> CapsuleAdvert {
    let adcert = AdCert::issue(&owner(), meta.name(), server.name(), false, scope, 1 << 40);
    CapsuleAdvert {
        metadata: meta.clone(),
        chain: ServingChain::direct(adcert, server.principal().clone()),
    }
}

/// Builds: root router ── r1 ── endpoints, r2 ── endpoints topology, with
/// every router a production node runtime on the simulator.
struct Hierarchy {
    sched: Scheduler,
    root: SimAddr,
    r1: SimAddr,
    r2: SimAddr,
    r1_name: Name,
    r2_name: Name,
}

impl Hierarchy {
    fn router(&mut self, addr: SimAddr) -> &mut Router {
        self.sched.node_mut(addr).unwrap().router_mut().unwrap()
    }

    fn add_endpoint(
        &mut self,
        router: SimAddr,
        router_name: Name,
        principal: PrincipalId,
        entries: Vec<CapsuleAdvert>,
    ) -> EndpointNode {
        let ep = self.sched.net.endpoint();
        self.sched.net.connect(ep.addr, router, LinkSpec::lan());
        let attacher = Attacher::new(principal, router_name, entries, 1 << 40);
        let attach = self.sched.attach_endpoint(&ep, router, attacher, 10_000_000);
        EndpointNode { ep, router, attach }
    }
}

fn hierarchy() -> Hierarchy {
    let mut sched = Scheduler::new(SimNet::new(7));
    let mut add_router = |seed: u8, label: &str, parent: Option<SimAddr>| {
        sched.add_router([seed; 32], label, seed as u64, parent.map(|p| (p, LinkSpec::wan())))
    };
    let (root, _) = add_router(10, "root", None);
    let (r1, r1_name) = add_router(11, "domain-1", Some(root));
    let (r2, r2_name) = add_router(12, "domain-2", Some(root));
    Hierarchy { sched, root, r1, r2, r1_name, r2_name }
}

#[test]
fn advertisement_and_cross_domain_forwarding() {
    let mut h = hierarchy();
    let meta = metadata("cross-domain");
    let server = server_principal(20, "srv-d1");
    let server_name = server.name();
    let advert = capsule_advert(&meta, &server, Scope::Global);
    let server_node = h.add_endpoint(h.r1, h.r1_name, server, vec![advert]);

    let client = PrincipalId::from_seed(PrincipalKind::Client, &[21u8; 32], "client-d2");
    let client_name = client.name();
    let client_node = h.add_endpoint(h.r2, h.r2_name, client, vec![]);

    h.sched.settle();
    assert!(server_node.attach.is_ok());
    assert!(client_node.attach.is_ok());

    // The capsule propagated to the root GLookupService (global scope).
    let now = h.sched.net.now();
    let root_routes = h.router(h.root).lookup_local(&meta.name(), now);
    assert_eq!(root_routes.len(), 1);
    root_routes[0].verify(now).unwrap();
    assert_eq!(root_routes[0].server_name(), server_name);

    // Client sends a data PDU addressed to the *capsule name*; it must
    // cross r2 → root → r1 → server.
    let data = Pdu::data(client_name, meta.name(), 99, b"read request".to_vec());
    client_node.send(data);
    h.sched.settle();
    let server_rx = server_node.received();
    assert_eq!(server_rx.len(), 1);
    assert_eq!(server_rx[0].seq, 99);

    // And the server can respond to the client's flat name.
    let resp = Pdu::data(server_name, client_name, 99, b"response".to_vec());
    server_node.send(resp);
    h.sched.settle();
    let client_rx = client_node.received();
    assert_eq!(client_rx.len(), 1);
    assert_eq!(client_rx[0].payload, b"response");
}

#[test]
fn anycast_prefers_local_replica() {
    let mut h = hierarchy();
    let meta = metadata("replicated");
    // Two replicas of the same capsule: one in domain 1, one in domain 2.
    let srv1 = server_principal(30, "replica-d1");
    let srv2 = server_principal(31, "replica-d2");
    let srv2_name = srv2.name();
    let advert1 = capsule_advert(&meta, &srv1, Scope::Global);
    let advert2 = capsule_advert(&meta, &srv2, Scope::Global);
    let _n1 = h.add_endpoint(h.r1, h.r1_name, srv1, vec![advert1]);
    let n2 = h.add_endpoint(h.r2, h.r2_name, srv2, vec![advert2]);

    let client = PrincipalId::from_seed(PrincipalKind::Client, &[32u8; 32], "client-d2");
    let client_node = h.add_endpoint(h.r2, h.r2_name, client, vec![]);
    h.sched.settle();

    // A request from domain 2 must be served by the domain-2 replica
    // (distance 0 at r2) without ever reaching the root.
    let before_root = h.router(h.root).stats;
    let data = Pdu::data(Name::from_content(b"anon"), meta.name(), 5, vec![]);
    client_node.send(data);
    h.sched.settle();
    let n2_rx = n2.received();
    assert_eq!(n2_rx.len(), 1, "local replica should receive the request");
    let after_root = h.router(h.root).stats;
    assert_eq!(
        before_root.forwarded + before_root.delivered_local,
        after_root.forwarded + after_root.delivered_local,
        "root router should not carry anycast-local traffic"
    );
    // The root still knows both replicas (for clients elsewhere).
    let now = h.sched.net.now();
    let routes = h.router(h.root).lookup_local(&meta.name(), now);
    assert_eq!(routes.len(), 2);
    assert!(routes.iter().any(|r| r.server_name() == srv2_name));
}

#[test]
fn scoped_capsule_stays_in_domain() {
    let mut h = hierarchy();
    let meta = metadata("factory-secret");
    let server = server_principal(40, "factory-server");
    // Scope: do not advertise beyond router r1 (the factory domain).
    let advert = capsule_advert(&meta, &server, Scope::Domain(h.r1_name));
    let _srv_node = h.add_endpoint(h.r1, h.r1_name, server, vec![advert]);
    h.sched.settle();

    let now = h.sched.net.now();
    // r1 knows the capsule.
    assert!(!h.router(h.r1).lookup_local(&meta.name(), now).is_empty());
    // The root must NOT know it.
    assert!(h.router(h.root).lookup_local(&meta.name(), now).is_empty());
}

#[test]
fn forged_advertisement_rejected() {
    let mut h = hierarchy();
    let meta = metadata("victim");
    let legit = server_principal(50, "legit");
    let thief = server_principal(51, "thief");
    // Thief presents a chain delegated to the legit server.
    let adcert = AdCert::issue(&owner(), meta.name(), legit.name(), false, Scope::Global, 1 << 40);
    let stolen = CapsuleAdvert {
        metadata: meta.clone(),
        chain: ServingChain::direct(adcert, legit.principal().clone()),
    };
    let thief_node = h.add_endpoint(h.r1, h.r1_name, thief, vec![stolen]);
    h.sched.settle();

    assert!(matches!(thief_node.attach, Err(AttachError::Rejected(_))), "{:?}", thief_node.attach);
    let now = h.sched.net.now();
    assert!(h.router(h.r1).lookup_local(&meta.name(), now).is_empty());
    assert_eq!(h.router(h.r1).stats.adverts_rejected, 1);
}

#[test]
fn lookup_recurses_to_parent() {
    let mut h = hierarchy();
    let meta = metadata("looked-up");
    let server = server_principal(60, "srv");
    let advert = capsule_advert(&meta, &server, Scope::Global);
    let _srv = h.add_endpoint(h.r1, h.r1_name, server, vec![advert]);

    let client = PrincipalId::from_seed(PrincipalKind::Client, &[61u8; 32], "asker");
    let client_node = h.add_endpoint(h.r2, h.r2_name, client.clone(), vec![]);
    h.sched.settle();

    // r2 has no local route for the capsule; a Lookup query must recurse
    // via the root and come back verifiable.
    let query = LookupMsg::Query { query_id: 77, name: meta.name() };
    let pdu = Pdu {
        pdu_type: PduType::Lookup,
        src: client.name(),
        dst: h.r2_name,
        seq: 1,
        payload: query.to_wire().into(),
    };
    client_node.send(pdu);
    h.sched.settle();

    let received = client_node.received();
    let answer = received.iter().find(|p| p.pdu_type == PduType::Lookup).expect("lookup answer");
    match LookupMsg::from_wire(&answer.payload).unwrap() {
        LookupMsg::Answer { query_id, name, routes } => {
            assert_eq!(query_id, 77);
            assert_eq!(name, meta.name());
            assert_eq!(routes.len(), 1);
            routes[0].verify(h.sched.net.now()).unwrap();
        }
        other => panic!("expected answer, got {other:?}"),
    }
    assert!(h.router(h.r2).stats.lookups_escalated >= 1);
}

#[test]
fn unroutable_name_yields_error_pdu() {
    let mut h = hierarchy();
    let client = PrincipalId::from_seed(PrincipalKind::Client, &[70u8; 32], "lost");
    let client_name = client.name();
    let client_node = h.add_endpoint(h.r2, h.r2_name, client, vec![]);
    h.sched.settle();

    let ghost = Name::from_content(b"no such capsule");
    let data = Pdu::data(client_name, ghost, 3, vec![]);
    client_node.send(data);
    h.sched.settle();

    let received = client_node.received();
    let err = received
        .iter()
        .find(|p| p.pdu_type == PduType::Error)
        .expect("error PDU should be routed back to the source");
    assert_eq!(err.payload, ghost.0.to_vec());
    assert_eq!(err.seq, 3);
}

#[test]
fn router_crash_heals_via_second_replica() {
    let mut h = hierarchy();
    let meta = metadata("ha-capsule");
    let srv1 = server_principal(80, "r1-replica");
    let srv2 = server_principal(81, "r2-replica");
    let a1 = capsule_advert(&meta, &srv1, Scope::Global);
    let a2 = capsule_advert(&meta, &srv2, Scope::Global);
    let n1 = h.add_endpoint(h.r1, h.r1_name, srv1, vec![a1]);
    let n2 = h.add_endpoint(h.r2, h.r2_name, srv2, vec![a2]);
    let client = PrincipalId::from_seed(PrincipalKind::Client, &[82u8; 32], "c");
    let client_name = client.name();
    let client_node = h.add_endpoint(h.r2, h.r2_name, client, vec![]);
    h.sched.settle();

    // Partition the r2 replica away; its router notices via neighbor_down.
    h.sched.net.partition(n2.ep.addr, h.r2);
    h.sched.peer_down(h.r2, n2.ep.addr);

    let data = Pdu::data(client_name, meta.name(), 11, vec![]);
    client_node.send(data);
    h.sched.settle();
    // The request must reach the remaining replica in domain 1.
    assert_eq!(n1.received().len(), 1);
}
