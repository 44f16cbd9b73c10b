//! Federation mechanics: trust domains, secure advertisement, anycast to
//! the closest replica, scope policies, and independently verifiable
//! lookups (paper §VII).
//!
//! Run with: `cargo run --example federated_routing`

use gdp::capsule::MetadataBuilder;
use gdp::cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp::crypto::SigningKey;
use gdp::net::{LinkSpec, SimNet};
use gdp::node::{NodeRuntime, Role};
use gdp::server::DataCapsuleServer;
use gdp::sim::{Scheduler, FOREVER};

fn main() {
    let owner = SigningKey::from_seed(&[1u8; 32]);
    let writer = SigningKey::from_seed(&[2u8; 32]);

    // Three administrative domains: a global root, a public cloud, and a
    // factory. Each runs its own GDP-router (= its own GLookupService) on
    // the node runtime `gdpd` uses, here over the deterministic simulator.
    let mut sched = Scheduler::new(SimNet::new(2026));
    let mut add_router = |seed: u8, label: &str, parent: Option<usize>| {
        sched.add_router([seed; 32], label, seed as u64, parent.map(|p| (p, LinkSpec::wan())))
    };
    let (root_node, _) = add_router(10, "tier-1 root", None);
    let (cloud_node, _) = add_router(11, "public cloud", Some(root_node));
    let (factory_node, factory_name) = add_router(12, "factory floor", Some(root_node));

    // Two capsules: a public dataset (global scope) and the factory's
    // episode log (restricted to the factory domain).
    let public_meta = MetadataBuilder::new()
        .writer(&writer.verifying_key())
        .set_str("description", "public dataset")
        .sign(&owner);
    let secret_meta = MetadataBuilder::new()
        .writer(&writer.verifying_key())
        .set_str("description", "factory episode log")
        .sign(&owner);

    // The factory's server hosts both; the owner scopes the episode log to
    // the factory domain in its AdCert.
    let server_id = PrincipalId::from_seed(PrincipalKind::Server, &[20u8; 32], "factory-server");
    let mut server = DataCapsuleServer::new(server_id.clone());
    let chain = |meta: &gdp::capsule::CapsuleMetadata, scope: Scope| {
        ServingChain::direct(
            AdCert::issue(&owner, meta.name(), server_id.name(), false, scope, FOREVER),
            server_id.principal().clone(),
        )
    };
    server.host(public_meta.clone(), chain(&public_meta, Scope::Global), vec![]).unwrap();
    server
        .host(secret_meta.clone(), chain(&secret_meta, Scope::Domain(factory_name)), vec![])
        .unwrap();
    let storage =
        NodeRuntime::new(Role::Storage, None, Some(server), Some(factory_name), Some(factory_node));
    let server_node = sched.add_node(storage);
    sched.net.connect(server_node, factory_node, LinkSpec::lan());
    sched.start_node(server_node);
    sched.settle();

    println!("secure advertisement completed; checking GLookupService state:\n");
    let now = sched.net.now();
    let mut lookup = |node, name: gdp::wire::Name| {
        sched.node_mut(node).unwrap().router_mut().unwrap().lookup_local(&name, now)
    };
    for (label, node) in [("factory", factory_node), ("root", root_node), ("cloud", cloud_node)] {
        let public_known = !lookup(node, public_meta.name()).is_empty();
        let secret_known = !lookup(node, secret_meta.name()).is_empty();
        println!("  {label:8} GLookupService: public dataset: {public_known:5}  episode log: {secret_known}");
    }

    // The scope policy: the episode log never left the factory domain.
    assert!(lookup(root_node, secret_meta.name()).is_empty());

    // Any party can independently verify a route returned by the (totally
    // untrusted) GLookupService: the chain runs from the capsule name to
    // the AdCert to the RtCert with no PKI.
    let routes = lookup(root_node, public_meta.name());
    let route = &routes[0];
    route.verify(now).expect("route verifies end to end");
    println!("\nroot route for public dataset:");
    println!("  serving server : {}", route.server_name());
    println!("  delegation     : owner → AdCert → server → RtCert → router");
    println!("  verification   : OK (from the flat name alone) ✔");

    // A forged route (e.g. a MITM router claiming the name) fails.
    let mut forged = route.clone();
    forged.name = secret_meta.name();
    assert!(forged.verify(now).is_err());
    println!("  forged variant : rejected ✔");
}
