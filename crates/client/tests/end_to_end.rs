//! Full-stack integration: client ↔ router hierarchy ↔ replicated
//! DataCapsule-servers, all production node runtimes on the deterministic
//! simulator.

use gdp_capsule::{MetadataBuilder, PointerStrategy};
use gdp_client::{ClientEvent, GdpClient, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_server::{AckMode, ReadTarget};
use gdp_sim::GdpWorld;
use gdp_wire::Name;

fn writer_key() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

struct World {
    world: GdpWorld,
    capsule: Name,
    metadata: gdp_capsule::CapsuleMetadata,
}

/// Two domains under a root; capsule replicated on one server per domain;
/// the writer-client lives in domain 2.
fn build_world() -> World {
    let mut world = GdpWorld::hierarchy(11);
    let metadata = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "e2e capsule")
        .sign(&world.owner);
    let capsule =
        world.provision_capsule(&metadata, writer_key(), PointerStrategy::SkipList).unwrap();
    World { world, capsule, metadata }
}

fn client(world: &mut World) -> &mut GdpClient {
    world.world.client_mut()
}

fn send_request(world: &mut World, pdu: gdp_wire::Pdu) {
    let client = world.world.client_node;
    world.world.send(client, pdu);
    world.world.run_for(2_000_000);
}

fn take_events(world: &mut World) -> Vec<ClientEvent> {
    let client = world.world.client_node;
    world.world.take_events(client)
}

#[test]
fn append_replicates_and_reads_verify() {
    let mut world = build_world();
    let capsule = world.capsule;

    // Append three records with quorum-1 durability.
    for i in 0..3u64 {
        let (pdu, _) = client(&mut world)
            .append(capsule, format!("entry {i}").as_bytes(), i, AckMode::Quorum(1))
            .unwrap();
        send_request(&mut world, pdu);
    }
    let events = take_events(&mut world);
    let acks: Vec<_> =
        events.iter().filter(|e| matches!(e, ClientEvent::AppendAcked { .. })).collect();
    assert_eq!(acks.len(), 3, "events: {events:?}");
    if let ClientEvent::AppendAcked { replicas, .. } = acks[2] {
        assert!(*replicas >= 2, "quorum ack must report ≥2 replicas");
    }

    // Both replicas hold all three records (leaderless replication).
    for i in 0..2 {
        let c = world.world.server(i).capsule(&capsule).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.is_contiguous());
    }

    // Read latest and a membership proof; both verify client-side.
    let pdu = client(&mut world).read(capsule, ReadTarget::Latest);
    send_request(&mut world, pdu);
    let pdu = client(&mut world).read(capsule, ReadTarget::ProofOf(1));
    send_request(&mut world, pdu);

    let events = take_events(&mut world);
    let mut saw_latest = false;
    let mut saw_proof = false;
    for e in &events {
        match e {
            ClientEvent::ReadOk { result: VerifiedRead::Latest(r, hb), .. } => {
                assert_eq!(r.header.seq, 3);
                assert_eq!(hb.seq, 3);
                saw_latest = true;
            }
            ClientEvent::ReadOk { result: VerifiedRead::Proven(r), .. } => {
                assert_eq!(r.header.seq, 1);
                assert_eq!(r.body, b"entry 0");
                saw_proof = true;
            }
            ClientEvent::VerificationFailed { reason, .. } => {
                panic!("unexpected verification failure: {reason}");
            }
            _ => {}
        }
    }
    assert!(saw_latest && saw_proof, "events: {events:?}");
}

#[test]
fn session_upgrade_to_hmac() {
    let mut world = build_world();
    let capsule = world.capsule;

    let pdu = client(&mut world).session_init(capsule);
    send_request(&mut world, pdu);
    let events = take_events(&mut world);
    assert!(
        events.iter().any(|e| matches!(e, ClientEvent::SessionReady { .. })),
        "events: {events:?}"
    );
    assert!(client(&mut world).has_session(&capsule));

    // Subsequent appends are HMAC-authenticated and still verify.
    let (pdu, _) = client(&mut world).append(capsule, b"after session", 1, AckMode::Local).unwrap();
    send_request(&mut world, pdu);
    let events = take_events(&mut world);
    assert!(
        events.iter().any(|e| matches!(e, ClientEvent::AppendAcked { .. })),
        "events: {events:?}"
    );
}

#[test]
fn subscription_delivers_live_events() {
    let mut world = build_world();
    let capsule = world.capsule;

    // A second client (reader) in domain 1 (routers[2]) subscribes.
    let mut reader = GdpClient::from_seed(&[31u8; 32], "reader");
    reader.track_capsule(&world.metadata).unwrap();
    let sub_pdu = reader.subscribe(capsule, 0);
    let reader_node = world.world.add_client(2, reader);
    world.world.send(reader_node, sub_pdu);
    world.world.settle();

    // Writer appends; the reader (subscribed at the domain-1 replica) must
    // get the event after replication.
    let (pdu, _) = client(&mut world).append(capsule, b"published!", 7, AckMode::Local).unwrap();
    send_request(&mut world, pdu);

    let events = world.world.take_events(reader_node);
    let sub_events: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            ClientEvent::SubEvent { record, .. } => Some(record.body.clone()),
            _ => None,
        })
        .collect();
    assert!(sub_events.iter().any(|b| b == b"published!"), "reader events: {events:?}");
}

#[test]
fn anti_entropy_heals_partition() {
    let mut world = build_world();
    let capsule = world.capsule;

    // Partition server 1's domain from the root.
    let (root, d1) = (world.world.routers[1].0, world.world.routers[2].0);
    world.world.set_link_up(root, d1, false);

    for i in 0..4u64 {
        let (pdu, _) = client(&mut world)
            .append(capsule, format!("during partition {i}").as_bytes(), i, AckMode::Local)
            .unwrap();
        send_request(&mut world, pdu);
    }
    // Server 2 has the records; server 1 does not.
    assert_eq!(world.world.server(1).capsule(&capsule).unwrap().len(), 4);
    assert_eq!(world.world.server(0).capsule(&capsule).unwrap().len(), 0);

    // Heal the partition; anti-entropy ticks must catch server 1 up.
    world.world.set_link_up(root, d1, true);
    world.world.run_for(5_000_000);
    assert_eq!(
        world.world.server(0).capsule(&capsule).unwrap().len(),
        4,
        "anti-entropy should heal the lagging replica"
    );
}
