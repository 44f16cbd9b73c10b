//! A durable event stream with consumer groups, on the network stack: the
//! Kafka-style append-only log the paper sketches (§V-A cites Kafka as the
//! exemplar).
//!
//! Run with: `cargo run --example event_stream`

use gdp::caapi::{GdpStream, Message};
use gdp::sim::{GdpWorld, Placement};

fn main() {
    // The topic lives on an edge deployment; every publish/poll below is a
    // full client → router → server round trip with verification.
    let world = GdpWorld::new(77, Placement::EdgeLan);
    let owner = world.owner.clone();
    let mut stream = GdpStream::create(world, owner, "factory-events").unwrap();
    let topic = stream.topic();
    println!("topic capsule: {}", topic.to_hex());

    // Producers publish (batch = pipelined on the wire).
    let events: Vec<Message> = (0..12)
        .map(|i| Message {
            key: format!("robot-{}", i % 3).into_bytes(),
            value: format!("step {i} completed").into_bytes(),
        })
        .collect();
    stream.publish_batch(&events).unwrap();
    println!(
        "published {} events; high watermark = {}",
        events.len(),
        stream.high_watermark().unwrap()
    );

    // Two independent consumer groups at their own pace.
    let batch = stream.poll("alerting", 5).unwrap();
    println!(
        "alerting group polled {} events (offsets {}..{})",
        batch.len(),
        batch[0].0,
        batch[batch.len() - 1].0
    );
    stream.commit_offset("alerting", batch.last().unwrap().0).unwrap();

    let audit = stream.poll("audit", 100).unwrap();
    println!("audit group sees all {} events independently", audit.len());

    // Time shift: replay history regardless of commits.
    let replay = stream.replay(3, 4).unwrap();
    println!(
        "replay from offset 3: {} events, first = {:?}",
        replay.len(),
        String::from_utf8_lossy(&replay[0].1.value)
    );
}
