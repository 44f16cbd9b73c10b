//! Layer replay: the same seed's inputs pushed through each layer's
//! public entry point on one thread, with no network and no other load,
//! each call timed. The medians are the layers' busy times that the
//! stage table subtracts from live latency.

use crate::cluster::Inputs;
use crate::gen::read_kind;
use gdp_capsule::PointerStrategy;
use gdp_cert::CapsuleAdvert;
use gdp_client::{ClientEvent, GdpClient};
use gdp_crypto::{sha256, SigningKey};
use gdp_node::FOREVER;
use gdp_router::{attach_directly, Attacher, Router};
use gdp_server::{AckMode, DataCapsuleServer, ReadTarget};
use gdp_store::{CapsuleStore, SegConfig, SegLog};
use gdp_wire::{Pdu, Wire};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Appends between simulated maintenance ticks (gdpd ticks every
/// 200 ms; at 200 appends/s that is ~40 appends).
const APPENDS_PER_TICK: usize = 32;
const TICK_US: u64 = 200_000;

#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = black_box(f());
        self.0.entry(name.to_string()).or_default().push(t.elapsed().as_secs_f64() * 1e6);
        v
    }
}

/// Replays `bodies` as appends to capsule 0 and `reads` against the
/// result; returns the median µs per call of each entry point (plus
/// `crypto.sha256_mbps`). `dir` receives temporary segmented logs.
pub fn run(
    inp: &Inputs,
    strategy: &PointerStrategy,
    bodies: &[Vec<u8>],
    reads: &[ReadTarget],
    dir: &Path,
) -> Result<BTreeMap<String, f64>, String> {
    let spec = &inp.capsules[0];
    let meta = &spec.meta;
    let cap = meta.name();
    let key = SigningKey::from_seed(&spec.writer_seed);
    let mut s = Samples::default();

    // crypto: sign and verify the bodies; hash 4 KiB blocks.
    let sigs: Vec<_> = bodies.iter().map(|b| s.time("crypto.sign_us", || key.sign(b))).collect();
    let vk = key.verifying_key();
    for (b, sig) in bodies.iter().zip(&sigs) {
        if !s.time("crypto.verify_us", || vk.verify(b, sig)) {
            return Err("replay: signature did not verify".into());
        }
    }
    let block: Vec<u8> = bodies.iter().flatten().copied().cycle().take(4096).collect();
    let rounds = 2048;
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(sha256(black_box(&block)));
    }
    let sha_mbps = (rounds * block.len()) as f64 / t.elapsed().as_secs_f64() / 1e6;

    // client: build the signed append PDUs (timed live, not here).
    let mut writer = GdpClient::from_seed(&spec.writer_seed, "replay-writer");
    writer.register_writer(meta, key.clone(), strategy.clone()).map_err(str::to_string)?;
    let mut pdus = Vec::new();
    let mut records = Vec::new();
    for b in bodies {
        let (pdu, record) = writer.append(cap, b, 0, AckMode::Local).map_err(str::to_string)?;
        pdus.push(pdu);
        records.push(record);
    }

    // wire: frame encode and decode.
    for p in &pdus {
        let bytes = s.time("wire.encode_us", || p.to_wire());
        let back = s.time("wire.decode_us", || Pdu::from_wire(&bytes));
        if back.as_ref() != Ok(p) {
            return Err("replay: PDU did not round-trip".into());
        }
    }

    // router: one hop from the writer toward the serving replica.
    let server_id = inp.servers[0].clone();
    let mut router = Router::from_seed(&inp.router_seed, "bench-router");
    let advert = CapsuleAdvert { metadata: meta.clone(), chain: spec.chains[0].clone() };
    let mut srv_attach = Attacher::new(server_id.clone(), router.name(), vec![advert], FOREVER);
    attach_directly(&mut router, 3, &mut srv_attach, 0)?;
    let mut cli_attach =
        Attacher::new(writer.principal_id().clone(), router.name(), vec![], FOREVER);
    attach_directly(&mut router, 7, &mut cli_attach, 0)?;
    for p in &pdus {
        let out = s.time("router.handle_us", || router.handle_pdu(1, 7, p.clone()));
        if out.first().map(|(n, _)| *n) != Some(3) {
            return Err("replay: router did not forward to the replica".into());
        }
    }

    // server: appends on a segmented store with the live fsync policy,
    // ticked as gdpd's maintenance loop would; then the reads, answered
    // under a session like the live reader's.
    let seg_dir = dir.join("replay-server");
    let _ = std::fs::remove_dir_all(&seg_dir);
    let log = SegLog::open(&seg_dir, SegConfig::default()).map_err(|e| format!("{e:?}"))?;
    let mut server = DataCapsuleServer::new(server_id);
    server
        .host_with_store(meta.clone(), spec.chains[0].clone(), vec![], Box::new(log.handle(cap)))
        .map_err(|e| format!("{e:?}"))?;
    let mut now = 0u64;
    for (i, p) in pdus.iter().enumerate() {
        s.time("server.append_us", || server.handle_pdu(now, p.clone()));
        if (i + 1) % APPENDS_PER_TICK == 0 {
            now += TICK_US;
            s.time("server.tick_us", || server.tick(now));
        }
    }
    now += TICK_US;
    server.tick(now);
    let mut reader_seed = spec.writer_seed;
    reader_seed[0] ^= 0xa5;
    let mut reader = GdpClient::from_seed(&reader_seed, "replay-reader");
    reader.track_capsule(meta).map_err(str::to_string)?;
    let init = reader.session_init(cap);
    let mut ready = false;
    for resp in server.handle_pdu(now, init) {
        ready |= reader
            .handle_pdu(now, resp)
            .iter()
            .any(|e| matches!(e, ClientEvent::SessionReady { .. }));
    }
    if !ready {
        return Err("replay: reader session failed".into());
    }
    for t in reads {
        let pdu = reader.read(cap, *t);
        let name = format!("server.read_us.{}", read_kind(t));
        let out = s.time(&name, || server.handle_pdu(now, pdu));
        for resp in out {
            reader.handle_pdu(now, resp);
        }
    }
    drop(server);
    drop(log);

    // store: the same records straight into a SegStore.
    let st_dir = dir.join("replay-store");
    let _ = std::fs::remove_dir_all(&st_dir);
    let log = SegLog::open(&st_dir, SegConfig::default()).map_err(|e| format!("{e:?}"))?;
    let mut store = log.handle(cap);
    store.put_metadata(meta).map_err(|e| format!("{e:?}"))?;
    let mut now = 0u64;
    for (i, r) in records.iter().enumerate() {
        s.time("store.append_us", || store.append_acked(r)).map_err(|e| format!("{e:?}"))?;
        if (i + 1) % APPENDS_PER_TICK == 0 {
            now += TICK_US;
            s.time("store.flush_us", || store.flush(now)).map_err(|e| format!("{e:?}"))?;
        }
    }
    drop(store);
    drop(log);
    let _ = std::fs::remove_dir_all(&seg_dir);
    let _ = std::fs::remove_dir_all(&st_dir);

    let mut out: BTreeMap<String, f64> =
        s.0.iter().map(|(k, v)| (k.clone(), crate::stats::median(v))).collect();
    out.insert("crypto.sha256_mbps".into(), sha_mbps);
    Ok(out)
}
