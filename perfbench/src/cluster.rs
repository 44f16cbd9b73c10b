//! The system under test: one router and two segmented-engine storage
//! replicas, each started with `gdp_node::start` on loopback TCP, plus
//! the identities and delegations their configs need.

use crate::rng::Rng;
use gdp_capsule::{CapsuleMetadata, MetadataBuilder};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_crypto::SigningKey;
use gdp_node::{HostSpec, NodeConfig, NodeHandle, Role, StoreEngine, FOREVER};
use gdp_router::Router;
use gdp_wire::Name;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const REPLICAS: usize = 2;

/// One capsule: its signed metadata, its writer's key seed, and a
/// serving delegation to each replica.
pub struct CapsuleSpec {
    pub meta: CapsuleMetadata,
    pub writer_seed: [u8; 32],
    pub chains: Vec<ServingChain>,
}

/// Everything generated from the seed before any node starts.
pub struct Inputs {
    pub router_seed: [u8; 32],
    pub router_name: Name,
    /// Node config seeds; a storage node's server identity is derived
    /// from its seed with byte 0 flipped by 0x5a (as gdpd does).
    pub storage_seeds: Vec<[u8; 32]>,
    pub servers: Vec<PrincipalId>,
    pub capsules: Vec<CapsuleSpec>,
}

fn server_identity(seed: [u8; 32], label: &str) -> PrincipalId {
    let mut s = seed;
    s[0] ^= 0x5a;
    PrincipalId::from_seed(PrincipalKind::Server, &s, label)
}

fn replica_label(i: usize) -> String {
    format!("replica-{}", i + 1)
}

pub fn make_inputs(rng: &mut Rng, capsules: usize) -> Inputs {
    let router_seed = rng.seed32();
    let router_name = Router::from_seed(&router_seed, "bench-router").name();
    let storage_seeds: Vec<[u8; 32]> = (0..REPLICAS).map(|_| rng.seed32()).collect();
    let servers: Vec<PrincipalId> = storage_seeds
        .iter()
        .enumerate()
        .map(|(i, s)| server_identity(*s, &replica_label(i)))
        .collect();
    let owner = SigningKey::from_seed(&rng.seed32());
    let capsules = (0..capsules)
        .map(|i| {
            let writer_seed = rng.seed32();
            let meta = MetadataBuilder::new()
                .writer(&SigningKey::from_seed(&writer_seed).verifying_key())
                .set_str("description", &format!("bench capsule {i}"))
                .sign(&owner);
            let chains = servers
                .iter()
                .map(|srv| {
                    ServingChain::direct(
                        AdCert::issue(
                            &owner,
                            meta.name(),
                            srv.name(),
                            false,
                            Scope::Global,
                            FOREVER,
                        ),
                        srv.principal().clone(),
                    )
                })
                .collect();
            CapsuleSpec { meta, writer_seed, chains }
        })
        .collect();
    Inputs { router_seed, router_name, storage_seeds, servers, capsules }
}

pub struct Cluster {
    pub router: NodeHandle,
    pub storage: Vec<NodeHandle>,
}

fn config(role: Role, seed: [u8; 32], label: String) -> NodeConfig {
    NodeConfig {
        role,
        listen: "127.0.0.1:0".parse().expect("loopback"),
        seed,
        label,
        peers: vec![],
        router: None,
        data_dir: None,
        store_engine: StoreEngine::Segmented,
        fsync: None, // the engine default: batch(5)
        read_cache_bytes: None,
        max_open_segments: None,
        stats_path: None,
        hosts: vec![],
        shards: 1,
        shard_batch: 64,
        admission_rate: 0,
        admission_burst: 64,
    }
}

/// Starts the router, then both replicas with fresh data directories
/// under `dir`.
pub fn start(inp: &Inputs, dir: &Path) -> Result<Cluster, String> {
    let router = gdp_node::start(config(Role::Router, inp.router_seed, "bench-router".into()))
        .map_err(|e| format!("start router: {e}"))?;
    let mut storage = Vec::new();
    for (i, seed) in inp.storage_seeds.iter().enumerate() {
        let data_dir: PathBuf = dir.join(replica_label(i));
        let _ = std::fs::remove_dir_all(&data_dir);
        let mut cfg = config(Role::Storage, *seed, replica_label(i));
        cfg.peers = vec![router.local_addr()];
        cfg.router = Some(inp.router_name);
        cfg.data_dir = Some(data_dir);
        let others: Vec<Name> =
            (0..REPLICAS).filter(|&j| j != i).map(|j| inp.servers[j].name()).collect();
        cfg.hosts = inp
            .capsules
            .iter()
            .map(|c| HostSpec {
                metadata: c.meta.clone(),
                chain: c.chains[i].clone(),
                peers: others.clone(),
            })
            .collect();
        match gdp_node::start(cfg) {
            Ok(h) => storage.push(h),
            Err(e) => {
                storage.into_iter().for_each(NodeHandle::stop);
                router.stop();
                return Err(format!("start {}: {e}", replica_label(i)));
            }
        }
    }
    Ok(Cluster { router, storage })
}

impl Cluster {
    pub fn stop(self) {
        for s in self.storage {
            s.stop();
        }
        self.router.stop();
    }

    /// Waits until the router has admitted both replicas' catalogs. A
    /// session opened before that can end up on the replica the router
    /// stops preferring once the other one attaches; every later response
    /// would then come from a replica without the session.
    pub fn wait_attached(&self, deadline: Instant) -> Result<(), String> {
        let m = self.router.metrics();
        while m.counter_value("router", "adverts_accepted") < REPLICAS as u64 {
            if Instant::now() >= deadline {
                return Err("replicas did not attach to the router".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    pub fn nodes(&self) -> impl Iterator<Item = &NodeHandle> {
        std::iter::once(&self.router).chain(self.storage.iter())
    }
}
