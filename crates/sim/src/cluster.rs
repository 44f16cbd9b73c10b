//! A full GDP cluster — real router, real DataCapsule servers with
//! file-backed stores, real verifying client — running on the
//! deterministic [`SimNet`] fabric from `gdp_net::simnet`.
//!
//! This is the chassis for seeded chaos testing: the *production*
//! [`NodeRuntime`] cores (the same code the TCP daemon runs) are driven
//! by the shared [`Scheduler`], so every run is a pure function of the
//! run seed. Faults (drops, jitter, duplication, partitions, crash/restart
//! with durable-store survival) are injected through the fabric and
//! through scheduled peer-down notifications that mirror what the TCP
//! connection pool would report.
//!
//! Cluster identities are fixed constants — only the fault schedule and
//! workload vary with the seed — so a failing seed reproduces exactly.

use crate::sched::Scheduler;
use gdp_capsule::{CapsuleMetadata, DataCapsule, MetadataBuilder, PointerStrategy};
use gdp_cert::{AdCert, Scope, ServingChain};
use gdp_client::{ClientEvent, GdpClient, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_net::simnet::{FaultSpec, SimAddr, SimEndpoint, SimNet};
use gdp_node::runtime::FOREVER;
use gdp_node::{HostSpec, NodeConfig, NodeRuntime, Role, StoreEngine};
use gdp_obs::Metrics;
use gdp_server::{AckMode, ReadTarget};
use gdp_wire::Name;
use std::collections::BTreeMap;
use std::path::Path;

/// How long (µs) after a crash/partition the transport "notices" and
/// reports the peer down — mirrors the TCP pool's dial-retry window.
pub const DETECT_US: u64 = 1_500_000;

/// Verification-failure reasons that indicate an *honest* degradation
/// correctly detected (and rejected) by the client, not a protocol
/// violation: stale or partial replica state during convergence, and
/// responses MAC'd under a half-established session whose `SessionAccept`
/// the fabric lost (the client re-keys and retries). Anything outside
/// this list is a hard failure for the chaos invariants.
pub const HONEST_FAILURES: [&str; 4] = [
    "stale replica state",
    "range not contiguous",
    "range does not chain",
    "MAC response without session",
];

/// Storage node count (two replicas of one capsule).
const STORAGE: usize = 2;

/// Fabric addresses: router, storage 0, storage 1, client.
const ROUTER: SimAddr = 0;
const CLIENT: SimAddr = STORAGE + 1;

/// A deterministic in-sim GDP cluster: 1 router, 2 storage replicas of
/// one capsule, 1 verifying writer/reader client.
pub struct SimCluster {
    sched: Scheduler,
    /// Index: 0 = router, 1..=2 = storage (equal to the fabric address).
    cfgs: Vec<NodeConfig>,
    /// Per-node shared metric registries (same index as `cfgs`).
    /// Survive crash/restart, so counters accumulate across reboots.
    node_metrics: Vec<Metrics>,
    /// The client's registry (scope `client`).
    client_metrics: Metrics,
    seed: u64,
    metadata: CapsuleMetadata,
    capsule: Name,
    router_name: Name,
    /// Writer-chain ground truth: every record ever signed, by seq.
    records: Vec<gdp_capsule::Record>,
    /// Acked appends: seq → record hash (the durability contract).
    acked: BTreeMap<u64, gdp_capsule::RecordHash>,
}

impl SimCluster {
    /// Builds the cluster on a fresh fabric. `seed` drives every fault
    /// and RNG decision; `data_root` holds the replicas' file stores
    /// (durable across [`SimCluster::crash_storage`] /
    /// [`SimCluster::restart_storage`]).
    pub fn new(seed: u64, faults: FaultSpec, data_root: &Path) -> SimCluster {
        SimCluster::new_with_engine(seed, faults, data_root, StoreEngine::File)
    }

    /// [`SimCluster::new`] with an explicit storage engine: `File` keeps
    /// the per-capsule log files; `Segmented` mounts both replicas on the
    /// shared group-commit log (acks then gate on the covering fsync, so
    /// this exercises the deferred-ack path end to end).
    pub fn new_with_engine(
        seed: u64,
        faults: FaultSpec,
        data_root: &Path,
        engine: StoreEngine,
    ) -> SimCluster {
        let net = SimNet::with_faults(seed, faults);

        // Fixed identity plan (constant across seeds).
        let router_seed = [10u8; 32];
        let router_name = gdp_router::Router::from_seed(&router_seed, "sim-r").name();
        let owner = SigningKey::from_seed(&[31u8; 32]);
        let writer_key = SigningKey::from_seed(&[32u8; 32]);
        let metadata = MetadataBuilder::new()
            .writer(&writer_key.verifying_key())
            .set_str("description", "chaos capsule")
            .sign(&owner);
        let capsule = metadata.name();

        // Per-storage identities and serving chains (owner-issued).
        let storage_seed = |i: usize| {
            let mut s = [0u8; 32];
            s.fill(21 + i as u8);
            s
        };
        let identity = |i: usize| {
            let mut s = storage_seed(i);
            s[0] ^= 0x5a; // the server-half seed domain (see build_cores)
            gdp_cert::PrincipalId::from_seed(
                gdp_cert::PrincipalKind::Server,
                &s,
                &format!("sim-s{i}"),
            )
        };
        let ids: Vec<_> = (0..STORAGE).map(identity).collect();

        let listen = "127.0.0.1:0".parse().unwrap();
        let mut cfgs = vec![NodeConfig::new(Role::Router, listen, router_seed, "sim-r")];
        for i in 0..STORAGE {
            let me = &ids[i];
            let others =
                (0..STORAGE).filter(|j| *j != i).map(|j| ids[j].name()).collect::<Vec<_>>();
            cfgs.push(NodeConfig {
                router: Some(router_name),
                data_dir: Some(data_root.join(format!("s{i}"))),
                store_engine: engine,
                fsync: None,
                // Segmented chaos nodes run a deliberately tiny block
                // cache and fd pool: constant eviction/refill and fd
                // churn under faults is exactly the stress we want.
                read_cache_bytes: (engine == StoreEngine::Segmented).then_some(4096),
                max_open_segments: (engine == StoreEngine::Segmented).then_some(4),
                hosts: vec![HostSpec {
                    metadata: metadata.clone(),
                    chain: ServingChain::direct(
                        AdCert::issue(&owner, capsule, me.name(), false, Scope::Global, FOREVER),
                        me.principal().clone(),
                    ),
                    peers: others,
                }],
                ..NodeConfig::new(Role::Storage, listen, storage_seed(i), &format!("sim-s{i}"))
            });
        }

        let mut sched = Scheduler::new(net);
        let node_metrics: Vec<Metrics> = cfgs.iter().map(|_| Metrics::new()).collect();
        for (i, cfg) in cfgs.iter().enumerate() {
            let uplink = (cfg.role == Role::Storage).then_some(ROUTER);
            let mut rt = NodeRuntime::from_config_with_obs(cfg, uplink, &node_metrics[i])
                .expect("sim node cores");
            rt.set_rng_seed(seed ^ (0x4e4f_4445 + i as u64));
            assert_eq!(sched.add_node(rt), i, "node index is the fabric address");
        }

        let client_metrics = Metrics::new();
        let mut client =
            GdpClient::from_seed_with_obs(&[41u8; 32], "sim-cli", &client_metrics.scope("client"));
        client.set_rng_seed(seed ^ 0x434c_4945);
        client.track_capsule(&metadata).expect("track");
        client.register_writer(&metadata, writer_key, PointerStrategy::Chain).expect("writer");
        assert_eq!(sched.add_client(client, ROUTER, router_name), CLIENT);
        for i in 0..cfgs.len() {
            sched.start_node(i);
        }

        SimCluster {
            sched,
            cfgs,
            node_metrics,
            client_metrics,
            seed,
            metadata,
            capsule,
            router_name,
            records: Vec::new(),
            acked: BTreeMap::new(),
        }
    }

    /// The fabric (world control: partitions, crashes, trace digest).
    pub fn net(&self) -> &SimNet {
        &self.sched.net
    }

    /// The chaos capsule's name.
    pub fn capsule(&self) -> Name {
        self.capsule
    }

    /// The capsule metadata (for external tracking).
    pub fn metadata(&self) -> &CapsuleMetadata {
        &self.metadata
    }

    /// The run seed (for failure messages).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared metric registry of node `idx` (0 = router,
    /// 1..=2 = storage). Registries survive crash/restart, so counters
    /// accumulate across a node's whole simulated lifetime.
    pub fn node_metrics(&self, idx: usize) -> &Metrics {
        &self.node_metrics[idx]
    }

    /// The client-side metric registry (scope `client`).
    pub fn client_metrics(&self) -> &Metrics {
        &self.client_metrics
    }

    /// Mutable access to the client core, e.g. to tighten the pending
    /// request timeout before a drop-heavy run.
    pub fn client_mut(&mut self) -> &mut GdpClient {
        &mut self.sched.client_mut(CLIENT).client
    }

    /// Ground-truth hash of the writer's record at `seq` (1-based), if
    /// the writer ever signed one.
    pub fn written_hash(&self, seq: u64) -> Option<gdp_capsule::RecordHash> {
        self.records.get(seq as usize - 1).map(|r| r.hash())
    }

    /// Every append the client saw acked: seq → record hash.
    pub fn acked(&self) -> &BTreeMap<u64, gdp_capsule::RecordHash> {
        &self.acked
    }

    /// Verification failures outside the honest-degradation whitelist.
    pub fn hard_verification_failures(&self) -> Vec<&'static str> {
        self.sched
            .client(CLIENT)
            .verification_failures
            .iter()
            .copied()
            .filter(|r| !HONEST_FAILURES.contains(r))
            .collect()
    }

    /// The live storage replicas' views of the chaos capsule, labelled.
    /// Panics if a replica is crashed (check only after full recovery)
    /// or does not host the capsule.
    pub fn storage_capsules(&self) -> Vec<(String, &DataCapsule)> {
        (0..STORAGE)
            .map(|i| {
                let rt = self.sched.node(self.storage_addr(i)).unwrap_or_else(|| {
                    // gdp-lint: allow(SK01) -- the sim seed is the chaos-reproduction handle, deliberately printed so a failure can be replayed; it is an RNG seed, not key material
                    panic!("GDP_SIM_SEED={}: storage {i} still crashed at check time", self.seed)
                });
                let cap = rt
                    .server()
                    .and_then(|s| s.capsule(&self.capsule))
                    .unwrap_or_else(|| panic!("storage {i} does not host the chaos capsule"));
                (format!("s{i}"), cap)
            })
            .collect()
    }

    fn storage_addr(&self, i: usize) -> SimAddr {
        1 + i
    }

    /// Runs the world until virtual time `target`.
    pub fn run_until(&mut self, target: u64) {
        self.sched.run_until(target);
    }

    /// Runs the world for `dt` more microseconds.
    pub fn run_for(&mut self, dt: u64) {
        self.sched.run_for(dt);
    }

    fn pump_until(&mut self, deadline: u64, pred: impl FnMut(&ClientEvent) -> bool) -> bool {
        self.sched.pump_until(CLIENT, deadline, pred)
    }

    fn send(&mut self, pdu: gdp_wire::Pdu) {
        self.sched.send_to_router(CLIENT, pdu);
    }

    // ---- client driver -------------------------------------------------

    /// Attaches the client to the router (secure-advertisement handshake),
    /// pumping up to `window_us` of virtual time.
    pub fn attach_client(&mut self, window_us: u64) -> bool {
        let deadline = self.sched.net.now() + window_us;
        self.sched.attach_client(CLIENT);
        while !self.sched.client(CLIENT).attached() {
            if !self.sched.step(deadline) {
                return false;
            }
        }
        true
    }

    /// Establishes an encrypted session flow with a serving replica,
    /// retrying the handshake (a fresh `SessionInit` per attempt) until
    /// the window closes. Retrying matters: a lost `SessionAccept` leaves
    /// the handshake half-established — the server holds a flow key the
    /// client never learned, so it MACs every response with a key the
    /// client cannot verify (found by seed 12 of the chaos sweep).
    pub fn client_session(&mut self, window_us: u64) -> bool {
        let deadline = self.sched.net.now() + window_us;
        loop {
            let capsule = self.capsule;
            let pdu = self.client_mut().session_init(capsule);
            self.send(pdu);
            let slice = (self.sched.net.now() + 2_000_000).min(deadline);
            if self.pump_until(slice, |ev| matches!(ev, ClientEvent::SessionReady { .. })) {
                return true;
            }
            if self.sched.net.now() >= deadline {
                return false;
            }
        }
    }

    /// If any verification failure since `seen` was a MAC the client had
    /// no session key for, re-key: send a fresh `SessionInit`, replacing
    /// the server's stale flow. This is the recovery a real client driver
    /// performs when a half-established session poisons responses.
    fn rekey_if_poisoned(&mut self, seen: usize) {
        if self.verification_failures()[seen..].contains(&"MAC response without session") {
            let capsule = self.capsule;
            let pdu = self.client_mut().session_init(capsule);
            self.send(pdu);
        }
    }

    fn verification_failures(&self) -> &[&'static str] {
        &self.sched.client(CLIENT).verification_failures
    }

    /// Appends a signed record and pumps until the durability mode is
    /// acknowledged, retrying the same signed record (appends are
    /// idempotent server-side) for up to `window_us` of virtual time.
    /// Returns the seq on ack; the record stays in the writer chain — and
    /// out of [`SimCluster::acked`] — when the window closes unacked.
    pub fn client_append(&mut self, body: &[u8], ack: AckMode, window_us: u64) -> Option<u64> {
        let capsule = self.capsule;
        let (mut pdu, record) =
            self.client_mut().append(capsule, body, 0, ack).expect("writer registered");
        let want = record.header.seq;
        let hash = record.hash();
        self.records.push(record.clone());
        let deadline = self.sched.net.now() + window_us;
        loop {
            // Honor an armed Nack backoff before (re-)issuing: retrying
            // straight into an overloaded server is the storm the typed
            // Nack exists to prevent (events queued while waiting are
            // still examined by the next pump).
            let not_before = self.client_mut().retry_not_before(&capsule);
            if self.sched.net.now() < not_before {
                self.run_until(not_before.min(deadline));
            }
            self.send(pdu);
            // Per-attempt slice: short enough that a request lost to a
            // mid-failover route retries well before the outer deadline.
            let slice = (self.sched.net.now() + 2_000_000).min(deadline);
            let seen = self.verification_failures().len();
            let acked = self.pump_until(
                slice,
                |ev| matches!(ev, ClientEvent::AppendAcked { seq, .. } if *seq == want),
            );
            if acked {
                self.acked.insert(want, hash);
                return Some(want);
            }
            if self.sched.net.now() >= deadline {
                return None;
            }
            self.rekey_if_poisoned(seen);
            // Retry under a fresh request seq: the deadline sweep may have
            // expired the previous attempt's pending entry, and responses
            // to a swept seq are ignored. Appends stay idempotent
            // server-side (same signed record).
            self.client_mut().mark_retry();
            pdu = self.client_mut().append_record(capsule, record.clone(), ack);
        }
    }

    /// Issues a verified read, retrying for up to `window_us` of virtual
    /// time. Only responses that pass client-side verification are
    /// returned; honest-degradation rejections are retried.
    pub fn client_read(&mut self, target: ReadTarget, window_us: u64) -> Option<VerifiedRead> {
        let deadline = self.sched.net.now() + window_us;
        let capsule = self.capsule;
        loop {
            let not_before = self.client_mut().retry_not_before(&capsule);
            if self.sched.net.now() < not_before {
                self.run_until(not_before.min(deadline));
            }
            let pdu = self.client_mut().read(capsule, target);
            self.send(pdu);
            let slice = (self.sched.net.now() + 2_000_000).min(deadline);
            let seen = self.verification_failures().len();
            let mut got = None;
            let ok = self.pump_until(slice, |ev| match ev {
                ClientEvent::ReadOk { result, .. } => {
                    got = Some(result.clone());
                    true
                }
                // Errors and unreachables end the slice early → retry.
                ClientEvent::Unreachable { .. } | ClientEvent::ServerError { .. } => true,
                _ => false,
            });
            if ok {
                if let Some(r) = got {
                    return Some(r);
                }
            }
            if self.sched.net.now() >= deadline {
                return None;
            }
            self.rekey_if_poisoned(seen);
            self.client_mut().mark_retry();
            // Mirrors the live driver's 50ms pause between retries, so an
            // unroutable capsule doesn't hot-loop request/Error cycles.
            self.run_for(50_000);
        }
    }

    // ---- overload & hostile peers --------------------------------------

    /// The router's identity name (hostile peers need it to forge
    /// plausible control traffic).
    pub fn router_name(&self) -> Name {
        self.router_name
    }

    /// The router's fabric address (where attached traffic enters).
    pub fn router_addr(&self) -> SimAddr {
        ROUTER
    }

    /// Allocates a fresh fabric endpoint outside the cluster — the
    /// injection point for a compromised peer. Whatever it sends rides
    /// the same seeded fabric (latency, drops) as honest traffic;
    /// responses the cluster addresses back to it queue in its inbox for
    /// the test to inspect or ignore.
    pub fn hostile_endpoint(&mut self) -> SimEndpoint {
        self.sched.net.endpoint()
    }

    /// Arms load shedding on every live storage server: at most `budget`
    /// appends per maintenance tick, excess answered with
    /// `Nack{Busy, retry_after_us}`.
    pub fn set_storage_overload_policy(&mut self, budget: u64, retry_after_us: u64) {
        for i in 0..STORAGE {
            if let Some(rt) = self.sched.node_mut(1 + i) {
                if let Some(server) = rt.server_mut() {
                    server.set_overload_policy(budget, retry_after_us);
                }
            }
        }
    }

    // ---- fault injection -----------------------------------------------

    /// Crashes storage `i` (0-based): its process state evaporates, its
    /// file store survives on disk. The router "notices" after the
    /// transport detection delay, withdrawing the replica's routes.
    pub fn crash_storage(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        self.sched.crash_node(addr);
        self.sched.report_down(self.sched.net.now() + DETECT_US, ROUTER, addr);
    }

    /// Cancels not-yet-fired down detections involving storage `i`. A
    /// transport whose peer recovers before the dial-retry budget runs
    /// out never reports Down — without this, a stale detection fires
    /// *after* the replica re-attached and silently withdraws its fresh
    /// routes (found by seed 4 of the chaos sweep; see
    /// `pinned_stale_down_detection` in tests/chaos.rs).
    fn cancel_downs(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        self.sched.cancel_downs(|node, peer| (node == ROUTER && peer == addr) || node == addr);
    }

    /// Restarts a crashed storage node through the production boot path:
    /// cores rebuilt from config, file store re-opened (torn-tail
    /// recovery + record replay), then a fresh network attach.
    pub fn restart_storage(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        assert!(self.storage_crashed(i), "restart of a running node");
        self.cancel_downs(i);
        // Same registry as before the crash: the node's counters span its
        // whole lifetime, reboots included.
        let mut rt = NodeRuntime::from_config_with_obs(
            &self.cfgs[1 + i],
            Some(ROUTER),
            &self.node_metrics[1 + i],
        )
        .expect("rebuild crashed node");
        // A fresh seed domain per boot: a restarted process has new RNG
        // state, but still fully derived from the run seed.
        rt.set_rng_seed(self.seed ^ (0x4245_4254 + i as u64) ^ self.sched.net.now());
        self.sched.restart_node(addr, rt);
    }

    /// Torn-write fault: appends `garbage` to the tail of storage `i`'s
    /// active on-disk log — the shared log's highest-id segment under the
    /// segmented engine, the capsule's log file under the file engine —
    /// simulating a partially persisted write that the crash cut short.
    /// Only meaningful while the node is crashed (the store is closed);
    /// recovery on restart must truncate the torn tail and keep every
    /// acked record. Returns the file that was damaged.
    pub fn tear_storage_tail(&mut self, i: usize, garbage: &[u8]) -> std::path::PathBuf {
        assert!(self.storage_crashed(i), "tear_storage_tail on a running node");
        let cfg = &self.cfgs[1 + i];
        let data_dir = cfg.data_dir.as_ref().expect("sim storage nodes have a data_dir");
        let target = match cfg.store_engine {
            StoreEngine::Segmented => {
                let seg_dir = data_dir.join("seglog");
                std::fs::read_dir(&seg_dir)
                    .expect("seglog dir exists after first boot")
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().map(|x| x == "seg").unwrap_or(false))
                    .max()
                    .expect("seglog has at least one segment")
            }
            StoreEngine::File => data_dir.join(format!("{}.log", self.capsule.to_hex())),
        };
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&target)
            .expect("open crashed node's log for tearing");
        f.write_all(garbage).expect("tear write");
        f.sync_all().expect("tear fsync");
        target
    }

    /// True if storage `i` is currently crashed.
    pub fn storage_crashed(&self, i: usize) -> bool {
        self.sched.node(self.storage_addr(i)).is_none()
    }

    /// True once storage `i`'s network attach has completed.
    pub fn storage_attached(&self, i: usize) -> bool {
        self.sched.node(self.storage_addr(i)).map(|rt| rt.is_attached()).unwrap_or(false)
    }

    /// Partitions storage `i` from the router (both directions). Both
    /// sides "notice" after the detection delay: the router withdraws the
    /// replica's routes; the replica restarts its attach handshake.
    pub fn partition_storage(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        self.sched.net.partition(ROUTER, addr);
        let at = self.sched.net.now() + DETECT_US;
        self.sched.report_down(at, ROUTER, addr);
        self.sched.report_down(at, addr, ROUTER);
    }

    /// Heals the router↔storage-`i` partition. The replica's pending
    /// attach retries (tick cadence) re-establish its advertisements.
    /// Detections that have not fired yet are cancelled: the link is
    /// back before the transport's retry budget ran out.
    pub fn heal_storage(&mut self, i: usize) {
        let addr = self.storage_addr(i);
        self.cancel_downs(i);
        self.sched.net.heal(ROUTER, addr);
    }
}
