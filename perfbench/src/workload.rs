//! The workloads: their fixed configuration, the inputs each
//! generates from the seed, and one run (set-up, measured phases,
//! correctness check, and in traced runs the per-layer view).

use crate::cluster::{self, Cluster, Inputs};
use crate::gen::{Gen, Op, Spans};
use crate::report::{self, Delta, NodeSnap};
use crate::rng::Rng;
use crate::sched::{self, PhaseResult};
use crate::stats::{self, Metric};
use gdp_capsule::PointerStrategy;
use gdp_client::{GdpClient, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_obs::Metrics;
use gdp_server::{AckMode, ReadTarget};
use gdp_wire::Name;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Which principals exist and what the measured ops are.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// One writer appending to one capsule.
    Append,
    /// One reader with a session issuing verified reads of preloaded
    /// records.
    Read,
    /// One writer per capsule, all on one socket, appending to capsules
    /// chosen uniformly.
    FanIn,
}

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub capsules: usize,
    pub body_bytes: usize,
    pub ack: AckMode,
    pub strategy: PointerStrategy,
    /// Open-loop offered rate, ops/s.
    pub rate: f64,
    /// Fixed-count phase: ops sent and the most in flight.
    pub count: usize,
    pub window: usize,
    /// Records appended during set-up (read-verified: all to capsule 0;
    /// fan-in: one per capsule, so no dashboard read finds a capsule
    /// empty), and the window used.
    pub preload: usize,
    pub preload_window: usize,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
    /// Fan-in only: a dashboard principal holds a session on every
    /// capsule and sends `Latest` reads as 1 op in 5.
    pub dashboard: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "append-quorum",
        shape: Shape::Append,
        capsules: 1,
        body_bytes: 256,
        ack: AckMode::Quorum(1),
        strategy: PointerStrategy::Chain,
        rate: 200.0,
        count: 4096,
        window: 256,
        preload: 0,
        preload_window: 0,
        setups: 9,
        dashboard: false,
    },
    // fanin-mixed without the dashboard, at a capsule count the cluster
    // carries without losing frames: 768 capsules already lost appends
    // (per-tick anti-entropy overflows the egress queue), so this takes
    // the largest power of two at most half of that.
    Workload {
        name: "fanin-256",
        shape: Shape::FanIn,
        capsules: 256,
        body_bytes: 4096,
        ack: AckMode::Local,
        strategy: PointerStrategy::Chain,
        rate: 200.0,
        count: 4096,
        window: 256,
        preload: 0,
        preload_window: 0,
        setups: 5,
        dashboard: false,
    },
    Workload {
        name: "read-verified",
        shape: Shape::Read,
        capsules: 1,
        body_bytes: 256,
        ack: AckMode::Quorum(1),
        strategy: PointerStrategy::SkipList,
        rate: 150.0,
        count: 16384,
        window: 16,
        preload: 4096,
        preload_window: 1024,
        setups: 3,
        dashboard: false,
    },
    Workload {
        name: "fanin-mixed",
        shape: Shape::FanIn,
        capsules: 1152,
        body_bytes: 4096,
        ack: AckMode::Local,
        strategy: PointerStrategy::Chain,
        rate: 200.0,
        count: 2048,
        window: 256,
        preload: 1152,
        preload_window: 256,
        setups: 1,
        dashboard: true,
    },
];

/// Read mix of read-verified: 70% `One`, 25% `ProofOf`, 5% `Range(16)`.
fn read_target(rng: &mut Rng, max_seq: u64) -> ReadTarget {
    match rng.below(100) {
        0..=69 => ReadTarget::One(1 + rng.below(max_seq)),
        70..=94 => ReadTarget::ProofOf(1 + rng.below(max_seq)),
        _ => {
            let from = 1 + rng.below(max_seq - 15);
            ReadTarget::Range(from, from + 15)
        }
    }
}

/// Share of fan-in ops that are dashboard reads (1 in 5).
const DASHBOARD_ONE_IN: u64 = 5;

/// Records replayed per layer in the traced run.
const REPLAY_RECORDS: usize = 1024;

const SESSION_WINDOW: usize = 64;
const CHECK_WINDOW: usize = 16;
const CHECK_CHUNK: u64 = 32;
const SETUP_DEADLINE: Duration = Duration::from_secs(120);

/// Completions per block when `tput` is taken as the median block rate.
const TPUT_BLOCK: usize = 1024;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn ack_label(&self) -> String {
        match self.ack {
            AckMode::Local => "local".into(),
            AckMode::Quorum(n) => format!("quorum({n})"),
            AckMode::All => "all".into(),
        }
    }

    pub fn describe(&self, seed: u64, seconds: u64) -> String {
        format!(
            "config workload={} seed={seed} seconds={seconds} engine=segmented fsync=batch(5) \
             ack={} body={}B capsules={} strategy={} open_rate={}/s open_ops={} \
             count={} window={} preload={} preload_window={} setups={} dashboard={}",
            self.name,
            self.ack_label(),
            self.body_bytes,
            self.capsules,
            self.strategy.label(),
            self.rate,
            self.open_ops(seconds),
            self.count,
            self.window,
            self.preload,
            self.preload_window,
            self.setups,
            self.dashboard,
        )
    }

    fn open_ops(&self, seconds: u64) -> usize {
        (self.rate * seconds as f64).round().max(1.0) as usize
    }

    /// The primary op the end-to-end metrics describe.
    fn op_label(&self) -> &'static str {
        match self.shape {
            Shape::Append | Shape::FanIn => "append",
            Shape::Read => "read",
        }
    }

    /// Principals: writers first, then the reader (read-verified) or the
    /// dashboard (fanin-mixed); the session-less checker is always last.
    /// `seeds` are the reader's (or dashboard's) and the checker's keys.
    fn principals(
        &self,
        inp: &Inputs,
        seeds: &[[u8; 32]; 2],
        obs: &Metrics,
    ) -> Result<Vec<GdpClient>, String> {
        let scope = obs.scope("client");
        let writers = match self.shape {
            Shape::FanIn => self.capsules,
            Shape::Append | Shape::Read => 1,
        };
        let mut out = Vec::new();
        for (i, c) in inp.capsules.iter().take(writers).enumerate() {
            let mut g =
                GdpClient::from_seed_with_obs(&c.writer_seed, &format!("writer-{i}"), &scope);
            g.register_writer(
                &c.meta,
                SigningKey::from_seed(&c.writer_seed),
                self.strategy.clone(),
            )?;
            out.push(g);
        }
        if self.shape == Shape::Read || self.dashboard {
            let mut g = GdpClient::from_seed_with_obs(&seeds[0], "reader", &scope);
            for c in &inp.capsules {
                g.track_capsule(&c.meta)?;
            }
            out.push(g);
        }
        let mut checker = GdpClient::from_seed_with_obs(&seeds[1], "checker", &scope);
        for c in &inp.capsules {
            checker.track_capsule(&c.meta)?;
        }
        out.push(checker);
        Ok(out)
    }

    fn session_pairs(&self) -> Vec<(usize, usize)> {
        match self.shape {
            Shape::Append => vec![(0, 0)],
            Shape::Read => vec![(0, 0), (1, 0)],
            Shape::FanIn => {
                let d = self.capsules;
                let dashboard = (0..self.capsules).filter(|_| self.dashboard).map(|i| (d, i));
                (0..self.capsules).map(|i| (i, i)).chain(dashboard).collect()
            }
        }
    }

    fn append(&self, rng: &mut Rng, capsule: usize) -> Op {
        let client = if self.shape == Shape::FanIn { capsule } else { 0 };
        Op::Append { client, capsule, body: rng.bytes(self.body_bytes), ack: self.ack }
    }

    fn preload_ops(&self, rng: &mut Rng) -> Vec<Op> {
        (0..self.preload)
            .map(|i| self.append(rng, if self.shape == Shape::FanIn { i } else { 0 }))
            .collect()
    }

    /// The fixed-count phase: the open-loop mix, except that fan-in
    /// measures appends alone.
    fn count_ops(&self, rng: &mut Rng) -> Vec<Op> {
        match self.shape {
            Shape::FanIn => (0..self.count)
                .map(|_| {
                    let capsule = rng.below(self.capsules as u64) as usize;
                    self.append(rng, capsule)
                })
                .collect(),
            Shape::Append | Shape::Read => self.ops(rng, self.count),
        }
    }

    /// The ops of the open-loop phase.
    fn ops(&self, rng: &mut Rng, n: usize) -> Vec<Op> {
        (0..n)
            .map(|_| match self.shape {
                Shape::Append => self.append(rng, 0),
                Shape::Read => Op::Read {
                    client: 1,
                    capsule: 0,
                    target: read_target(rng, self.preload as u64),
                },
                Shape::FanIn => {
                    let capsule = rng.below(self.capsules as u64) as usize;
                    if self.dashboard && rng.below(DASHBOARD_ONE_IN) == 0 {
                        Op::Read { client: self.capsules, capsule, target: ReadTarget::Latest }
                    } else {
                        self.append(rng, capsule)
                    }
                }
            })
            .collect()
    }
}

fn is_primary(w: &Workload, op: &Op) -> bool {
    matches!(
        (w.shape, op),
        (Shape::Read, Op::Read { .. }) | (Shape::Append | Shape::FanIn, Op::Append { .. })
    )
}

/// The measured phases of one pass: open-loop segments, pooled, then the
/// fixed-count phase.
#[derive(Default)]
struct Pass {
    open: Vec<PhaseResult>,
    open_primary: Vec<Option<f64>>,
    count: Vec<PhaseResult>,
    /// Median block rate of the fixed-count phase.
    count_tput: f64,
}

impl Pass {
    fn open_loop(&mut self, w: &Workload, gen: &mut Gen, ops: &[Op]) {
        gen.load(ops.to_vec(), false);
        let r = sched::open_loop(gen, ops.len(), w.rate);
        self.open_primary.extend(
            ops.iter().zip(&r.latency_ms).filter(|(op, _)| is_primary(w, op)).map(|(_, l)| *l),
        );
        self.open.push(r);
    }

    /// The fixed-count phase; its ops are all of the primary kind.
    fn fixed_count(&mut self, w: &Workload, gen: &mut Gen, ops: &[Op]) {
        gen.load(ops.to_vec(), false);
        let r = sched::fixed_count(gen, ops.len(), w.window);
        self.count_tput = stats::block_rate(r.started, &r.completed, TPUT_BLOCK);
        self.count.push(r);
    }

    fn phases(&self) -> impl Iterator<Item = &PhaseResult> {
        self.open.iter().chain(&self.count)
    }

    fn attempted(&self) -> usize {
        self.phases().map(PhaseResult::attempted).sum()
    }

    fn failed(&self) -> usize {
        self.phases().map(PhaseResult::failed).sum()
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

fn snaps(c: &Cluster) -> Vec<NodeSnap> {
    c.nodes().map(|n| report::snap(n.metrics())).collect()
}

fn client_counters(obs: &Metrics) -> BTreeMap<String, u64> {
    obs.counters().into_iter().map(|((_, n), v)| (n, v)).collect()
}

/// What the node registries and the client counters recorded over the
/// traced pass, and the body bytes it got acked.
struct Registry {
    delta: Delta,
    client_counters: BTreeMap<String, u64>,
    user_bytes: u64,
}

/// The traced pass: the whole open-loop phase, then the fixed-count
/// phase, on the last cluster, with registry snapshots around it.
fn traced_pass(
    w: &Workload,
    live: &mut Live,
    open_ops: &[Op],
    count_ops: &[Op],
) -> (Pass, Registry) {
    let before = snaps(&live.c);
    let cc_before = client_counters(&live.obs);
    let acked_before: usize = live.g.acked.iter().map(BTreeMap::len).sum();
    let mut p = Pass::default();
    p.open_loop(w, &mut live.g, open_ops);
    p.fixed_count(w, &mut live.g, count_ops);
    let delta = Delta::between(&before, &snaps(&live.c));
    let client_counters = client_counters(&live.obs)
        .into_iter()
        .map(|(k, v)| {
            let prev = cc_before.get(&k).copied().unwrap_or(0);
            (k, v - prev)
        })
        .collect();
    let acked_after: usize = live.g.acked.iter().map(BTreeMap::len).sum();
    let user_bytes = ((acked_after - acked_before) * w.body_bytes) as u64;
    (p, Registry { delta, client_counters, user_bytes })
}

/// Waits until every deferred ack on every storage node was released.
fn acks_settled(c: &Cluster) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let pending: Vec<(u64, u64)> = c
            .storage
            .iter()
            .map(|s| {
                let m = s.metrics();
                (
                    m.counter_value("server", "acks_deferred"),
                    m.counter_value("server", "acks_released"),
                )
            })
            .collect();
        if pending.iter().all(|(d, r)| d == r) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("acks_deferred != acks_released per node: {pending:?}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Reads back every acked seq of every capsule with the session-less
/// checker and matches each record's hash against the acked one: first
/// in contiguous ranges, then one by one for acked seqs a range did not
/// return (a range stops at a hole). Returns (reads, seqs read singly).
fn check(gen: &mut Gen, checker: usize) -> Result<(usize, usize), String> {
    let mut ranges = Vec::new();
    for (cap, acked) in gen.acked.iter().enumerate() {
        let Some(&last) = acked.keys().next_back() else { continue };
        let mut from = 1;
        while from <= last {
            let to = (from + CHECK_CHUNK - 1).min(last);
            ranges.push(Op::Read {
                client: checker,
                capsule: cap,
                target: ReadTarget::Range(from, to),
            });
            from = to + 1;
        }
    }
    let mut seen: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); gen.acked.len()];
    read_back(gen, &ranges, &mut seen)?;
    let singles: Vec<Op> = gen
        .acked
        .iter()
        .enumerate()
        .flat_map(|(cap, acked)| {
            let seen = &seen[cap];
            acked.keys().filter(move |s| !seen.contains(s)).map(move |&s| Op::Read {
                client: checker,
                capsule: cap,
                target: ReadTarget::One(s),
            })
        })
        .collect();
    read_back(gen, &singles, &mut seen)?;
    let acked: usize = gen.acked.iter().map(BTreeMap::len).sum();
    let matched: usize = seen.iter().map(BTreeSet::len).sum();
    if matched != acked {
        return Err(format!("{matched} of {acked} acked records read back"));
    }
    Ok((ranges.len() + singles.len(), singles.len()))
}

/// Sends `ops` and marks every returned record whose hash matches the
/// acked one; a mismatch fails the check.
fn read_back(gen: &mut Gen, ops: &[Op], seen: &mut [BTreeSet<u64>]) -> Result<(), String> {
    gen.load(ops.to_vec(), true);
    sched::fixed_count(gen, ops.len(), CHECK_WINDOW);
    for (id, op) in ops.iter().enumerate() {
        let Op::Read { capsule, .. } = op else { continue };
        let records = match gen.kept.get(&id) {
            Some(VerifiedRead::Records(rs)) => rs.iter().collect(),
            Some(VerifiedRead::Record(r)) => vec![r],
            _ => continue,
        };
        for rec in records {
            let seq = rec.header.seq;
            if let Some(h) = gen.acked[*capsule].get(&seq) {
                if *h != rec.hash() {
                    return Err(format!("capsule {capsule} seq {seq}: hash differs from acked"));
                }
                seen[*capsule].insert(seq);
            }
        }
    }
    Ok(())
}

/// One running cluster with the generator attached to it.
struct Live {
    c: Cluster,
    g: Gen,
    obs: Metrics,
}

impl Live {
    fn stop(self) {
        self.g.shutdown();
        self.c.stop();
    }
}

/// Everything a run generates from its seed before any node starts.
struct Plan {
    inputs: Inputs,
    preload_ops: Vec<Op>,
    open_ops: Vec<Op>,
    count_ops: Vec<Op>,
    /// Keys of the reader (or dashboard) and of the checker.
    principal_seeds: [[u8; 32]; 2],
    capsule_names: Vec<Name>,
}

/// Starts a cluster and brings it up to where measuring begins: both
/// replicas attached, every principal attached, every session ready and
/// the preload acked. Returns the cluster, the set-up time in seconds,
/// and the preload phase.
fn set_up(
    w: &Workload,
    plan: &Plan,
    trace: bool,
    dir: &Path,
) -> Result<(Live, f64, Option<PhaseResult>), String> {
    let obs = Metrics::new();
    let clients = w.principals(&plan.inputs, &plan.principal_seeds, &obs)?;
    let checker = clients.len() - 1;
    let t = Instant::now();
    let c = cluster::start(&plan.inputs, dir)?;
    let mut g = match Gen::new(c.router.local_addr(), clients, plan.capsule_names.clone()) {
        Ok(g) => g,
        Err(e) => {
            c.stop();
            return Err(e);
        }
    };
    g.spans = trace.then(Spans::default);
    let deadline = Instant::now() + SETUP_DEADLINE;
    let up = c
        .wait_attached(deadline)
        .and_then(|_| g.attach(0..checker, plan.inputs.router_name, deadline))
        .and_then(|_| g.sessions(&w.session_pairs(), SESSION_WINDOW, deadline));
    let mut live = Live { c, g, obs };
    if let Err(e) = up {
        live.stop();
        return Err(format!("set-up: {e}"));
    }
    let preload = (w.preload > 0).then(|| {
        live.g.load(plan.preload_ops.clone(), false);
        sched::fixed_count(&mut live.g, plan.preload_ops.len(), w.preload_window)
    });
    Ok((live, t.elapsed().as_secs_f64(), preload))
}

/// The correctness check on a cluster about to stop: every deferred ack
/// released, and every acked record served back with the acked hash.
fn verify(live: &mut Live, router_name: Name) -> Result<String, String> {
    let checker = live.g.clients.len() - 1;
    acks_settled(&live.c)?;
    live.g.attach(checker..checker + 1, router_name, Instant::now() + SETUP_DEADLINE)?;
    let (reads, singles) = check(&mut live.g, checker)?;
    let acked: usize = live.g.acked.iter().map(BTreeMap::len).sum();
    Ok(format!(
        "{acked} acked records read back and matched in {reads} verified reads \
         ({singles} read singly past a hole)"
    ))
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    println!("{}", w.describe(seed, seconds));
    std::fs::create_dir_all(dir).map_err(|e| format!("data dir: {e}"))?;
    println!("host {}", report::host_fingerprint(dir));

    let mut rng = Rng::new(seed);
    let inputs = cluster::make_inputs(&mut rng, w.capsules);
    let plan = Plan {
        preload_ops: w.preload_ops(&mut rng),
        open_ops: w.ops(&mut rng, w.open_ops(seconds)),
        count_ops: w.count_ops(&mut rng),
        principal_seeds: [rng.seed32(), rng.seed32()],
        capsule_names: inputs.capsules.iter().map(|c| c.meta.name()).collect(),
        inputs,
    };

    // Each cluster set up measures one segment of the open-loop phase.
    // The replicas' 200 ms maintenance ticks are not synchronized, and
    // append latency depends on their offset, so a run pools as many
    // offsets as it sets up clusters. The last cluster also runs the
    // fixed-count phase and, when tracing, the traced pass.
    let seg_len = plan.open_ops.len().div_ceil(w.setups);
    let segments = plan.open_ops.chunks(seg_len).count();
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut plain = Pass::default();
    let mut traced = None;
    let mut spans = None;
    let mut correct = true;
    let mut failures: BTreeMap<String, u64> = BTreeMap::new();
    for (k, segment) in plan.open_ops.chunks(seg_len).enumerate() {
        let (mut live, secs, preload) = set_up(w, &plan, trace, dir)?;
        setup_s.push(secs);
        if let Some(r) = preload {
            attempted += r.attempted();
            failed += r.failed();
        }
        let session_spans = live.g.spans.take();
        plain.open_loop(w, &mut live.g, segment);
        if k + 1 == segments {
            plain.fixed_count(w, &mut live.g, &plan.count_ops);
            if trace {
                live.g.spans = session_spans;
                traced = Some(traced_pass(w, &mut live, &plan.open_ops, &plan.count_ops));
                spans = live.g.spans.take();
            }
        }
        match verify(&mut live, plan.inputs.router_name) {
            Ok(msg) => println!("cluster {k}: check ok: {msg}"),
            Err(e) => {
                println!("cluster {k}: check FAILED: {e}");
                correct = false;
            }
        }
        for (cause, n) in std::mem::take(&mut live.g.failures) {
            *failures.entry(cause).or_default() += n;
        }
        live.stop();
    }
    let setup_median = stats::median(&setup_s);
    println!("setup_s median={setup_median:.4} runs={setup_s:?}");
    println!("failures by op/cause: {failures:?}");
    print_pass(w, "untraced", &plain);
    attempted += plain.attempted();
    failed += plain.failed();
    let peak = report::peak_rss_mb();
    let e2e = end_to_end(&plain, setup_median, peak);
    print_e2e(w, "untraced", &e2e);

    let metrics = match traced {
        None => e2e,
        Some((p, registry)) => {
            print_pass(w, "traced", &p);
            attempted += p.attempted();
            failed += p.failed();
            print_e2e(w, "traced", &end_to_end(&p, setup_median, peak));
            let replay_bodies: Vec<Vec<u8>> = plan
                .open_ops
                .iter()
                .chain(&plan.count_ops)
                .chain(&plan.preload_ops)
                .filter_map(|op| match op {
                    Op::Append { body, .. } => Some(body.clone()),
                    Op::Read { .. } => None,
                })
                .chain(std::iter::repeat_with(|| rng.bytes(w.body_bytes)))
                .take(REPLAY_RECORDS)
                .collect();
            let reads: Vec<ReadTarget> =
                (0..REPLAY_RECORDS).map(|_| read_target(&mut rng, REPLAY_RECORDS as u64)).collect();
            let replayed =
                crate::replay::run(&plan.inputs, &w.strategy, &replay_bodies, &reads, dir)?;
            per_layer(w, &p, &registry, &spans.unwrap_or_default(), &replayed)
        }
    };
    Ok(Outcome { correct, attempted, failed, metrics })
}

fn end_to_end(p: &Pass, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let s = stats::summarize(&p.open_primary);
    vec![
        Metric { name: "setup_s".into(), value: setup_s, unit: "s" },
        Metric { name: "p50_ms".into(), value: s.p50, unit: "ms" },
        Metric { name: "p99_ms".into(), value: s.p99, unit: "ms" },
        Metric { name: "tput".into(), value: p.count_tput, unit: "1/s" },
        Metric { name: "peak_rss_mb".into(), value: peak_rss_mb, unit: "MB" },
    ]
}

fn print_e2e(w: &Workload, label: &str, m: &[Metric]) {
    let op = w.op_label();
    let line: Vec<String> = m
        .iter()
        .map(|m| {
            let name = match m.name.as_str() {
                "p50_ms" | "p99_ms" | "tput" => format!("{op}_{}", m.name),
                other => other.to_string(),
            };
            format!("{name}={:.4}{}", m.value, m.unit)
        })
        .collect();
    println!("e2e {label}: {}", line.join(" "));
}

fn print_pass(w: &Workload, label: &str, p: &Pass) {
    for (phase, rs) in [("open-loop", &p.open), ("fixed-count", &p.count)] {
        let lat: Vec<Option<f64>> = rs.iter().flat_map(|r| r.latency_ms.iter().copied()).collect();
        let lag: Vec<Option<f64>> =
            rs.iter().flat_map(|r| r.lag_ms.iter().map(|&l| Some(l))).collect();
        let s = stats::summarize(&lat);
        let tail = s.tail.map_or("none".to_string(), |t| {
            format!("p{}={:.3}ms ({} beyond)", t.pct, t.value, t.beyond)
        });
        println!(
            "{label} {phase} ({} segment(s)): attempted={} failed={} p50={:.3}ms tail {tail} \
             lag_p99={:.3}ms inflight_max={}",
            rs.len(),
            s.n,
            s.failed,
            s.p50,
            stats::summarize(&lag).p99,
            rs.iter().map(|r| r.inflight_max).max().unwrap_or(0),
        );
    }
    let s = stats::summarize(&p.open_primary);
    println!(
        "{label} open-loop {op} only: n={} failed={} p50={:.3}ms p99={:.3}ms; \
         fixed-count {op} tput={:.1}/s (median of per-{TPUT_BLOCK} blocks)",
        s.n,
        s.failed,
        s.p50,
        s.p99,
        p.count_tput,
        op = w.op_label(),
    );
}

/// Busy time along the blocking path of one op, per stage:
/// (stage, calls per op, µs per call).
fn stages(w: &Workload, spans: &Spans, replay: &BTreeMap<String, f64>) -> Vec<(String, f64, f64)> {
    let r = |k: &str| replay.get(k).copied().unwrap_or(0.0);
    let wire = r("wire.encode_us") + r("wire.decode_us");
    let mut v = Vec::new();
    match w.shape {
        Shape::Append | Shape::FanIn => {
            // Quorum: client→router→primary→router→replica, the replica's
            // ack back, then the primary's ack to the client: 4 router
            // hops, 8 TCP frames, two verifies/appends and two ticks.
            // Local: 2 hops, 4 frames, one of each.
            let k = if matches!(w.ack, AckMode::Local) { 1.0 } else { 2.0 };
            v.push(("client.append_us".into(), 1.0, spans.median_us("client.append_us")));
            v.push(("net.send_us".into(), 1.0, spans.median_us("net.send_us")));
            v.push(("router.handle_us".into(), 2.0 * k, r("router.handle_us")));
            v.push(("wire.encode+decode_us".into(), 4.0 * k, wire));
            v.push(("server.append_us".into(), k, r("server.append_us")));
            v.push(("server.tick_us".into(), k, r("server.tick_us")));
            v.push(("client.ack_us".into(), 1.0, spans.median_us("client.ack_us")));
        }
        Shape::Read => {
            v.push(("net.send_us".into(), 1.0, spans.median_us("net.send_us")));
            v.push(("router.handle_us".into(), 2.0, r("router.handle_us")));
            v.push(("wire.encode+decode_us".into(), 4.0, wire));
            for (kind, share) in [("one", 0.70), ("proof", 0.25), ("range", 0.05)] {
                v.push((
                    format!("server.read_us.{kind}"),
                    share,
                    r(&format!("server.read_us.{kind}")),
                ));
                let span = format!("client.read_verify_us.{kind}");
                v.push((span.clone(), share, spans.median_us(&span)));
            }
        }
    }
    v
}

fn per_layer(
    w: &Workload,
    p: &Pass,
    reg: &Registry,
    spans: &Spans,
    replay: &BTreeMap<String, f64>,
) -> Vec<Metric> {
    let d = &reg.delta;
    let ops = p.attempted().max(1) as f64;
    let appends = d.counter("server.appends_committed").max(1) as f64;
    let lag: Vec<Option<f64>> =
        p.phases().flat_map(|r| r.lag_ms.iter().map(|&l| Some(l))).collect();
    let lag = stats::summarize(&lag);
    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric { name: name.to_string(), value, unit });
    };
    put("gen.lag_p99_ms", lag.p99, "ms");
    put("gen.inflight_max", p.phases().map(|r| r.inflight_max).max().unwrap_or(0) as f64, "count");
    for s in [
        "client.append_us",
        "client.ack_us",
        "client.read_verify_us.one",
        "client.read_verify_us.proof",
        "client.read_verify_us.range",
        "client.session_us",
        "net.send_us",
    ] {
        put(s, spans.median_us(s), "us");
    }
    for c in ["requests_timed_out", "verify_failures", "nacks_received"] {
        put(
            &format!("client.{c}"),
            reg.client_counters.get(c).copied().unwrap_or(0) as f64,
            "count",
        );
    }
    // A hop to a directly attached principal counts as delivered_local.
    let hops = d.counter("router.pdus_forwarded") + d.counter("router.pdus_delivered_local");
    put("router.pdus_forwarded_per_op", hops as f64 / ops, "count");
    put("router.pdus_no_route", d.counter("router.pdus_no_route") as f64, "count");
    for c in [
        "appends_committed",
        "replicated_in",
        "replicated_out",
        "reads_served",
        "acks_deferred",
        "acks_released",
        "durability_timeouts",
        "sessions_established",
        "verify_failures",
        "appends_shed",
    ] {
        put(&format!("server.{c}"), d.counter(&format!("server.{c}")) as f64, "count");
    }
    put("store.fsyncs_per_append", d.counter("store.fsyncs") as f64 / appends, "count");
    put("store.fsync_batch_entries_mean", d.hist_mean("store.fsync_batch_entries"), "count");
    put("store.fsync_us_p50", d.hist_quantile("store.fsync_us", 0.5), "us");
    put("store.fsync_us_p99", d.hist_quantile("store.fsync_us", 0.99), "us");
    for c in [
        "segments_rotated",
        "checkpoints_written",
        "index_evictions",
        "index_reloads",
        "reads_served_from_store",
        "read_cache_hits",
        "read_cache_misses",
    ] {
        put(&format!("store.{c}"), d.counter(&format!("store.{c}")) as f64, "count");
    }
    put(
        "store.write_amp",
        d.counter("store.bytes_appended") as f64 / reg.user_bytes.max(1) as f64,
        "ratio",
    );
    put("node.tick_us_p50", d.hist_quantile("node.tick_us", 0.5), "us");
    put("node.tick_us_p99", d.hist_quantile("node.tick_us", 0.99), "us");
    for (name, key) in [
        ("net.ingest_dropped", "net.ingest_dropped"),
        ("net.admission_dropped", "net.admission_dropped"),
        ("net.reconnects", "net.reconnects"),
    ] {
        put(name, d.counter(key) as f64, "count");
    }
    for k in [
        "crypto.sign_us",
        "crypto.verify_us",
        "wire.encode_us",
        "wire.decode_us",
        "router.handle_us",
        "server.append_us",
        "server.read_us.one",
        "server.read_us.proof",
        "server.read_us.range",
        "server.tick_us",
        "store.append_us",
        "store.flush_us",
    ] {
        put(k, replay.get(k).copied().unwrap_or(0.0), "us");
    }
    put("crypto.sha256_mbps", replay.get("crypto.sha256_mbps").copied().unwrap_or(0.0), "MB/s");

    // Stage table: live p50 against replayed busy time on the path.
    let live_p50 = stats::summarize(&p.open_primary).p50;
    let table = stages(w, spans, replay);
    println!("stage table ({} op, traced open-loop p50 {live_p50:.3} ms):", w.op_label());
    let mut busy_ms = 0.0;
    for (stage, calls, us) in &table {
        let total = calls * us / 1e3;
        busy_ms += total;
        println!("  {stage:<32} x{calls:<5} {us:>10.1} us  {total:>9.3} ms");
    }
    let residual = live_p50 - busy_ms;
    println!("  {:<32} {:>27.3} ms", "busy along path", busy_ms);
    println!("  {:<32} {:>27.3} ms", "residual (waiting)", residual);
    put("stage.residual_ms", residual, "ms");
    for x in &m {
        println!("layer {} = {:.4} {}", x.name, x.value, x.unit);
    }
    m
}
