//! The load generator: many client principals multiplexed over one
//! loopback [`TcpNet`] endpoint, each a sans-I/O [`GdpClient`], driven
//! from one thread. Responses are demultiplexed by destination name.
//!
//! With spans on, the generator times its own calls into the client and
//! net layers (`client.*_us`, `net.send_us`); nothing inside the program
//! is instrumented.

use crate::sched::{Completion, Target};
use gdp_capsule::RecordHash;
use gdp_client::{ClientEvent, GdpClient, VerifiedRead};
use gdp_net::tcp::{TcpNet, TcpNetConfig};
use gdp_node::FOREVER;
use gdp_router::{AttachStep, Attacher};
use gdp_server::{AckMode, ReadTarget};
use gdp_wire::{Name, Pdu};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How long a request may go unanswered before the client's own
/// deadline sweep fails it.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

const SWEEP_EVERY: Duration = Duration::from_millis(100);

/// Back-off before re-sending a session handshake that found no route
/// (the replicas attach to the router asynchronously during set-up):
/// doubles per attempt from 2 ms up to 64 ms.
fn session_retry(attempt: u32) -> Duration {
    Duration::from_millis(2 << attempt.min(5))
}

/// One generated request.
#[derive(Clone, Debug)]
pub enum Op {
    Append { client: usize, capsule: usize, body: Vec<u8>, ack: AckMode },
    Read { client: usize, capsule: usize, target: ReadTarget },
}

/// Read kinds timed separately on the client side.
pub fn read_kind(t: &ReadTarget) -> &'static str {
    match t {
        ReadTarget::One(_) => "one",
        ReadTarget::ProofOf(_) => "proof",
        ReadTarget::Range(..) => "range",
        ReadTarget::Latest => "latest",
        ReadTarget::HeartbeatOnly => "heartbeat",
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tag {
    Op(usize),
    Session(usize),
}

/// Generator-side span samples, in ns, by span name.
#[derive(Default)]
pub struct Spans(BTreeMap<String, Vec<u64>>);

impl Spans {
    fn add(&mut self, name: &str, d: Duration) {
        self.0.entry(name.to_string()).or_default().push(d.as_nanos() as u64);
    }

    /// Median of a span in µs (0 when it never ran).
    pub fn median_us(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(v) if !v.is_empty() => {
                let us: Vec<f64> = v.iter().map(|&n| n as f64 / 1e3).collect();
                crate::stats::median(&us)
            }
            _ => 0.0,
        }
    }
}

pub struct Gen {
    net: TcpNet,
    router: SocketAddr,
    epoch: Instant,
    pub clients: Vec<GdpClient>,
    by_name: HashMap<Name, usize>,
    capsules: Vec<Name>,
    ops: Vec<Op>,
    pending: HashMap<(usize, u64), Tag>,
    /// Seq and hash of the record each append op sent.
    sent: HashMap<usize, (u64, RecordHash)>,
    /// Every acked record, per capsule index: seq → hash.
    pub acked: Vec<BTreeMap<u64, RecordHash>>,
    /// Read results kept for the correctness check.
    pub kept: HashMap<usize, VerifiedRead>,
    keep_reads: bool,
    sessions_done: Vec<(usize, bool)>,
    session_cpu: HashMap<usize, Duration>,
    pub spans: Option<Spans>,
    /// Failed ops by `<op kind>/<cause>`.
    pub failures: BTreeMap<String, u64>,
    last_sweep: Instant,
}

impl Gen {
    /// Binds the generator's endpoint; `clients` are the principals it
    /// speaks for, `capsules` the capsule names ops refer to by index.
    pub fn new(
        router: SocketAddr,
        clients: Vec<GdpClient>,
        capsules: Vec<Name>,
    ) -> Result<Gen, String> {
        let cfg =
            TcpNetConfig { poll_interval: Duration::from_millis(5), ..TcpNetConfig::default() };
        let net = TcpNet::bind_with("127.0.0.1:0".parse().expect("loopback"), cfg)
            .map_err(|e| format!("bind generator endpoint: {e}"))?;
        let mut clients = clients;
        for c in &mut clients {
            c.set_request_timeout(REQUEST_TIMEOUT.as_micros() as u64);
        }
        let by_name = clients.iter().enumerate().map(|(i, c)| (c.name(), i)).collect();
        let acked = vec![BTreeMap::new(); capsules.len()];
        Ok(Gen {
            net,
            router,
            epoch: Instant::now(),
            clients,
            by_name,
            capsules,
            ops: Vec::new(),
            pending: HashMap::new(),
            sent: HashMap::new(),
            acked,
            kept: HashMap::new(),
            keep_reads: false,
            sessions_done: Vec::new(),
            session_cpu: HashMap::new(),
            spans: None,
            failures: BTreeMap::new(),
            last_sweep: Instant::now(),
        })
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn span(&mut self, name: &str, since: Instant) {
        if let Some(s) = &mut self.spans {
            s.add(name, since.elapsed());
        }
    }

    /// Loads the requests the next phase sends, by index.
    pub fn load(&mut self, ops: Vec<Op>, keep_reads: bool) {
        self.ops = ops;
        self.sent.clear();
        self.kept.clear();
        self.keep_reads = keep_reads;
    }

    fn send(&mut self, pdu: Pdu) -> bool {
        let t = Instant::now();
        let ok = self.net.send(self.router, pdu).is_ok();
        self.span("net.send_us", t);
        ok
    }

    /// Attaches principals `which` to the router, one at a time: the router
    /// keeps one pending challenge per neighbor, and all principals share
    /// this endpoint.
    pub fn attach(
        &mut self,
        which: std::ops::Range<usize>,
        router_name: Name,
        deadline: Instant,
    ) -> Result<(), String> {
        for i in which {
            let id = self.clients[i].principal_id().clone();
            let me = id.name();
            let mut attacher = Attacher::new(id, router_name, Vec::new(), FOREVER);
            let mut rejections = 0;
            let mut last_hello = Instant::now();
            self.send(attacher.hello());
            loop {
                if Instant::now() >= deadline {
                    return Err(format!("attach of principal {i} timed out"));
                }
                // The router may be busy admitting the replicas' catalogs;
                // re-Hello only after a generous pause.
                if last_hello.elapsed() >= Duration::from_secs(1) {
                    last_hello = Instant::now();
                    self.send(attacher.hello());
                }
                let Ok(Some((_, pdu))) = self.net.recv_timeout(Duration::from_millis(20)) else {
                    continue;
                };
                // Replies are addressed to the principal they answer, so a
                // late reply to an earlier principal's handshake is skipped.
                if pdu.dst != me {
                    continue;
                }
                match attacher.on_pdu(&pdu) {
                    AttachStep::Send(p) => {
                        self.send(p);
                    }
                    AttachStep::Done(_) => break,
                    // A proof of a challenge a re-Hello superseded; start over.
                    AttachStep::Failed(_) if rejections < 3 => {
                        rejections += 1;
                        last_hello = Instant::now();
                        self.send(attacher.hello());
                    }
                    AttachStep::Failed(r) => return Err(format!("attach rejected: {r}")),
                    AttachStep::Ignored => {}
                }
            }
        }
        Ok(())
    }

    /// Establishes a session for each `(client, capsule index)` pair with
    /// up to `window` handshakes in flight, retrying while the capsule is
    /// not yet routable (storage nodes attach asynchronously).
    pub fn sessions(
        &mut self,
        pairs: &[(usize, usize)],
        window: usize,
        deadline: Instant,
    ) -> Result<(), String> {
        let mut queue: Vec<(Instant, usize)> =
            (0..pairs.len()).rev().map(|i| (Instant::now(), i)).collect();
        let (mut inflight, mut ready) = (0usize, 0usize);
        let mut attempts = vec![0u32; pairs.len()];
        let mut out = Vec::new();
        while ready < pairs.len() {
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("{ready} of {} sessions ready", pairs.len()));
            }
            while inflight < window {
                let Some(pos) = queue.iter().rposition(|&(at, _)| at <= now) else { break };
                let (_, i) = queue.remove(pos);
                let (c, cap) = pairs[i];
                let t = Instant::now();
                let pdu = self.clients[c].session_init(self.capsules[cap]);
                *self.session_cpu.entry(i).or_default() += t.elapsed();
                let seq = pdu.seq;
                self.pending.insert((c, seq), Tag::Session(i));
                if self.send(pdu) {
                    inflight += 1;
                } else {
                    self.pending.remove(&(c, seq));
                    attempts[i] += 1;
                    queue.push((now + session_retry(attempts[i]), i));
                }
            }
            self.pump(now + Duration::from_millis(10), &mut out);
            for (i, ok) in std::mem::take(&mut self.sessions_done) {
                inflight -= 1;
                if ok {
                    ready += 1;
                    let cpu = self.session_cpu.remove(&i).unwrap_or_default();
                    if let Some(s) = &mut self.spans {
                        s.add("client.session_us", cpu);
                    }
                } else {
                    attempts[i] += 1;
                    queue.push((Instant::now() + session_retry(attempts[i]), i));
                }
            }
        }
        Ok(())
    }

    /// Receives and handles responses until `until` or until something
    /// completes; always drains what is already queued first.
    fn pump(&mut self, until: Instant, out: &mut Vec<Completion>) {
        loop {
            while let Ok(Some((_, pdu))) = self.net.try_recv() {
                self.handle(pdu, out);
            }
            let now = Instant::now();
            if now - self.last_sweep >= SWEEP_EVERY {
                self.last_sweep = now;
                self.sweep(out);
            }
            if !out.is_empty() || !self.sessions_done.is_empty() || now >= until {
                return;
            }
            let wait = (until - now).min(Duration::from_millis(20));
            match self.net.recv_timeout(wait) {
                Ok(Some((_, pdu))) => self.handle(pdu, out),
                Ok(None) => {}
                Err(_) => return,
            }
        }
    }

    fn sweep(&mut self, out: &mut Vec<Completion>) {
        let now = self.now_us();
        for c in 0..self.clients.len() {
            if self.clients[c].pending_len() == 0 {
                continue;
            }
            for ev in self.clients[c].sweep_timeouts(now) {
                if let ClientEvent::Timeout { request_seq, .. } = ev {
                    self.fail(c, request_seq, "timeout", out);
                }
            }
        }
    }

    /// Resolves a pending request. True only when it was an op still in
    /// flight, so each failed op is counted once and session retries
    /// during setup are not counted at all.
    fn finish(&mut self, client: usize, seq: u64, ok: bool, out: &mut Vec<Completion>) -> bool {
        match self.pending.remove(&(client, seq)) {
            Some(Tag::Op(id)) => {
                out.push(Completion { id, ok, at: Instant::now() });
                true
            }
            Some(Tag::Session(i)) => {
                self.sessions_done.push((i, ok));
                false
            }
            None => false,
        }
    }

    /// Fails a pending op and counts its cause.
    fn fail(&mut self, client: usize, seq: u64, cause: &str, out: &mut Vec<Completion>) {
        if self.finish(client, seq, false, out) {
            let id = out.last().expect("finish pushed a completion").id;
            self.count_failure(id, cause);
        }
    }

    fn count_failure(&mut self, id: usize, cause: &str) {
        let kind = match &self.ops[id] {
            Op::Append { .. } => "append",
            Op::Read { target, .. } => read_kind(target),
        };
        *self.failures.entry(format!("{kind}/{cause}")).or_default() += 1;
    }

    fn handle(&mut self, pdu: Pdu, out: &mut Vec<Completion>) {
        let Some(&c) = self.by_name.get(&pdu.dst) else { return };
        let seq = pdu.seq;
        let tag = self.pending.get(&(c, seq)).copied();
        let span = match tag {
            Some(Tag::Op(id)) => match &self.ops[id] {
                Op::Append { .. } => "client.ack_us".to_string(),
                Op::Read { target, .. } => format!("client.read_verify_us.{}", read_kind(target)),
            },
            Some(Tag::Session(_)) | None => String::new(),
        };
        let now = self.now_us();
        let t = Instant::now();
        let events = self.clients[c].handle_pdu(now, pdu);
        let took = t.elapsed();
        match tag {
            Some(Tag::Op(_)) => {
                if let Some(s) = &mut self.spans {
                    s.add(&span, took);
                }
            }
            Some(Tag::Session(i)) => *self.session_cpu.entry(i).or_default() += took,
            None => {}
        }
        for ev in events {
            match ev {
                ClientEvent::AppendAcked { seq: rec_seq, .. } => {
                    let Some(Tag::Op(id)) = tag else { continue };
                    let Op::Append { capsule, .. } = self.ops[id] else { continue };
                    match self.sent.get(&id) {
                        Some(&(s, h)) if s == rec_seq => {
                            self.acked[capsule].insert(s, h);
                            self.finish(c, seq, true, out);
                        }
                        _ => {
                            self.fail(c, seq, "wrong_ack", out);
                        }
                    }
                }
                ClientEvent::ReadOk { request_seq, result, .. } => {
                    if let (true, Some(Tag::Op(id))) = (self.keep_reads, tag) {
                        self.kept.insert(id, result);
                    }
                    self.finish(c, request_seq, true, out);
                }
                ClientEvent::SessionReady { .. } => {
                    self.finish(c, seq, true, out);
                }
                ClientEvent::VerificationFailed { .. } => {
                    self.fail(c, seq, "verification", out);
                }
                ClientEvent::ServerError { .. } => {
                    self.fail(c, seq, "server_error", out);
                }
                ClientEvent::Unreachable { .. } => {
                    self.fail(c, seq, "unreachable", out);
                }
                ClientEvent::Backpressure { request_seq, .. } => {
                    // gdpd runs with load shedding off, so a Nack is never
                    // followed by a retry that could satisfy it.
                    self.fail(c, request_seq, "nack", out);
                }
                ClientEvent::Timeout { request_seq, .. } => {
                    self.fail(c, request_seq, "timeout", out);
                }
                ClientEvent::SubEvent { .. } => {}
            }
        }
    }

    pub fn shutdown(&self) {
        self.net.shutdown();
    }
}

impl Target for Gen {
    fn send_request(&mut self, id: usize) -> bool {
        let (c, pdu) = match &self.ops[id] {
            Op::Append { client, capsule, body, ack } => {
                let (c, cap, ack) = (*client, self.capsules[*capsule], *ack);
                let t = Instant::now();
                let built = self.clients[c].append(cap, body, 0, ack);
                self.span("client.append_us", t);
                let Ok((pdu, record)) = built else {
                    self.count_failure(id, "build");
                    return false;
                };
                self.sent.insert(id, (record.header.seq, record.hash()));
                (c, pdu)
            }
            Op::Read { client, capsule, target } => {
                let (c, cap, target) = (*client, self.capsules[*capsule], *target);
                (c, self.clients[c].read(cap, target))
            }
        };
        self.pending.insert((c, pdu.seq), Tag::Op(id));
        let seq = pdu.seq;
        if self.send(pdu) {
            true
        } else {
            self.pending.remove(&(c, seq));
            self.count_failure(id, "send");
            false
        }
    }

    fn poll(&mut self, until: Instant, out: &mut Vec<Completion>) {
        self.pump(until, out);
    }
}
