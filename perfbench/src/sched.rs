//! Load schedules over any [`Target`]: an open loop at a fixed offered
//! rate, and a fixed count of requests with a bounded number in flight.
//!
//! Every latency runs from the request's *intended* send time. In the
//! open loop that is its slot on the schedule, so a generator stall is
//! charged to every request it delays (no coordinated omission); the
//! distance between slot and actual send is reported as lag. In the
//! fixed-count phase a request is due as soon as a window slot frees.

use std::time::{Duration, Instant};

/// A request that finished, successfully or not.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    pub id: usize,
    pub ok: bool,
    pub at: Instant,
}

/// The system under load, seen from the generator.
pub trait Target {
    /// Sends request `id`; `false` means it could not be sent (a failure).
    fn send_request(&mut self, id: usize) -> bool;
    /// Processes responses until `until` passes or something completes,
    /// appending completions to `out`.
    fn poll(&mut self, until: Instant, out: &mut Vec<Completion>);
}

/// What one phase measured.
pub struct PhaseResult {
    /// Per request: ms from intended send to completion; `None` = failed.
    pub latency_ms: Vec<Option<f64>>,
    /// Per request: ms between intended and actual send.
    pub lag_ms: Vec<f64>,
    pub inflight_max: usize,
    /// When each successful request completed, ascending.
    pub completed: Vec<Instant>,
    pub started: Instant,
}

impl PhaseResult {
    pub fn attempted(&self) -> usize {
        self.latency_ms.len()
    }

    pub fn failed(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_none()).count()
    }
}

/// Offers `count` requests at `rate_per_s`, regardless of completions.
pub fn open_loop(target: &mut impl Target, count: usize, rate_per_s: f64) -> PhaseResult {
    run(target, count, Pace::Rate(rate_per_s))
}

/// Sends exactly `count` requests, keeping at most `window` in flight.
pub fn fixed_count(target: &mut impl Target, count: usize, window: usize) -> PhaseResult {
    run(target, count, Pace::Window(window.max(1)))
}

#[derive(Clone, Copy)]
enum Pace {
    Rate(f64),
    Window(usize),
}

/// Longest a poll blocks when nothing is due (bounds reaction time).
const IDLE_POLL: Duration = Duration::from_millis(20);

fn run(target: &mut impl Target, count: usize, pace: Pace) -> PhaseResult {
    let started = Instant::now();
    let slot = |i: usize, r: f64| started + Duration::from_secs_f64(i as f64 / r);
    let mut intended = vec![started; count];
    let mut latency_ms = vec![None; count];
    let mut done = vec![false; count];
    let mut lag_ms = Vec::with_capacity(count);
    let (mut next, mut inflight, mut inflight_max) = (0usize, 0usize, 0usize);
    let mut completed = Vec::with_capacity(count);
    let mut buf = Vec::new();
    loop {
        while next < count {
            let now = Instant::now();
            let due = match pace {
                Pace::Rate(r) => slot(next, r),
                Pace::Window(w) if inflight < w => now,
                Pace::Window(_) => break,
            };
            if due > now {
                break;
            }
            intended[next] = due;
            lag_ms.push(ms(now - due));
            if target.send_request(next) {
                inflight += 1;
                inflight_max = inflight_max.max(inflight);
            } else {
                done[next] = true;
            }
            next += 1;
        }
        if next == count && inflight == 0 {
            break;
        }
        let until = match pace {
            Pace::Rate(r) if next < count => slot(next, r),
            _ => Instant::now() + IDLE_POLL,
        };
        target.poll(until, &mut buf);
        for c in buf.drain(..) {
            if c.id >= count || std::mem::replace(&mut done[c.id], true) {
                continue;
            }
            inflight -= 1;
            if c.ok {
                latency_ms[c.id] = Some(ms(c.at.saturating_duration_since(intended[c.id])));
                completed.push(c.at);
            }
        }
    }
    completed.sort();
    PhaseResult { latency_ms, lag_ms, inflight_max, completed, started }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Answers every request `service` after it was sent; request
    /// `stall_on` blocks the generator for `stall` inside `send_request`.
    struct Stub {
        service: Duration,
        stall_on: Option<usize>,
        stall: Duration,
        queue: VecDeque<(usize, Instant)>,
        sent: usize,
        max_seen_inflight: usize,
    }

    impl Stub {
        fn new(service: Duration) -> Stub {
            Stub {
                service,
                stall_on: None,
                stall: Duration::ZERO,
                queue: VecDeque::new(),
                sent: 0,
                max_seen_inflight: 0,
            }
        }
    }

    impl Target for Stub {
        fn send_request(&mut self, id: usize) -> bool {
            if self.stall_on == Some(id) {
                std::thread::sleep(self.stall);
            }
            self.sent += 1;
            self.queue.push_back((id, Instant::now() + self.service));
            self.max_seen_inflight = self.max_seen_inflight.max(self.queue.len());
            true
        }

        fn poll(&mut self, until: Instant, out: &mut Vec<Completion>) {
            let wake = self.queue.front().map_or(until, |&(_, at)| at.min(until));
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            let now = Instant::now();
            while let Some(&(id, at)) = self.queue.front() {
                if at > now {
                    break;
                }
                self.queue.pop_front();
                out.push(Completion { id, ok: true, at: now });
            }
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_later_requests() {
        // 500/s = one slot per 2 ms; request 10 stalls the generator for
        // 100 ms, so the ~50 slots behind it are sent late.
        let mut stub = Stub::new(Duration::from_micros(200));
        stub.stall_on = Some(10);
        stub.stall = Duration::from_millis(100);
        let r = open_loop(&mut stub, 100, 500.0);
        assert_eq!((r.attempted(), r.failed()), (100, 0));
        let lat: Vec<f64> = r.latency_ms.iter().map(|l| l.unwrap()).collect();
        // Request 11 was due 2 ms after request 10 but could only go out
        // once the stall ended: ~98 ms of lag charged to its latency.
        assert!(r.lag_ms[11] >= 90.0, "lag {}", r.lag_ms[11]);
        assert!(lat[11] >= 90.0, "latency {}", lat[11]);
        // Lag decays one slot at a time behind the stall.
        assert!(lat[30] >= 50.0, "latency {}", lat[30]);
        assert!(r.lag_ms.iter().cloned().fold(0.0, f64::max) >= 90.0);
        // Requests before the stall see only the service time.
        assert!(lat[5] < 50.0, "latency {}", lat[5]);
        // The backlog made more than one request wait at once.
        assert!(r.inflight_max > 1);
    }

    #[test]
    fn open_loop_never_runs_ahead_of_its_schedule() {
        // 50 requests at 1000/s: the last is due 49 ms after the start.
        let mut stub = Stub::new(Duration::from_micros(100));
        let r = open_loop(&mut stub, 50, 1000.0);
        assert!(*r.completed.last().unwrap() - r.started >= Duration::from_millis(49));
        assert!(r.lag_ms.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn fixed_count_stops_at_its_count_and_window() {
        let mut stub = Stub::new(Duration::from_micros(50));
        let r = fixed_count(&mut stub, 333, 8);
        assert_eq!(stub.sent, 333);
        assert_eq!((r.attempted(), r.failed()), (333, 0));
        assert!(stub.max_seen_inflight <= 8 && r.inflight_max == 8);
        assert_eq!(r.completed.len(), 333);
    }

    #[test]
    fn refused_sends_count_as_failures() {
        struct Refuse;
        impl Target for Refuse {
            fn send_request(&mut self, _: usize) -> bool {
                false
            }
            fn poll(&mut self, _: Instant, _: &mut Vec<Completion>) {}
        }
        let r = fixed_count(&mut Refuse, 10, 4);
        assert_eq!((r.attempted(), r.failed()), (10, 10));
    }
}
