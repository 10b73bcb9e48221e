//! The load generator: one process, at most `threads` client threads,
//! each with at most one connection open at a time.
//!
//! The open-loop phase sends every request at its due time whether or
//! not earlier ones have finished (independent users), and times each
//! from that due time, so a stall also charges the requests it delayed.
//! The closed-loop phase keeps every client busy back to back (callers
//! that wait for their reply) to measure completed work per second.
//! Live traffic deltas ride on client 0, in order, between its routes.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::http;
use crate::workload::{Delta, Schedule, WARMUP};

/// Per-request socket timeout; a request this slow counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Why an operation did not succeed.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// `200` with a well-formed answer.
    Ok,
    /// Any other status.
    Status(u16),
    /// `200` whose body breaks the contract (missing lanes, degraded,
    /// truncated, unparsable).
    Invalid(String),
    /// Connection or protocol error.
    Error(String),
}

/// One `/api/route` request.
#[derive(Clone, Debug)]
pub struct RouteResult {
    /// Position in the open-loop schedule (closed loop: none).
    pub index: Option<usize>,
    /// Due time to completion, ms.
    pub latency_ms: f64,
    /// How late the generator sent it, ms.
    pub lag_ms: f64,
    /// The outcome.
    pub verdict: Verdict,
    /// The traffic epoch the answer claims.
    pub epoch: Option<u64>,
    /// The body, kept only for the oracle's sample.
    pub body: Option<String>,
    /// Completed inside its phase (a closed-loop request still running
    /// when the phase ends counts as attempted, not as goodput).
    pub in_phase: bool,
}

/// One `POST /api/traffic` request.
#[derive(Clone, Debug)]
pub struct TrafficResult {
    /// Due time to completion, ms.
    pub latency_ms: f64,
    /// The outcome.
    pub verdict: Verdict,
    /// The epoch the server published for it.
    pub epoch: Option<u64>,
    /// The delta sent.
    pub text: String,
}

/// Checks a `200` route body: four approaches labelled A–D in order, not
/// degraded, not truncated. Returns the claimed epoch.
pub fn check_route_body(body: &str) -> Result<u64, String> {
    let mut from = 0;
    for label in ['A', 'B', 'C', 'D'] {
        let needle = format!("{{\"label\":\"{label}\"");
        match body[from..].find(&needle) {
            Some(at) => from += at + needle.len(),
            None => return Err(format!("approach {label} missing or out of order")),
        }
    }
    if body[from..].contains("{\"label\":\"") {
        return Err("more than four approaches".into());
    }
    if body.contains("\"degraded\":true") {
        return Err("degraded".into());
    }
    if !body.contains("\"truncated\":false") {
        return Err("truncated".into());
    }
    json_u64(body, "epoch").ok_or_else(|| "no epoch".to_string())
}

/// The first top-level-looking `"key":<integer>` in a compact JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn send_route(addr: SocketAddr, body: &str) -> (Verdict, Option<u64>, Option<String>) {
    match http::request(addr, "POST", "/api/route", body, REQUEST_TIMEOUT) {
        Err(e) => (Verdict::Error(e), None, None),
        Ok(r) if r.status != 200 => (Verdict::Status(r.status), None, None),
        Ok(r) => match check_route_body(&r.body) {
            Ok(epoch) => (Verdict::Ok, Some(epoch), Some(r.body)),
            Err(e) => (Verdict::Invalid(e), None, None),
        },
    }
}

/// Sends one delta; the answer's epoch is what the oracle replays to.
pub fn send_delta(addr: SocketAddr, delta: &Delta, due: Instant) -> TrafficResult {
    wait_until(due);
    let (verdict, epoch) =
        match http::request(addr, "POST", "/api/traffic", &delta.text, REQUEST_TIMEOUT) {
            Err(e) => (Verdict::Error(e), None),
            Ok(r) if r.status != 200 => (Verdict::Status(r.status), None),
            Ok(r) => match json_u64(&r.body, "epoch") {
                Some(e) => (Verdict::Ok, Some(e)),
                None => (Verdict::Invalid("no epoch in traffic answer".into()), None),
            },
        };
    TrafficResult {
        latency_ms: ms_since(due),
        verdict,
        epoch,
        text: delta.text.clone(),
    }
}

/// Spin this close to a due time instead of sleeping: waking a sleeping
/// thread on an idle virtual CPU can take milliseconds, which would
/// otherwise show up as generator lateness in every latency.
const SPIN: Duration = Duration::from_micros(500);

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn ms_since(t: Instant) -> f64 {
    Instant::now().saturating_duration_since(t).as_secs_f64() * 1e3
}

/// Closed-loop load on the warm-up pairs for [`WARMUP`] from `threads`
/// clients, covering every warm-up pair at least once. Returns each
/// request's verdict.
pub fn warm_up(addr: SocketAddr, schedule: &Schedule, threads: usize) -> Vec<Verdict> {
    let end = Instant::now() + WARMUP;
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut verdicts = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.warmup.len() && Instant::now() >= end {
                            return verdicts;
                        }
                        let pair = schedule.warmup[i % schedule.warmup.len()];
                        verdicts.push(send_route(addr, &schedule.pairs[pair].body).0);
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("warm-up client panicked"))
            .collect()
    })
}

/// Everything the measured phases produced.
#[derive(Debug, Default)]
pub struct PhaseResults {
    /// Open-loop routes, in schedule order.
    pub open: Vec<RouteResult>,
    /// Closed-loop routes, including any that ended after the phase.
    pub closed: Vec<RouteResult>,
    /// Live deltas, in order.
    pub traffic: Vec<TrafficResult>,
    /// Closed-loop requests beyond one pass over `Schedule::closed`.
    pub closed_reused: usize,
}

/// Runs the open-loop then the closed-loop phase from `t0`, on `threads`
/// clients. Bodies of open-loop indices in `keep` are retained.
pub fn run_phases(
    addr: SocketAddr,
    schedule: &Schedule,
    threads: usize,
    t0: Instant,
    keep: &[usize],
) -> PhaseResults {
    let threads = threads.max(1);
    let closed_start = t0 + schedule.open_len;
    let closed_end = closed_start + schedule.closed_len;
    let next_closed = AtomicUsize::new(0);
    let per_thread: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let next_closed = &next_closed;
                scope.spawn(move || {
                    let mine: &[Delta] = if k == 0 { &schedule.live_deltas } else { &[] };
                    let mut deltas = mine.iter().peekable();
                    let mut open = Vec::new();
                    let mut traffic = Vec::new();
                    for (i, due) in schedule.open.iter().enumerate().skip(k).step_by(threads) {
                        let due_at = t0 + due.at;
                        while let Some(d) = deltas.next_if(|d| t0 + d.at <= due_at) {
                            traffic.push(send_delta(addr, d, t0 + d.at));
                        }
                        wait_until(due_at);
                        let sent = Instant::now();
                        let (verdict, epoch, body) =
                            send_route(addr, &schedule.pairs[due.pair].body);
                        open.push(RouteResult {
                            index: Some(i),
                            latency_ms: ms_since(due_at),
                            lag_ms: sent.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                            verdict,
                            epoch,
                            body: body.filter(|_| keep.binary_search(&i).is_ok()),
                            in_phase: true,
                        });
                    }
                    let mut closed = Vec::new();
                    wait_until(closed_start);
                    loop {
                        if let Some(d) = deltas.next_if(|d| t0 + d.at <= Instant::now()) {
                            traffic.push(send_delta(addr, d, t0 + d.at));
                            continue;
                        }
                        let start = Instant::now();
                        if start >= closed_end {
                            break;
                        }
                        let taken = next_closed.fetch_add(1, Ordering::Relaxed);
                        let pair = schedule.closed[taken % schedule.closed.len()];
                        let (verdict, epoch, _) = send_route(addr, &schedule.pairs[pair].body);
                        closed.push(RouteResult {
                            index: None,
                            latency_ms: ms_since(start),
                            lag_ms: 0.0,
                            verdict,
                            epoch,
                            body: None,
                            in_phase: Instant::now() <= closed_end,
                        });
                    }
                    // Deltas due after the last route still go out, in order.
                    for d in deltas {
                        traffic.push(send_delta(addr, d, t0 + d.at));
                    }
                    (open, closed, traffic)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut results = PhaseResults::default();
    for (open, closed, traffic) in per_thread {
        results.open.extend(open);
        results.closed.extend(closed);
        results.traffic.extend(traffic);
    }
    results.open.sort_by_key(|r| r.index);
    results.closed_reused = next_closed
        .into_inner()
        .saturating_sub(schedule.closed.len());
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"approaches":[{"label":"A","routes":[]},{"label":"B","routes":[]},{"label":"C","routes":[]},{"label":"D","routes":[]}],"epoch":7,"fastest_minutes":12,"geojson":"{\"label\":\"x\"}","trace_id":"00ff","truncated":false}"#;

    #[test]
    fn route_bodies_need_four_lanes_in_order() {
        assert_eq!(check_route_body(GOOD), Ok(7));
        assert!(check_route_body(&GOOD.replace("\"B\"", "\"E\"")).is_err());
        assert!(
            check_route_body(&GOOD.replace("\"truncated\":false", "\"truncated\":true")).is_err()
        );
        let degraded = GOOD.replace(
            "\"truncated\":false",
            "\"truncated\":false,\"degraded\":true",
        );
        assert!(check_route_body(&degraded).is_err());
        assert!(check_route_body(&GOOD.replace("\"epoch\":7,", "")).is_err());
        let five = GOOD.replace(
            "{\"label\":\"D\",\"routes\":[]}",
            "{\"label\":\"D\",\"routes\":[]},{\"label\":\"E\",\"routes\":[]}",
        );
        assert!(check_route_body(&five).is_err());
    }

    #[test]
    fn integer_fields_are_found() {
        assert_eq!(json_u64(r#"{"applied":9,"epoch":12}"#, "epoch"), Some(12));
        assert_eq!(json_u64(r#"{"epoch":"x"}"#, "epoch"), None);
        assert_eq!(json_u64("{}", "epoch"), None);
    }
}
