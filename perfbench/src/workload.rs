//! The named workloads and the seeded schedules they expand to.
//!
//! A schedule is a pure function of `(workload, seed, seconds, network)`:
//! the route pairs, each open-loop request's due time, the closed-loop
//! order, the operator's traffic deltas and the oracle's sample. The
//! server only ever sees the rendered HTTP bodies.

use std::time::Duration;

use arp_citygen::{City, Scale};
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_traffic::{CityProfile, TrafficFeed};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fastest-time window of generated route pairs (3–40 min).
pub const MIN_FASTEST_MS: u64 = 3 * 60_000;
/// See [`MIN_FASTEST_MS`].
pub const MAX_FASTEST_MS: u64 = 40 * 60_000;

/// Share of `--seconds` spent in the open-loop phase; the rest is the
/// closed-loop goodput phase.
pub const OPEN_SHARE: f64 = 0.65;

/// Route pairs the oracle re-computes per run.
pub const ORACLE_SAMPLE: usize = 12;

/// Deltas the traced run applies after its replay on workloads without a
/// live operator, so the traffic layer is timed on every workload without
/// touching a measured request.
pub const LAYER_DELTAS: usize = 16;

/// Length of the seeded closed-loop pair order; clients cycle through it.
const CLOSED_ORDER: usize = 16_384;

/// Closed-loop load before timing starts: fills caches, finishes lazy
/// set-up, and brings an idle (virtual) machine up to speed, which
/// otherwise makes whichever run comes first after a pause the slowest.
pub const WARMUP: Duration = Duration::from_secs(2);

/// The seed `arp serve` and the reference processor generate the city
/// and the Google-like private data from. Fixed: the benchmark seed
/// varies the requests, not the program's configuration.
pub const SERVER_SEED: u64 = 42;

/// How route pairs are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pairs {
    /// Every request a new pair: the route cache never hits.
    Distinct,
    /// Requests drawn uniformly from a fixed set of this many pairs.
    Popular(usize),
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// The city served.
    pub city: City,
    /// Its scale.
    pub scale: Scale,
    /// Open-loop arrival rate of `/api/route`, requests per second
    /// (about 40% of the first measured closed-loop capacity, except on
    /// `traffic_churn`, whose rate is set by the workload's definition).
    pub route_rps: f64,
    /// Latency limit for `slo_attain` and `goodput_rps`, in ms: about
    /// twice the first measured `route_p95_ms`, fixed from then on.
    pub limit_ms: f64,
    /// How pairs are drawn.
    pub pairs: Pairs,
    /// Rate of live `POST /api/traffic` deltas beside the route load
    /// (0: none).
    pub traffic_hz: f64,
    /// Serve with `--state-dir` on a fresh directory (journal and
    /// snapshots); otherwise with the default, non-durable state.
    pub durable: bool,
    /// Server start-ups per end-to-end run; `setup_s` is their median.
    /// More where a start-up is short, because scheduling noise is then
    /// a larger share of it.
    pub setup_reps: usize,
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "cold_large",
            city: City::Melbourne,
            scale: Scale::Large,
            route_rps: 13.0,
            limit_ms: 250.0,
            pairs: Pairs::Distinct,
            traffic_hz: 0.0,
            durable: false,
            setup_reps: 3,
        },
        Workload {
            name: "traffic_churn",
            city: City::Dhaka,
            scale: Scale::Medium,
            route_rps: 40.0,
            limit_ms: 35.0,
            pairs: Pairs::Popular(64),
            traffic_hz: 2.0,
            durable: true,
            setup_reps: 24,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The `arp serve` scale argument.
    pub fn scale_arg(&self) -> &'static str {
        match self.scale {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }

    /// The `arp serve` city argument.
    pub fn city_arg(&self) -> String {
        self.city.name().to_ascii_lowercase()
    }
}

/// A routable pair and the body that asks for it.
#[derive(Clone, Debug, PartialEq)]
pub struct Pair {
    /// Source vertex.
    pub source: NodeId,
    /// Target vertex.
    pub target: NodeId,
    /// Fastest travel time on base weights, ms.
    pub fastest_ms: u64,
    /// The `/api/route` JSON body (the vertices' exact coordinates).
    pub body: String,
}

/// One open-loop request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Due {
    /// Send time, from the start of the measured phases.
    pub at: Duration,
    /// Index into [`Schedule::pairs`].
    pub pair: usize,
}

/// One operator delta.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// Send time, from the start of the measured phases (layer deltas:
    /// from the end of the traced replay).
    pub at: Duration,
    /// The delta in the server's grammar.
    pub text: String,
}

/// Everything a run sends, derived from the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Every pair any phase uses.
    pub pairs: Vec<Pair>,
    /// Pairs cycled through during [`WARMUP`].
    pub warmup: Vec<usize>,
    /// The open-loop phase.
    pub open: Vec<Due>,
    /// Length of the open-loop phase.
    pub open_len: Duration,
    /// Pair order of the closed-loop phase: clients take the next one
    /// and start over at the end (on `Distinct`, a pair then repeats and
    /// the report counts it).
    pub closed: Vec<usize>,
    /// Length of the closed-loop phase.
    pub closed_len: Duration,
    /// Live deltas during both phases (`traffic_hz > 0`).
    pub live_deltas: Vec<Delta>,
    /// [`LAYER_DELTAS`] deltas for the traced run (`traffic_hz == 0`),
    /// spaced from the end of its replay.
    pub layer_deltas: Vec<Delta>,
    /// Indices into `open` whose bodies the oracle re-computes.
    pub oracle: Vec<usize>,
}

/// Renders the `/api/route` body for a pair of vertices.
pub fn route_body(net: &RoadNetwork, s: NodeId, t: NodeId) -> String {
    let (a, b) = (net.point(s), net.point(t));
    // `{}` prints the shortest representation that parses back to the
    // same f64, so the server snaps to exactly these vertices.
    format!(
        "{{\"slon\":{},\"slat\":{},\"tlon\":{},\"tlat\":{}}}",
        a.lon, a.lat, b.lon, b.lat
    )
}

/// Smallest pool [`stratified_pairs`] draws its quantiles from.
const MIN_POOL: usize = 512;

/// `count` distinct pairs whose fastest times are spread evenly over the
/// distribution of a larger seeded pool, in seeded random order.
///
/// Taking evenly spaced quantiles of a pool of at least [`MIN_POOL`] (and
/// twice `count`), instead of the first `count` draws, keeps the mix of
/// short and long routes nearly the same from seed to seed, so run-to-run
/// spread reflects the program rather than which routes were drawn.
pub fn stratified_pairs(net: &RoadNetwork, count: usize, seed: u64) -> Result<Vec<Pair>, String> {
    let size = (count * 2).max(MIN_POOL);
    let mut pool = arp_bench::random_queries(net, size, MIN_FASTEST_MS, MAX_FASTEST_MS, seed);
    pool.sort_by_key(|&(s, t, ms)| (ms, s, t));
    pool.dedup_by_key(|&mut (s, t, _)| (s, t));
    if pool.len() < count {
        return Err(format!(
            "only {} distinct routable pairs for {count} requested",
            pool.len()
        ));
    }
    let mut picked: Vec<Pair> = (0..count)
        .map(|i| {
            let (s, t, ms) = pool[(2 * i + 1) * pool.len() / (2 * count)];
            Pair {
                source: s,
                target: t,
                fastest_ms: ms,
                body: route_body(net, s, t),
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
    shuffle(&mut picked, &mut rng);
    Ok(picked)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Splits `--seconds` into the open-loop and closed-loop phase lengths.
pub fn phase_lengths(seconds: f64) -> (Duration, Duration) {
    let open = Duration::from_secs_f64(seconds * OPEN_SHARE);
    (open, Duration::from_secs_f64(seconds) - open)
}

/// Expands a workload into its schedule.
pub fn schedule(
    w: &Workload,
    net: &RoadNetwork,
    seed: u64,
    seconds: f64,
) -> Result<Schedule, String> {
    let (open_len, closed_len) = phase_lengths(seconds);
    let n_open = (w.route_rps * open_len.as_secs_f64()).floor() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let (pairs, warmup, open_pairs, closed) = match w.pairs {
        Pairs::Distinct => {
            // The open-loop rate is about 40% of capacity, so five times
            // it leaves the closed loop twice its expected demand before
            // a pair repeats. Warm-up pairs are never requested again.
            let demand = |len: Duration| (5.0 * w.route_rps * len.as_secs_f64()).ceil() as usize;
            let (n_warm, n_closed) = (demand(WARMUP), demand(closed_len));
            let pairs = stratified_pairs(net, n_warm + n_open + n_closed, seed)?;
            let warmup = (0..n_warm).collect();
            let open = (n_warm..n_warm + n_open).collect::<Vec<_>>();
            let closed = (n_warm + n_open..pairs.len()).collect();
            (pairs, warmup, open, closed)
        }
        Pairs::Popular(k) => {
            // Live traffic empties the cache at the first delta anyway:
            // warm the code paths on pairs outside the popular set.
            let mut pairs = stratified_pairs(net, k, seed)?;
            pairs.extend(stratified_pairs(net, k / 4, seed ^ 0xA5A5)?);
            let warmup = (k..pairs.len()).collect();
            let open = (0..n_open).map(|_| rng.random_range(0..k)).collect();
            let closed = (0..CLOSED_ORDER).map(|_| rng.random_range(0..k)).collect();
            (pairs, warmup, open, closed)
        }
    };
    let interval = 1.0 / w.route_rps;
    let open: Vec<Due> = open_pairs
        .into_iter()
        .enumerate()
        .map(|(i, pair)| Due {
            at: Duration::from_secs_f64(i as f64 * interval),
            pair,
        })
        .collect();
    let feed = TrafficFeed::new(seed, CityProfile::for_city_name(w.city.name()))
        // Closures stay out: `POST /api/traffic` applies at a fixed feed
        // tick, so a TTL'd closure would never expire and closures would
        // pile up over a run, cutting pairs off the network by
        // construction of the workload.
        .with_incident_rate(0.0);
    let delta = |tick: u64| feed.delta_for_tick(tick, net.num_edges()).to_string();
    let total = seconds;
    let live_deltas = if w.traffic_hz > 0.0 {
        let n = (total * w.traffic_hz).floor() as u64;
        (0..n)
            .map(|k| Delta {
                at: Duration::from_secs_f64((k as f64 + 0.5) / w.traffic_hz),
                text: delta(k + 1),
            })
            .collect()
    } else {
        Vec::new()
    };
    let layer_deltas = if w.traffic_hz > 0.0 {
        Vec::new()
    } else {
        // Spaced so a Large-scale re-customization finishes between two.
        (0..LAYER_DELTAS as u64)
            .map(|k| Delta {
                at: Duration::from_millis(250 * k),
                text: delta(k + 1),
            })
            .collect()
    };
    let mut oracle: Vec<usize> = (0..open.len()).collect();
    shuffle(&mut oracle, &mut rng);
    oracle.truncate(ORACLE_SAMPLE);
    oracle.sort_unstable();
    Ok(Schedule {
        pairs,
        warmup,
        open,
        open_len,
        closed,
        closed_len,
        live_deltas,
        layer_deltas,
        oracle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RoadNetwork {
        arp_citygen::generate(City::Dhaka, Scale::Small, SERVER_SEED).network
    }

    fn small(w: &str) -> Workload {
        let mut w = by_name(w).unwrap();
        w.route_rps /= 4.0;
        w
    }

    #[test]
    fn same_seed_same_bodies_and_due_times() {
        let net = tiny();
        for name in ["cold_large", "traffic_churn"] {
            let w = small(name);
            let a = schedule(&w, &net, 7, 4.0).unwrap();
            let b = schedule(&w, &net, 7, 4.0).unwrap();
            assert_eq!(a, b, "{name}");
            let c = schedule(&w, &net, 8, 4.0).unwrap();
            assert_ne!(a.pairs, c.pairs, "{name}: the seed must matter");
        }
    }

    #[test]
    fn schedules_have_the_promised_shape() {
        let net = tiny();
        let w = small("cold_large");
        let s = schedule(&w, &net, 3, 8.0).unwrap();
        assert_eq!(s.open.len(), (w.route_rps * 8.0 * OPEN_SHARE) as usize);
        // Distinct: no pair is ever requested twice.
        let mut used: Vec<usize> = s.warmup.clone();
        used.extend(s.open.iter().map(|d| d.pair));
        used.extend(&s.closed);
        let n = used.len();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), n);
        let mut bodies: Vec<&str> = s.pairs.iter().map(|p| p.body.as_str()).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), s.pairs.len());
        // Fixed spacing from zero.
        assert_eq!(s.open[0].at, Duration::ZERO);
        assert!(s.open.windows(2).all(|d| d[0].at < d[1].at));
        assert_eq!(s.layer_deltas.len(), LAYER_DELTAS);
        assert!(s.live_deltas.is_empty());
        assert_eq!(s.oracle.len(), ORACLE_SAMPLE);
        for p in &s.pairs {
            assert!((MIN_FASTEST_MS..=MAX_FASTEST_MS).contains(&p.fastest_ms));
        }

        let w = small("traffic_churn");
        let s = schedule(&w, &net, 3, 8.0).unwrap();
        assert_eq!(s.live_deltas.len(), 16);
        assert!(s.layer_deltas.is_empty());
        assert!(s.open.iter().all(|d| d.pair < 64));
        assert!(s.closed.iter().all(|&p| p < 64));
        assert!(s.warmup.iter().all(|&p| p >= 64));
        for d in &s.live_deltas {
            // Every delta parses in the server's grammar and has no closure.
            let parsed = arp_traffic::TrafficDelta::parse(&d.text).unwrap();
            assert_eq!(parsed.to_string(), d.text);
            assert!(!d.text.contains("close"));
        }
    }

    #[test]
    fn bodies_carry_exact_vertex_coordinates() {
        let net = tiny();
        let body = route_body(&net, NodeId(3), NodeId(9));
        let v = arp_demo::json::parse(&body).unwrap();
        assert_eq!(
            v.get("slon").unwrap().as_f64(),
            Some(net.point(NodeId(3)).lon)
        );
        assert_eq!(
            v.get("tlat").unwrap().as_f64(),
            Some(net.point(NodeId(9)).lat)
        );
    }
}
