//! Seeded serving benchmark for `arp serve`.
//!
//! ```text
//! arp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --arp <path to the arp binary> [--out <dir>] [--source-id <id>]
//! ```
//!
//! `--trace 0` measures end to end: the server is started several times
//! to time set-up, half before the measured phases and half after them;
//! the last instance started before them takes the open-loop and
//! closed-loop phases over loopback TCP. `--trace 1` runs the same phases
//! once more for the wire numbers, then the in-process traced run for the
//! per-layer ones. Both check served answers against a reference. The last
//! line of standard output is the result object; the full report (with
//! provenance and work counts) is the line before it and is also written
//! under `--out`. See `perfbench/METHOD.md`.

mod http;
mod idle;
mod load;
mod oracle;
mod prom;
mod server;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use arp_bench::TECHNIQUE_SLUGS;
use arp_demo::json::Json;
use arp_demo::QueryProcessor;

use crate::load::{PhaseResults, Verdict};
use crate::prom::Scrape;
use crate::server::Server;
use crate::stats::{quartiles, Summary};
use crate::workload::{Schedule, Workload, SERVER_SEED};

/// The open-loop phase is cut into windows of this length, and the
/// hypervisor's steal share is read for each. `route_p50_ms` pools the
/// requests due in the cleanest half of the windows: steal comes in
/// bursts of a few seconds, and a burst stalls every request in flight.
const STEAL_WINDOW: Duration = Duration::from_secs(2);

/// Pause before each start-up after the first. On a shared machine the
/// speed of identical start-ups drifts by tens of percent from one 20 s
/// stretch to the next; spacing them out (and splitting them around the
/// measured phases) makes their median sample more of those stretches.
const SETUP_GAP: Duration = Duration::from_millis(250);

/// Cumulative CPU time of the machine, from `/proc/stat`.
struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// `None` where `/proc/stat` is unavailable or unparsable.
    fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some(CpuTimes {
            // user nice system idle iowait irq softirq steal ...
            steal: *fields.get(7)?,
            total: fields.iter().take(8).sum(),
        })
    }
}

/// Share of all CPU time between two readings that was stolen.
fn steal_share(before: &Option<CpuTimes>, after: &Option<CpuTimes>) -> Option<f64> {
    let (then, now) = (before.as_ref()?, after.as_ref()?);
    let total = now.total.checked_sub(then.total).filter(|&t| t > 0)?;
    Some(now.steal.saturating_sub(then.steal) as f64 / total as f64)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    arp: PathBuf,
    out: PathBuf,
    source_id: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
    let name = need("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        arp: PathBuf::from(need("--arp")?),
        out: PathBuf::from(get("--out").unwrap_or(".bench_out")),
        source_id: get("--source-id").unwrap_or("unknown").to_string(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("arp-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operation tally across every phase of one run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// `200` answers whose body broke the contract, plus oracle mismatches.
    incorrect: usize,
    errors: Vec<String>,
}

impl Tally {
    fn note(&mut self, what: &str, verdict: &Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Invalid(e) => {
                self.failed += 1;
                self.incorrect += 1;
                self.errors.push(format!("{what}: invalid answer: {e}"));
            }
            other => {
                self.failed += 1;
                self.errors.push(format!("{what}: {other:?}"));
            }
        }
    }
}

/// Counts for one phase: sent, succeeded, failed.
fn phase_counts<'a>(verdicts: impl Iterator<Item = &'a Verdict>) -> Json {
    let (mut sent, mut ok) = (0u64, 0u64);
    for v in verdicts {
        sent += 1;
        ok += u64::from(*v == Verdict::Ok);
    }
    Json::object([
        ("sent", Json::from(sent)),
        ("succeeded", Json::from(ok)),
        ("failed", Json::from(sent - ok)),
    ])
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The end-to-end phases against one running server.
struct Served {
    phases: PhaseResults,
    counts: Scrape,
    peak_rss_mb: f64,
    /// Steal share of each [`STEAL_WINDOW`] of the open-loop phase.
    window_steal: Vec<f64>,
}

/// Reads the steal share of each [`STEAL_WINDOW`] from `t0` until
/// `len` has passed (a window cut short by the end is dropped).
fn sample_steal(t0: Instant, len: Duration) -> Vec<f64> {
    let mut shares = Vec::new();
    let mut start = t0;
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    let mut before = CpuTimes::read();
    while start + STEAL_WINDOW <= t0 + len {
        start += STEAL_WINDOW;
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let after = CpuTimes::read();
        shares.push(steal_share(&before, &after).unwrap_or(0.0));
        before = after;
    }
    shares
}

/// Indices of the cleanest half of the windows (least steal first, ties
/// to the earlier window), rounded up.
fn cleanest_half(window_steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..window_steal.len()).collect();
    order.sort_by(|&a, &b| window_steal[a].total_cmp(&window_steal[b]).then(a.cmp(&b)));
    order.truncate(window_steal.len().div_ceil(2));
    order.sort_unstable();
    order
}

fn drive(
    server: &Server,
    schedule: &Schedule,
    threads: usize,
    tally: &mut Tally,
) -> Result<Served, String> {
    let _spinners = idle::IdleSpinners::start(threads);
    for v in load::warm_up(server.addr, schedule, threads) {
        tally.note("warm-up route", &v);
    }
    let t0 = Instant::now() + Duration::from_millis(50);
    let (phases, window_steal) = std::thread::scope(|scope| {
        let steal = scope.spawn(|| sample_steal(t0, schedule.open_len));
        let phases = load::run_phases(server.addr, schedule, threads, t0, &schedule.oracle);
        (phases, steal.join().expect("steal sampler panicked"))
    });
    let metrics = http::request(
        server.addr,
        "GET",
        "/api/metrics",
        "",
        Duration::from_secs(10),
    )?;
    if metrics.status != 200 {
        return Err(format!("/api/metrics answered {}", metrics.status));
    }
    for r in &phases.open {
        tally.note("open-loop route", &r.verdict);
    }
    for r in &phases.closed {
        tally.note("closed-loop route", &r.verdict);
    }
    for t in &phases.traffic {
        tally.note("traffic delta", &t.verdict);
    }
    Ok(Served {
        peak_rss_mb: server.peak_rss_mb()?,
        counts: Scrape::parse(&metrics.body)?,
        phases,
        window_steal,
    })
}

/// Re-checks the oracle's sample against a fresh reference app.
fn check_oracle(
    reference: arp_demo::DemoApp,
    schedule: &Schedule,
    served: &Served,
    tally: &mut Tally,
) -> usize {
    let samples: Vec<oracle::Served> = served
        .phases
        .open
        .iter()
        .filter_map(|r| {
            let body = r.body.as_deref()?;
            let due = schedule.open[r.index?];
            Some(oracle::Served {
                request: &schedule.pairs[due.pair].body,
                body,
                epoch: r.epoch?,
            })
        })
        .collect();
    let n = samples.len();
    tally.attempted += n;
    match oracle::verify(&reference, samples, &served.phases.traffic) {
        Ok(checked) => checked,
        Err(mismatches) => {
            tally.failed += mismatches.len();
            tally.incorrect += mismatches.len();
            tally.errors.extend(mismatches);
            n
        }
    }
}

/// Work counts from `/api/metrics`, labelled as proxies (never time).
fn proxy_counts(c: &Scrape) -> Json {
    let mut fields: Vec<(String, Json)> = [
        ("cache_hits", "arp_serve_cache_hits_total"),
        ("cache_misses", "arp_serve_cache_misses_total"),
        (
            "cache_epoch_invalidations",
            "arp_serve_cache_epoch_invalidations_total",
        ),
        ("shed", "arp_serve_shed_total"),
        ("substrate_builds", "arp_substrate_builds_total"),
        ("ch_fallbacks", "arp_ch_fallbacks_total"),
        ("ch_customizations", "arp_ch_customizations_total"),
        ("journal_fsyncs", "arp_journal_fsyncs_total"),
        ("journal_bytes", "arp_journal_bytes_total"),
    ]
    .iter()
    .map(|&(k, m)| (k.to_string(), Json::Number(c.sum(m, &[]))))
    .collect();
    for slug in TECHNIQUE_SLUGS {
        let l = [("technique", slug)];
        fields.push((
            format!("{slug}.settled"),
            Json::Number(c.sum("arp_search_settled_nodes_total", &l)),
        ));
        fields.push((
            format!("{slug}.candidates"),
            Json::Number(c.sum("arp_technique_candidates_total", &l)),
        ));
        fields.push((
            format!("{slug}.admitted"),
            Json::Number(c.sum("arp_technique_admitted_total", &l)),
        ));
    }
    Json::object_of(fields)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metric(unit: &str, value: f64) -> Json {
    Json::object([("value", Json::Number(value)), ("unit", Json::str(unit))])
}

/// The per-layer metrics of a traced run. `route_p50_ms` and
/// `lag_p95_ms` come from the same run's end-to-end phases.
fn per_layer(
    t: &traced::TracedRun,
    d: &traced::Derived,
    route_p50_ms: f64,
    lag_p95_ms: f64,
) -> Vec<(String, Json)> {
    let mut metrics = Vec::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.push((name.to_string(), metric(unit, value)));
    };
    let handle = Summary::of(&t.handle_ms);
    put("setup.citygen_s", "s", t.setup.citygen_s);
    put("setup.processor_s", "s", t.setup.processor_s);
    put("setup.ch_index_s", "s", t.setup.ch_index_s);
    put("setup.recover_s", "s", t.setup.recover_s);
    put("server.handle_ms.p50", "ms", handle.p50);
    put("server.handle_ms.p95", "ms", handle.p95);
    put("render.geojson_ms", "ms", traced::p50(&d.render_ms));
    put("server.body_kb", "KB", traced::p50(&t.body_bytes) / 1024.0);
    put("wire.ms", "ms", route_p50_ms - handle.p50);
    let sc = &t.service_counts;
    put(
        "admission.shed_ratio",
        "ratio",
        ratio(sc.sum("arp_serve_shed_total", &[]), t.service_calls as f64),
    );
    let hits = sc.sum("arp_serve_cache_hits_total", &[]);
    let misses = sc.sum("arp_serve_cache_misses_total", &[]);
    put("cache.hit_ratio", "ratio", ratio(hits, hits + misses));
    put(
        "cache.epoch_invalidations",
        "count",
        sc.sum("arp_serve_cache_epoch_invalidations_total", &[]),
    );
    let wait = Summary::of(&d.pool_wait_ms);
    put("pool.wait_ms.p50", "ms", wait.p50);
    put("pool.wait_ms.p95", "ms", wait.p95);
    put("service.self_ms", "ms", traced::p50(&d.service_self_ms));
    put("assemble.ms", "ms", traced::p50(&d.assemble_ms));
    let prepare = Summary::of(&d.prepare_ms);
    put("prepare.ms.p50", "ms", prepare.p50);
    put("prepare.ms.p95", "ms", prepare.p95);
    let pc = &t.processor_counts;
    put(
        "prepare.ch_ratio",
        "ratio",
        1.0 - ratio(
            pc.sum("arp_ch_fallbacks_total", &[]),
            pc.sum("arp_substrate_builds_total", &[]),
        ),
    );
    for slug in TECHNIQUE_SLUGS {
        let lane = Summary::of(d.lane_ms.get(slug).map_or(&[][..], Vec::as_slice));
        put(&format!("lane.{slug}_ms.p50"), "ms", lane.p50);
        put(&format!("lane.{slug}_ms.p95"), "ms", lane.p95);
    }
    put("lane.critical_ms", "ms", traced::p50(&d.critical_ms));
    for slug in TECHNIQUE_SLUGS {
        let l = [("technique", slug)];
        put(
            &format!("lane.{slug}.settled"),
            "count",
            ratio(
                pc.sum("arp_search_settled_nodes_total", &l),
                pc.sum("arp_technique_calls_total", &l),
            ),
        );
        put(
            &format!("lane.{slug}.admit_ratio"),
            "ratio",
            ratio(
                pc.sum("arp_technique_admitted_total", &l),
                pc.sum("arp_technique_candidates_total", &l),
            ),
        );
    }
    put("traffic.apply_ms", "ms", traced::p50(&d.apply_ms));
    put(
        "traffic.fsyncs",
        "count",
        pc.sum("arp_journal_fsyncs_total", &[]),
    );
    put(
        "traffic.journal_bytes",
        "bytes",
        pc.sum("arp_journal_bytes_total", &[]),
    );
    put("index.customize_ms", "ms", traced::p50(&d.customize_ms));
    put("snap.us", "us", traced::p50(&d.snap_us));
    put("client.lag_p95_ms", "ms", lag_p95_ms);
    put(
        "traced.route_p50_ms",
        "ms",
        traced::p50(&t.traced_latency_ms),
    );
    metrics
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let w = &args.workload;
    let threads = nproc();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("out dir: {e}"))?;
    let scratch = args.out.join(format!(
        "{}-s{}-t{}",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch dir: {e}"))?;

    let city = arp_citygen::generate(w.city, w.scale, SERVER_SEED);
    let processor = QueryProcessor::new(city.name.clone(), city.network, SERVER_SEED);
    let schedule = workload::schedule(w, processor.network(), args.seed, args.seconds)?;
    let reference = oracle::reference(processor);

    let mut tally = Tally::default();
    // Start-ups are split around the measured phases (see `SETUP_GAP`);
    // each instance but the measured one is stopped before the next
    // starts.
    let reps = if args.trace { 1 } else { w.setup_reps };
    let before = reps.div_ceil(2);
    let mut setups = Vec::new();
    let mut start = |rep: usize| -> Result<Server, String> {
        if rep > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let s = Server::start(&args.arp, w, &scratch, &rep.to_string())?;
        setups.push(s.setup_s);
        Ok(s)
    };
    for rep in 0..before - 1 {
        drop(start(rep)?);
    }
    let server = start(before - 1)?;
    let cpu_before = CpuTimes::read();
    let served = drive(&server, &schedule, threads, &mut tally)?;
    let steal = steal_share(&cpu_before, &CpuTimes::read()).unwrap_or(0.0);
    drop(server);
    for rep in before..reps {
        drop(start(rep)?);
    }
    let oracle_checked = check_oracle(reference, &schedule, &served, &mut tally);

    let open = &served.phases.open;
    let ok_latency: Vec<f64> = open
        .iter()
        .filter(|r| r.verdict == Verdict::Ok)
        .map(|r| r.latency_ms)
        .collect();
    let route = Summary::of(&ok_latency);
    let clean = cleanest_half(&served.window_steal);
    let clean_latency: Vec<f64> = open
        .iter()
        .filter(|r| r.verdict == Verdict::Ok)
        .filter(|r| {
            let at = schedule.open[r.index.expect("open-loop index")].at;
            let window = (at.as_secs_f64() / STEAL_WINDOW.as_secs_f64()) as usize;
            clean.binary_search(&window).is_ok()
        })
        .map(|r| r.latency_ms)
        .collect();
    // Without a whole window (a very short run) every request counts.
    let route_p50 = if clean_latency.is_empty() {
        route.p50
    } else {
        Summary::of(&clean_latency).p50
    };
    let lag = Summary::of(&open.iter().map(|r| r.lag_ms).collect::<Vec<_>>());
    let within = |r: &&load::RouteResult| r.verdict == Verdict::Ok && r.latency_ms <= w.limit_ms;
    let slo_attain = ratio(open.iter().filter(within).count() as f64, open.len() as f64);
    let goodput = served
        .phases
        .closed
        .iter()
        .filter(|r| r.in_phase)
        .filter(within)
        .count() as f64
        / schedule.closed_len.as_secs_f64();
    let traffic_ms: Vec<f64> = served
        .phases
        .traffic
        .iter()
        .filter(|t| t.verdict == Verdict::Ok)
        .map(|t| t.latency_ms)
        .collect();
    let traffic = Summary::of(&traffic_ms);
    let (setup_q1, setup_s, setup_q3) = quartiles(&setups).expect("at least one start-up");

    // Printed with every run but not gated: on a shared virtual machine
    // these spread from run to run beyond the largest usable bound (see
    // perfbench/METHOD.md). `fail_ratio` is gated as `ok_ratio`, its
    // complement, because a gated metric must not read 0.
    let fail_ratio = ratio(tally.failed as f64, tally.attempted as f64);
    let ungated = Json::object([
        ("route_p95_ms", metric("ms", route.p95)),
        ("route_p50_all_windows_ms", metric("ms", route.p50)),
        ("goodput_rps", metric("1/s", goodput)),
        ("traffic_p50_ms", metric("ms", traffic.p50)),
        ("fail_ratio", metric("ratio", fail_ratio)),
    ]);
    let mut metrics: Vec<(String, Json)> = Vec::new();
    let traced_report = if !args.trace {
        let mut put = |name: &str, unit: &str, value: f64| {
            metrics.push((name.to_string(), metric(unit, value)));
        };
        put("setup_s", "s", setup_s);
        put("peak_rss_mb", "MB", served.peak_rss_mb);
        put("route_p50_ms", "ms", route_p50);
        put("slo_attain", "ratio", slo_attain);
        put("ok_ratio", "ratio", 1.0 - fail_ratio);
        Json::Null
    } else {
        let spinners = idle::IdleSpinners::start(threads);
        let t = traced::run(w, &schedule, threads, &scratch.join("traced-state"))?;
        drop(spinners);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        let spans_path = args
            .out
            .join(format!("spans-{}-s{}.tsv", w.name, args.seed));
        traced::write_spans(&spans_path, &t.spans).map_err(|e| format!("writing spans: {e}"))?;
        let d = traced::derive(&t.spans);
        metrics = per_layer(&t, &d, route_p50, lag.p95);
        Json::object([
            ("spans", Json::str(spans_path.display().to_string())),
            ("span_count", Json::from(t.spans.len() as u64)),
            ("handle_samples", Json::from(t.handle_ms.len() as u64)),
            (
                "traced_samples",
                Json::from(t.traced_latency_ms.len() as u64),
            ),
            ("prepare_samples", Json::from(d.prepare_ms.len() as u64)),
            ("customize_samples", Json::from(d.customize_ms.len() as u64)),
            ("skipped_epochs", Json::from(t.skipped_epochs as u64)),
            ("attempted", Json::from(t.attempted as u64)),
            ("failed", Json::from(t.failed as u64)),
        ])
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let report = Json::object([
        ("workload", Json::str(w.name)),
        (
            "mode",
            Json::str(if args.trace { "traced" } else { "end_to_end" }),
        ),
        (
            "provenance",
            Json::object([
                ("nproc", Json::from(threads as u64)),
                ("client_threads", Json::from(threads as u64)),
                ("rustc", Json::str(rustc_version())),
                ("source", Json::str(args.source_id.clone())),
                ("city", Json::str(w.city.name())),
                ("scale", Json::str(w.scale_arg())),
                ("server_seed", Json::from(SERVER_SEED)),
                ("seed", Json::from(args.seed)),
                ("seconds", Json::Number(args.seconds)),
                ("route_rps", Json::Number(w.route_rps)),
                ("traffic_hz", Json::Number(w.traffic_hz)),
                ("limit_ms", Json::Number(w.limit_ms)),
                ("pairs", Json::from(schedule.pairs.len() as u64)),
                ("steal_share", Json::Number(steal)),
                (
                    "window_steal_share",
                    Json::Array(
                        served
                            .window_steal
                            .iter()
                            .map(|&v| Json::Number(v))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "phases",
            Json::object([
                ("open_loop", phase_counts(open.iter().map(|r| &r.verdict))),
                (
                    "closed_loop",
                    phase_counts(served.phases.closed.iter().map(|r| &r.verdict)),
                ),
                (
                    "closed_loop_pairs_reused",
                    Json::from(served.phases.closed_reused as u64),
                ),
                (
                    "traffic",
                    phase_counts(served.phases.traffic.iter().map(|t| &t.verdict)),
                ),
            ]),
        ),
        (
            "setup_s",
            Json::object([
                (
                    "runs",
                    Json::Array(setups.iter().map(|&s| Json::Number(s)).collect()),
                ),
                ("q1", Json::Number(setup_q1)),
                ("median", Json::Number(setup_s)),
                ("q3", Json::Number(setup_q3)),
            ]),
        ),
        (
            "route_latency_ms",
            Json::object([
                ("n", Json::from(route.n as u64)),
                ("p50", Json::Number(route.p50)),
                ("p50_clean_windows", Json::Number(route_p50)),
                ("clean_windows", Json::from(clean.len() as u64)),
                ("p95", Json::Number(route.p95)),
                ("p95_supported", Json::Bool(route.p95_supported)),
                ("lag_p95", Json::Number(lag.p95)),
            ]),
        ),
        (
            "traffic_latency_ms",
            Json::object([
                ("n", Json::from(traffic.n as u64)),
                ("p50", Json::Number(traffic.p50)),
                (
                    "samples",
                    Json::Array(traffic_ms.iter().map(|&v| Json::Number(v)).collect()),
                ),
            ]),
        ),
        ("ungated_metrics", ungated),
        ("proxy_counts", proxy_counts(&served.counts)),
        ("oracle_checked", Json::from(oracle_checked as u64)),
        ("traced", traced_report),
        (
            "errors",
            Json::Array(
                tally
                    .errors
                    .iter()
                    .take(20)
                    .map(|e| Json::str(e.as_str()))
                    .collect(),
            ),
        ),
    ]);
    let report = report.to_string_compact();
    write_report(&args.out, w, args, &report)?;
    for e in tally.errors.iter().take(20) {
        eprintln!("arp-perfbench: {e}");
    }
    if !route.p95_supported && !args.trace {
        eprintln!(
            "arp-perfbench: only {} route samples; p95 needs {}",
            route.n,
            stats::samples_needed(0.95)
        );
    }
    if w.pairs == workload::Pairs::Distinct && served.phases.closed_reused > 0 {
        eprintln!(
            "arp-perfbench: the closed loop ran out of distinct pairs; {} requests repeated one (cache hits inflate goodput_rps)",
            served.phases.closed_reused
        );
    }
    let correct = tally.incorrect == 0;
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(tally.attempted as u64)),
        ("failed", Json::from(tally.failed as u64)),
        ("metrics", Json::object_of(metrics)),
    ]);
    println!("{report}");
    println!("{}", result.to_string_compact());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_report(out: &Path, w: &Workload, args: &Args, report: &str) -> Result<(), String> {
    let path = out.join(format!(
        "report-{}-s{}-t{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, report).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleanest_half_keeps_the_least_stolen_windows_in_order() {
        assert_eq!(cleanest_half(&[0.3, 0.0, 0.1, 0.0, 0.2]), vec![1, 2, 3]);
        assert_eq!(cleanest_half(&[0.0, 0.0, 0.0, 0.0]), vec![0, 1]);
        assert_eq!(cleanest_half(&[0.5]), vec![0]);
        assert!(cleanest_half(&[]).is_empty());
    }
}
