//! The traced run: the serving pipeline rebuilt in-process from public
//! functions, with every span recorded by this file around calls into the
//! program (nothing inside the program is instrumented for it).
//!
//! A `DemoApp` is built stage by stage (city, processor, durable traffic
//! state, CH index) with each stage timed. Its `processor` is shared with
//! a bench-side `RouteService<TimedBackend>`, where `TimedBackend` wraps
//! `DemoBackend` and records `prepare`, each lane's `compute_cancellable`
//! and `assemble`. The open-loop schedule is replayed at its due times:
//! even requests go through `DemoApp::handle` (the server without the
//! wire), odd ones through snap → traced service → GeoJSON render.
//! Spans are kept in memory and written out at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arp_demo::{
    response_to_geojson, ApproachRoutes, DemoApp, DemoBackend, PreparedQuery, QueryProcessor,
    QueryResponse,
};
use arp_obs::Registry;
use arp_serve::{
    CancelToken, Deadline, LaneError, LaneOutcome, LaneStatus, RouteBackend, RouteService,
    ServeConfig,
};
use arp_traffic::{DurabilityConfig, TrafficDelta};

use crate::load::check_route_body;
use crate::prom::Scrape;
use crate::stats::{covered, Summary};
use crate::workload::{Delta, Schedule, Workload, SERVER_SEED, WARMUP};

/// One recorded span. Times are µs since the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request id (the open-loop index; deltas use their own ids).
    pub req: u64,
    /// Span name (`request`, `snap`, `service`, `prepare`,
    /// `lane.<technique>`, `assemble`, `render`, `handle`, `apply`,
    /// `customize`).
    pub name: String,
    /// The name of the span that caused it (empty for roots).
    pub parent: &'static str,
    /// Start, µs.
    pub start: f64,
    /// End, µs.
    pub end: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start) / 1e3
    }
}

/// In-memory span sink shared by the client threads and pool workers.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    fn record(&self, req: u64, name: impl Into<String>, parent: &'static str, start: Instant) {
        let end = Instant::now();
        let span = Span {
            req,
            name: name.into(),
            parent,
            start: self.us(start),
            end: self.us(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }
}

/// A prepared query tagged with the request id its spans belong to.
#[derive(Clone)]
pub struct TimedRequest {
    inner: PreparedQuery,
    req: u64,
}

/// [`DemoBackend`] with a span around each stage the service calls.
pub struct TimedBackend {
    inner: DemoBackend,
    recorder: Arc<Recorder>,
}

impl RouteBackend for TimedBackend {
    type Request = TimedRequest;
    type Part = ApproachRoutes;
    type Response = QueryResponse;

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn lane_name(&self, lane: usize) -> String {
        self.inner.lane_name(lane)
    }

    fn lane_key(&self, request: &TimedRequest, lane: usize) -> String {
        self.inner.lane_key(&request.inner, lane)
    }

    fn prepare(
        &self,
        request: TimedRequest,
        token: &CancelToken,
        deadline: &Deadline,
    ) -> TimedRequest {
        let start = Instant::now();
        let inner = self.inner.prepare(request.inner, token, deadline);
        self.recorder
            .record(request.req, "prepare", "service", start);
        TimedRequest {
            inner,
            req: request.req,
        }
    }

    fn compute(&self, request: &TimedRequest, lane: usize) -> Result<ApproachRoutes, String> {
        let start = Instant::now();
        let out = self.inner.compute(&request.inner, lane);
        self.recorder.record(
            request.req,
            format!("lane.{}", self.lane_name(lane)),
            "service",
            start,
        );
        out
    }

    fn assemble(&self, request: &TimedRequest, parts: Vec<ApproachRoutes>) -> QueryResponse {
        let start = Instant::now();
        let out = self.inner.assemble(&request.inner, parts);
        self.recorder
            .record(request.req, "assemble", "service", start);
        out
    }

    fn compute_cancellable(
        &self,
        request: &TimedRequest,
        lane: usize,
        token: &CancelToken,
    ) -> Result<LaneOutcome<ApproachRoutes>, LaneError> {
        let start = Instant::now();
        let out = self.inner.compute_cancellable(&request.inner, lane, token);
        self.recorder.record(
            request.req,
            format!("lane.{}", self.lane_name(lane)),
            "service",
            start,
        );
        out
    }

    fn assemble_partial(
        &self,
        request: &TimedRequest,
        parts: Vec<Option<ApproachRoutes>>,
    ) -> Option<QueryResponse> {
        let start = Instant::now();
        let out = self.inner.assemble_partial(&request.inner, parts);
        self.recorder
            .record(request.req, "assemble", "service", start);
        out
    }

    fn assemble_degraded(
        &self,
        request: &TimedRequest,
        parts: Vec<Option<ApproachRoutes>>,
        statuses: &[LaneStatus],
    ) -> Option<QueryResponse> {
        let start = Instant::now();
        let out = self
            .inner
            .assemble_degraded(&request.inner, parts, statuses);
        self.recorder
            .record(request.req, "assemble", "service", start);
        out
    }

    fn trace_attrs(&self, request: &TimedRequest) -> Vec<(&'static str, String)> {
        self.inner.trace_attrs(&request.inner)
    }

    fn prepare_attrs(&self, request: &TimedRequest) -> Vec<(&'static str, String)> {
        self.inner.prepare_attrs(&request.inner)
    }
}

/// Set-up stages, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `arp_citygen::generate`.
    pub citygen_s: f64,
    /// `QueryProcessor::new` (spatial index, providers).
    pub processor_s: f64,
    /// `with_traffic_durability` on a fresh directory.
    pub recover_s: f64,
    /// `with_ch_index` (contraction and first customization).
    pub ch_index_s: f64,
}

/// What the traced run measured.
pub struct TracedRun {
    /// Set-up stage times.
    pub setup: SetupTimes,
    /// Every span, in completion order.
    pub spans: Vec<Span>,
    /// `DemoApp::handle` wall time per even request, ms.
    pub handle_ms: Vec<f64>,
    /// Body size per even request, bytes.
    pub body_bytes: Vec<f64>,
    /// Due time to completion of each odd (traced) request, ms.
    pub traced_latency_ms: Vec<f64>,
    /// Route operations that failed (status, contract or pipeline error).
    pub failed: usize,
    /// Route and delta operations attempted.
    pub attempted: usize,
    /// Timed-service route calls.
    pub service_calls: usize,
    /// Epochs the CH index never published because a later one overtook
    /// them (or that were not covered within 30 s).
    pub skipped_epochs: usize,
    /// The processor's registry at the end (technique, substrate, CH,
    /// journal counters, both pipelines).
    pub processor_counts: Scrape,
    /// The bench-side service's registry (its cache and admission).
    pub service_counts: Scrape,
}

/// Builds the app stage by stage, timing each stage.
fn build_app(w: &Workload, state_dir: &Path) -> Result<(DemoApp, SetupTimes), String> {
    let mut setup = SetupTimes::default();
    let t = Instant::now();
    let city = arp_citygen::generate(w.city, w.scale, SERVER_SEED);
    setup.citygen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let processor = QueryProcessor::new(city.name.clone(), city.network, SERVER_SEED);
    setup.processor_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let processor = processor
        .with_traffic_durability(DurabilityConfig::new(state_dir))
        .map_err(|e| format!("traffic recovery failed: {e}"))?;
    setup.recover_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let processor = processor.with_ch_index();
    setup.ch_index_s = t.elapsed().as_secs_f64();
    Ok((
        DemoApp::with_config(processor, ServeConfig::default()),
        setup,
    ))
}

/// Delta ids live above every route id.
const DELTA_REQ_BASE: u64 = 1 << 40;

/// Applies one delta at its due time, recording `apply`; the watcher
/// then records how long the CH index took to catch up.
fn apply_delta(
    app: &DemoApp,
    timed: &RouteService<TimedBackend>,
    recorder: &Recorder,
    watcher: &mpsc::Sender<(u64, u64, Instant)>,
    id: u64,
    delta: &Delta,
    due: Instant,
) -> bool {
    wait_until(due);
    let Ok(parsed) = TrafficDelta::parse(&delta.text) else {
        return false;
    };
    let start = Instant::now();
    let outcome = app.processor.traffic().apply_delta(&parsed);
    recorder.record(id, "apply", "", start);
    let applied = Instant::now();
    app.service().note_epoch_invalidations();
    timed.note_epoch_invalidations();
    match outcome {
        Ok(o) => {
            let _ = watcher.send((id, o.epoch, applied));
            true
        }
        Err(_) => false,
    }
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs the traced replay of `schedule` for `w` on `threads` clients.
pub fn run(
    w: &Workload,
    schedule: &Schedule,
    threads: usize,
    state_dir: &Path,
) -> Result<TracedRun, String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let (app, setup) = build_app(w, state_dir)?;
    let recorder = Arc::new(Recorder::new());
    let service_registry = Registry::new();
    let timed = RouteService::new(
        TimedBackend {
            inner: DemoBackend::new(Arc::clone(&app.processor)),
            recorder: Arc::clone(&recorder),
        },
        ServeConfig::default(),
        &service_registry,
    );
    let net = app.processor.network();
    let traced_route = |req: u64, pair: usize| -> Result<(), String> {
        let p = &schedule.pairs[pair];
        let start = Instant::now();
        let t = Instant::now();
        let snapped = app
            .processor
            .snap(net.point(p.source), net.point(p.target))
            .map_err(|e| e.to_string())?;
        recorder.record(req, "snap", "request", t);
        let t = Instant::now();
        let (_, outcome) = timed.route_traced(TimedRequest {
            inner: app.processor.prepare_query(snapped),
            req,
        });
        recorder.record(req, "service", "request", t);
        let response = outcome.map_err(|e| e.to_string())?;
        let t = Instant::now();
        std::hint::black_box(response_to_geojson(&response));
        recorder.record(req, "render", "request", t);
        recorder.record(req, "request", "", start);
        if response.degraded || response.truncated || response.approaches.len() != 4 {
            return Err("degraded, truncated or missing lanes".into());
        }
        Ok(())
    };
    let handled = |pair: usize| -> Result<(f64, f64), String> {
        let t = Instant::now();
        let resp = app.handle("POST", "/api/route", &schedule.pairs[pair].body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if resp.status != 200 {
            return Err(format!("status {}", resp.status));
        }
        check_route_body(&resp.body)?;
        Ok((ms, resp.body.len() as f64))
    };
    let (watch_tx, watch_rx) = mpsc::channel::<(u64, u64, Instant)>();
    let index = app.processor.ch_index().ok_or("CH index missing")?;
    let threads = threads.max(1);
    let mut run = TracedRun {
        setup,
        spans: Vec::new(),
        handle_ms: Vec::new(),
        body_bytes: Vec::new(),
        traced_latency_ms: Vec::new(),
        failed: 0,
        attempted: 0,
        service_calls: 0,
        skipped_epochs: 0,
        processor_counts: Scrape::default(),
        service_counts: Scrape::default(),
    };
    std::thread::scope(|scope| {
        // Index catch-up: from apply's return until the index publishes a
        // metric for that epoch or a later one. The customizer keeps only
        // the newest pending epoch, so an epoch overtaken before it was
        // customized is counted as skipped, and timed to the publish that
        // covered it.
        let watcher = scope.spawn(|| {
            let mut skipped = 0;
            for (id, epoch, applied) in watch_rx {
                let give_up = applied + Duration::from_secs(30);
                // `wait_ready` wakes on an exact publish; the short timeout
                // notices an overtaking one.
                while !index.wait_ready(epoch, Duration::from_millis(1))
                    && index.ready_epoch() < epoch
                    && Instant::now() < give_up
                {}
                let ready = index.ready_epoch();
                if ready >= epoch {
                    recorder.record(id, "customize", "apply", applied);
                }
                if ready != epoch {
                    skipped += 1;
                }
            }
            skipped
        });
        // Warm up through `handle` only: the traced service starts with an
        // empty cache, so even on the repeat-heavy workload its first
        // request per pair records every stage.
        let warm_end = Instant::now() + WARMUP;
        for (n, &pair) in schedule.warmup.iter().cycle().enumerate() {
            if n >= schedule.warmup.len() && Instant::now() >= warm_end {
                break;
            }
            run.attempted += 1;
            if handled(pair).is_err() {
                run.failed += 1;
            }
        }
        let t0 = Instant::now() + Duration::from_millis(20);
        let clients: Vec<_> = (0..threads)
            .map(|k| {
                let watch_tx = watch_tx.clone();
                let (traced_route, handled, app, timed, recorder) =
                    (&traced_route, &handled, &app, &timed, &recorder);
                scope.spawn(move || {
                    let mine: &[Delta] = if k == 0 { &schedule.live_deltas } else { &[] };
                    let mut deltas = mine.iter().enumerate().peekable();
                    let mut out = ClientTally::default();
                    for (i, due) in schedule.open.iter().enumerate().skip(k).step_by(threads) {
                        let due_at = t0 + due.at;
                        while let Some((j, d)) = deltas.next_if(|(_, d)| t0 + d.at <= due_at) {
                            out.attempted += 1;
                            let id = DELTA_REQ_BASE + j as u64;
                            if !apply_delta(app, timed, recorder, &watch_tx, id, d, t0 + d.at) {
                                out.failed += 1;
                            }
                        }
                        wait_until(due_at);
                        out.attempted += 1;
                        if i % 2 == 0 {
                            match handled(due.pair) {
                                Ok((ms, bytes)) => {
                                    out.handle_ms.push(ms);
                                    out.body_bytes.push(bytes);
                                }
                                Err(_) => out.failed += 1,
                            }
                        } else {
                            out.service_calls += 1;
                            match traced_route(i as u64, due.pair) {
                                Ok(()) => out.traced_latency_ms.push(
                                    Instant::now()
                                        .saturating_duration_since(due_at)
                                        .as_secs_f64()
                                        * 1e3,
                                ),
                                Err(_) => out.failed += 1,
                            }
                        }
                    }
                    for (j, d) in deltas {
                        out.attempted += 1;
                        let id = DELTA_REQ_BASE + j as u64;
                        if !apply_delta(app, timed, recorder, &watch_tx, id, d, t0 + d.at) {
                            out.failed += 1;
                        }
                    }
                    out
                })
            })
            .collect();
        for client in clients {
            let tally = client.join().expect("traced client panicked");
            run.attempted += tally.attempted;
            run.failed += tally.failed;
            run.service_calls += tally.service_calls;
            run.handle_ms.extend(tally.handle_ms);
            run.body_bytes.extend(tally.body_bytes);
            run.traced_latency_ms.extend(tally.traced_latency_ms);
        }
        // Workloads without live deltas time the traffic layer here, after
        // every measured request.
        let layer_t0 = Instant::now();
        for (j, d) in schedule.layer_deltas.iter().enumerate() {
            run.attempted += 1;
            let id = DELTA_REQ_BASE + (schedule.live_deltas.len() + j) as u64;
            if !apply_delta(&app, &timed, &recorder, &watch_tx, id, d, layer_t0 + d.at) {
                run.failed += 1;
            }
        }
        drop(watch_tx);
        run.skipped_epochs = watcher.join().expect("index watcher panicked");
    });
    run.spans = std::mem::take(&mut *recorder.spans.lock().expect("span sink poisoned"));
    run.processor_counts = Scrape::parse(&app.processor.registry().render_prometheus())?;
    run.service_counts = Scrape::parse(&service_registry.render_prometheus())?;
    Ok(run)
}

#[derive(Default)]
struct ClientTally {
    attempted: usize,
    failed: usize,
    service_calls: usize,
    handle_ms: Vec<f64>,
    body_bytes: Vec<f64>,
    traced_latency_ms: Vec<f64>,
}

/// Per-stage samples derived from the spans.
#[derive(Default)]
pub struct Derived {
    /// `prepare` durations, ms.
    pub prepare_ms: Vec<f64>,
    /// Lane start − prepare end, ms.
    pub pool_wait_ms: Vec<f64>,
    /// Per technique slug: lane durations, ms.
    pub lane_ms: BTreeMap<String, Vec<f64>>,
    /// Slowest lane per request, ms.
    pub critical_ms: Vec<f64>,
    /// `assemble` durations, ms.
    pub assemble_ms: Vec<f64>,
    /// `service` span minus what its children cover, ms.
    pub service_self_ms: Vec<f64>,
    /// `snap` durations, µs.
    pub snap_us: Vec<f64>,
    /// `render` durations, ms.
    pub render_ms: Vec<f64>,
    /// `apply` durations, ms.
    pub apply_ms: Vec<f64>,
    /// `customize` durations (apply return → index ready), ms.
    pub customize_ms: Vec<f64>,
}

/// Groups spans by request and derives per-stage samples and self times.
pub fn derive(spans: &[Span]) -> Derived {
    let mut by_req: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().push(s);
    }
    let mut d = Derived::default();
    for spans in by_req.values() {
        let find = |name: &str| spans.iter().find(|s| s.name == name);
        let prepare = find("prepare");
        if let Some(p) = prepare {
            d.prepare_ms.push(p.ms());
        }
        let lanes: Vec<&&Span> = spans
            .iter()
            .filter(|s| s.name.starts_with("lane."))
            .collect();
        for lane in &lanes {
            d.lane_ms
                .entry(lane.name["lane.".len()..].to_string())
                .or_default()
                .push(lane.ms());
            if let Some(p) = prepare {
                d.pool_wait_ms.push(((lane.start - p.end) / 1e3).max(0.0));
            }
        }
        if let Some(max) = lanes.iter().map(|l| l.ms()).max_by(f64::total_cmp) {
            d.critical_ms.push(max);
        }
        if let Some(a) = find("assemble") {
            d.assemble_ms.push(a.ms());
        }
        if let Some(service) = find("service") {
            let mut children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| s.parent == "service")
                .map(|s| (s.start.max(service.start), s.end.min(service.end)))
                .filter(|(a, b)| b > a)
                .collect();
            d.service_self_ms
                .push((service.end - service.start - covered(&mut children)) / 1e3);
        }
        if let Some(s) = find("snap") {
            d.snap_us.push(s.end - s.start);
        }
        if let Some(r) = find("render") {
            d.render_ms.push(r.ms());
        }
        if let Some(a) = find("apply") {
            d.apply_ms.push(a.ms());
        }
        if let Some(c) = find("customize") {
            d.customize_ms.push(c.ms());
        }
    }
    d
}

/// Writes spans as tab-separated `req name parent start_us end_us`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tname\tparent\tstart_us\tend_us")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{:.1}\t{:.1}",
            s.req, s.name, s.parent, s.start, s.end
        )?;
    }
    out.flush()
}

/// p50 of a sample (0 when empty).
pub fn p50(v: &[f64]) -> f64 {
    Summary::of(v).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, name: &str, parent: &'static str, start: f64, end: f64) -> Span {
        Span {
            req,
            name: name.to_string(),
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, "service", "request", 0.0, 10_000.0),
            span(1, "prepare", "service", 1_000.0, 3_000.0),
            // Two lanes in parallel: 3.5–7 ms covered once, not twice.
            span(1, "lane.penalty", "service", 3_500.0, 6_000.0),
            span(1, "lane.plateaus", "service", 4_000.0, 7_000.0),
            span(1, "assemble", "service", 8_000.0, 8_500.0),
            span(2, "apply", "", 0.0, 2_000.0),
        ];
        let d = derive(&spans);
        assert_eq!(d.service_self_ms, vec![10.0 - 2.0 - 3.5 - 0.5]);
        assert_eq!(d.prepare_ms, vec![2.0]);
        assert_eq!(d.pool_wait_ms, vec![0.5, 1.0]);
        assert_eq!(d.critical_ms, vec![3.0]);
        assert_eq!(d.lane_ms["penalty"], vec![2.5]);
        assert_eq!(d.assemble_ms, vec![0.5]);
        assert_eq!(d.apply_ms, vec![2.0]);
    }
}
