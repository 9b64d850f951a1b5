//! `serve_cold` and `serve_session`: the estimation service over HTTP,
//! closed loop, against an in-process server with two workers.
//!
//! Both workloads run in *epochs*: boot a fresh server (one `setup_s`
//! sample), issue a fixed number of ops, shut it down. Epochs repeat
//! until the window is spent. A fixed op count per server bounds the
//! artifacts a server retains; `peak_rss_mb` is read when the first epoch
//! ends, so it does not scale with how fast the host ran. Traced runs
//! use the same epochs and replay each op in-process right after its
//! HTTP reply, timing every public layer call.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tlm_json::Value;
use tlm_pipeline::Pipeline;
use tlm_serve::http::{HttpLimits, Request};
use tlm_serve::metrics::Metrics;
use tlm_serve::protocol::Service;
use tlm_serve::{Server, ServerConfig, ServerHandle};
use tlm_session::{SessionStore, SourceEdit, SweepPoint};

use crate::client::{Client, Reply};
use crate::host;
use crate::inputs::{
    cold_request, session_create_body, session_edit, session_edit_body, ColdRequest,
    SessionProgram, SWEEP_POINTS,
};
use crate::report::{EndToEnd, Opts, Report};
use crate::stats::ms;

/// Requests per `serve_cold` epoch (one server lifetime).
pub const COLD_EPOCH_REQUESTS: u64 = 400;
/// Edits per `serve_session` epoch; above the server's 1024-request
/// keep-alive cap, so every epoch reopens its connection once.
pub const SESSION_EPOCH_EDITS: u64 = 1200;
/// Client connections (and threads) of `serve_cold`.
const COLD_CONNECTIONS: usize = 2;
/// Server worker threads.
const SERVER_WORKERS: usize = 2;
/// Set-ups timed per epoch; the last one serves the epoch's ops. Several
/// samples per epoch keep the `setup_s` median clear of the occasional
/// tens-of-ms scheduling stall a shared VM inflicts on a fresh connection.
const SETUPS_PER_EPOCH: usize = 3;

/// Boots a fresh in-process server and waits for `/readyz` to answer 200.
fn boot() -> Result<ServerHandle, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    };
    let queue = config.queue;
    let handle = Server::start(config, Service::new(queue)).map_err(|e| format!("boot: {e}"))?;
    let mut client = Client::new(handle.addr());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.request("GET", "/readyz", b"") {
            Ok(reply) if reply.status == 200 => return Ok(handle),
            _ if Instant::now() > deadline => {
                handle.shutdown();
                return Err("server never became ready".into());
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Runs `make` [`SETUPS_PER_EPOCH`] times, timing each into `samples`;
/// tears all but the last down with `discard` and returns the last.
fn timed_setups<T>(
    samples: &mut Vec<f64>,
    mut make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..SETUPS_PER_EPOCH {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let start = Instant::now();
        kept = Some(make()?);
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(kept.expect("at least one set-up ran"))
}

fn parse_json(bytes: &[u8]) -> Option<Value> {
    tlm_json::parse(std::str::from_utf8(bytes).ok()?).ok()
}

/// `/estimate` answered 200 with one report per sweep point.
fn cold_reply_ok(reply: &Reply) -> bool {
    reply.status == 200
        && parse_json(&reply.body)
            .and_then(|v| v.get("sweep")?.as_array().map(|s| s.len() as u64 == SWEEP_POINTS))
            .unwrap_or(false)
}

/// An in-process request, as the server's event loop hands it to a worker.
fn request(method: &str, target: &str, body: &[u8]) -> Request {
    Request {
        method: method.into(),
        target: target.into(),
        headers: Vec::new(),
        body: body.to_vec(),
        keep_alive: true,
    }
}

/// Latency of one HTTP op and whether it passed its check.
struct Op {
    latency_ms: f64,
    ok: bool,
}

/// Issues `requests` over [`COLD_CONNECTIONS`] keep-alive connections;
/// returns the ops and the wall time from the first send to the last
/// reply.
fn cold_epoch(addr: SocketAddr, requests: &[ColdRequest]) -> (Vec<Op>, f64) {
    let next = AtomicU64::new(0);
    let ops = Mutex::new(Vec::with_capacity(requests.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..COLD_CONNECTIONS {
            s.spawn(|| {
                let mut client = Client::new(addr);
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(i as usize) else { break };
                    let sent = Instant::now();
                    let reply = client.request("POST", "/estimate", req.body.as_bytes());
                    let latency_ms = ms(sent.elapsed());
                    let ok = match reply {
                        Ok(reply) => cold_reply_ok(&reply),
                        Err(e) => {
                            eprintln!("serve_cold: request {i}: {e}");
                            false
                        }
                    };
                    mine.push(Op { latency_ms, ok });
                }
                ops.lock().expect("op log poisoned").extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (ops.into_inner().expect("op log poisoned"), wall)
}

/// Per-op layer times of one cold body replayed on `pipeline`.
#[derive(Debug, Default, Clone, Copy)]
struct ColdLayers {
    json: f64,
    ast: f64,
    lower: f64,
    decode: f64,
    prepare: f64,
    annotate: f64,
    report: f64,
}

impl ColdLayers {
    fn sum(&self) -> f64 {
        self.json + self.ast + self.lower + self.decode + self.prepare + self.annotate + self.report
    }
}

/// Replays one cold request through the pipeline's public stage calls,
/// timing each: parse JSON → parse MiniC → lower → decode platform →
/// prepare → Algorithms 1/2 over the sweep → per-point reports.
fn replay_cold(pipeline: &Pipeline, req: &ColdRequest) -> Result<ColdLayers, String> {
    let mut t = ColdLayers::default();
    let start = Instant::now();
    let root = tlm_json::parse(&req.body).map_err(|e| format!("json: {e}"))?;
    t.json = ms(start.elapsed());
    let start = Instant::now();
    pipeline.ast(&req.source).map_err(|e| format!("parse: {e}"))?;
    t.ast = ms(start.elapsed());
    let start = Instant::now();
    let artifact = pipeline.frontend(&req.source).map_err(|e| format!("lower: {e}"))?;
    t.lower = ms(start.elapsed());
    let platform = root.get("platform").ok_or("no platform")?;
    let start = Instant::now();
    let design = pipeline.design_from_value(platform).map_err(|e| format!("decode: {e}"))?;
    t.decode = ms(start.elapsed());
    let start = Instant::now();
    pipeline.prepared(&artifact).map_err(|e| format!("prepare: {e}"))?;
    t.prepare = ms(start.elapsed());
    let sweep = root.get("sweep").and_then(Value::as_array).ok_or("no sweep")?;
    let start = Instant::now();
    let mut pums = Vec::with_capacity(sweep.len());
    for point in sweep {
        let size = |k: &str| point.get(k).and_then(Value::as_u64).unwrap_or(0) as u32;
        let pum = design.platform.pes[0].pum.with_cache_sizes(size("icache"), size("dcache"));
        pipeline.annotated(&artifact, &pum).map_err(|e| format!("annotate: {e}"))?;
        pums.push(pum);
    }
    t.annotate = ms(start.elapsed());
    let start = Instant::now();
    for pum in &pums {
        pipeline.process_report(&artifact, pum).map_err(|e| format!("report: {e}"))?;
    }
    t.report = ms(start.elapsed());
    Ok(t)
}

/// Runs `serve_cold`.
///
/// # Errors
///
/// The server cannot boot, or an in-process replay fails.
pub fn run_cold(opts: &Opts) -> Result<Report, String> {
    if opts.trace {
        return trace_cold(opts);
    }
    let mut calib = vec![host::calib_ms(), host::calib_ms(), host::calib_ms()];
    let mut setup_s = Vec::new();
    let mut ops = Vec::new();
    let mut epoch_rates = Vec::new();
    let mut peak_rss = None;
    let window = Instant::now();
    let mut epoch = 0u64;
    while epoch == 0 || window.elapsed().as_secs_f64() < opts.seconds as f64 {
        let first = epoch * COLD_EPOCH_REQUESTS;
        let requests: Vec<ColdRequest> =
            (first..first + COLD_EPOCH_REQUESTS).map(|i| cold_request(opts.seed, i)).collect();
        let server = timed_setups(&mut setup_s, boot, ServerHandle::shutdown)?;
        let (epoch_ops, epoch_wall) = cold_epoch(server.addr(), &requests);
        peak_rss.get_or_insert_with(host::peak_rss_mb);
        server.shutdown();
        let ok = epoch_ops.iter().filter(|op| op.ok).count();
        epoch_rates.push(ok as f64 / epoch_wall);
        ops.extend(epoch_ops);
        epoch += 1;
    }
    calib.extend([host::calib_ms(), host::calib_ms(), host::calib_ms()]);
    let attempted = ops.len() as u64;
    let failed = ops.iter().filter(|op| !op.ok).count() as u64;
    let latency: Vec<f64> = ops.iter().map(|op| op.latency_ms).collect();
    eprintln!(
        "serve_cold: {attempted} requests, {epoch} epochs, per-epoch throughput {epoch_rates:.1?}"
    );
    let mut report = Report::new(attempted, failed);
    report.end_to_end(&EndToEnd {
        setup_s: &setup_s,
        rates: &epoch_rates,
        latency_ms: &latency,
        peak_rss_mb: peak_rss.flatten(),
        error_pct: crate::accuracy::cold_error_pct()?,
    })?;
    eprintln!("serve_cold: host.calib_ms {calib:?}");
    Ok(report)
}

/// The traced `serve_cold` run: epochs of requests sent one at a time.
/// Right after each HTTP reply the same body is replayed on a fresh
/// pipeline (the public stage calls) and on a fresh service
/// (`Service::handle`), so the layer times and the client latency they
/// are subtracted from are taken under the same host conditions.
fn trace_cold(opts: &Opts) -> Result<Report, String> {
    let mut calib = vec![host::calib_ms(), host::calib_ms(), host::calib_ms()];
    let max_body = HttpLimits::default().max_body_bytes;
    let mut layers = Vec::new();
    let (mut handle_ms, mut wire_ms, mut unattributed_ms, mut share) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut schedule_misses, mut module_misses, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failed, mut mismatched, mut sched_hits, mut sched_lookups) = (0u64, 0u64, 0u64, 0u64);
    let window = Instant::now();
    let mut epoch = 0u64;
    while epoch == 0 || window.elapsed().as_secs_f64() < opts.seconds as f64 {
        let first = epoch * COLD_EPOCH_REQUESTS;
        let requests: Vec<ColdRequest> =
            (first..first + COLD_EPOCH_REQUESTS).map(|i| cold_request(opts.seed, i)).collect();
        let server = boot()?;
        let mut client = Client::new(server.addr());
        let pipeline = Pipeline::new();
        let service = Service::new(64);
        let metrics = Metrics::new();
        for req in &requests {
            let sent = Instant::now();
            let reply = client.request("POST", "/estimate", req.body.as_bytes());
            let latency = ms(sent.elapsed());
            let reply = reply.map_err(|e| format!("traced request: {e}"))?;
            if !cold_reply_ok(&reply) {
                failed += 1;
            }

            let before = pipeline.stats();
            let t = replay_cold(&pipeline, req)?;
            let after = pipeline.stats();
            schedule_misses.push((after.schedules.misses - before.schedules.misses) as f64);
            module_misses.push((after.module.misses - before.module.misses) as f64);
            sched_hits += after.schedules.hits - before.schedules.hits;
            sched_lookups += after.schedules.hits - before.schedules.hits + after.schedules.misses
                - before.schedules.misses;

            let start = Instant::now();
            let resp = service.handle(
                &request("POST", "/estimate", req.body.as_bytes()),
                &metrics,
                max_body,
                false,
            );
            let handle = ms(start.elapsed());
            if resp.status != 200 || resp.body != reply.body {
                mismatched += 1;
            }
            bytes.push(resp.body.len() as f64);
            handle_ms.push(handle);
            wire_ms.push(latency - handle);
            unattributed_ms.push(handle - t.sum());
            share.push((t.sum() + latency - handle) / latency);
            layers.push(t);
        }
        drop(client);
        server.shutdown();
        epoch += 1;
    }
    calib.extend([host::calib_ms(), host::calib_ms(), host::calib_ms()]);

    let mut report = Report::new(layers.len() as u64, failed);
    if mismatched > 0 {
        eprintln!("serve_cold: {mismatched} HTTP bodies differ from in-process Service::handle");
        report.correct = false;
    }
    let layer = |f: fn(&ColdLayers) -> f64| layers.iter().map(f).collect::<Vec<_>>();
    report.median("json.parse_ms", &layer(|t| t.json), "ms");
    report.median("minic.parse_ms", &layer(|t| t.ast), "ms");
    report.median("cdfg.lower_ms", &layer(|t| t.lower), "ms");
    report.median("platform.decode_ms", &layer(|t| t.decode), "ms");
    report.median("pipeline.prepare_ms", &layer(|t| t.prepare), "ms");
    report.median("core.annotate_ms", &layer(|t| t.annotate), "ms");
    report.median("pipeline.report_ms", &layer(|t| t.report), "ms");
    report.median("serve.handle_ms", &handle_ms, "ms");
    report.median("serve.wire_ms", &wire_ms, "ms");
    report.median("core.schedule_misses", &schedule_misses, "count");
    report.metric(
        "core.schedule_hit_ratio",
        sched_hits as f64 / sched_lookups.max(1) as f64,
        "ratio",
    );
    report.median("pipeline.module.misses", &module_misses, "count");
    report.median("serve.response_bytes", &bytes, "bytes");
    report.median("unattributed_ms", &unattributed_ms, "ms");
    report.median("attributed_share", &share, "ratio");
    report.median("host.calib_ms", &calib, "ms");
    Ok(report)
}

/// A booted server holding one freshly created session.
struct SessionServer {
    server: ServerHandle,
    client: Client,
    id: u64,
}

impl SessionServer {
    /// Closes the client connection, then shuts the server down.
    fn close(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// Boots a server and creates the seed's session on it.
fn session_setup(create: &str) -> Result<SessionServer, String> {
    let server = boot()?;
    let mut client = Client::new(server.addr());
    let reply = client.request("POST", "/session", create.as_bytes());
    let id = match &reply {
        Ok(r) if r.status == 200 => parse_json(&r.body).and_then(|v| v.get("session")?.as_u64()),
        _ => None,
    };
    match id {
        Some(id) => Ok(SessionServer { server, client, id }),
        None => {
            drop(client);
            server.shutdown();
            Err(format!("session create failed: {:?}", reply.map(|r| r.status)))
        }
    }
}

/// The `edit` object of an edit reply, if it answered 200.
fn edit_dirty_functions(reply: &Reply) -> Option<u64> {
    if reply.status != 200 {
        return None;
    }
    parse_json(&reply.body)?.get("edit")?.get("dirty_functions")?.as_u64()
}

/// Per-edit replica state of a traced `serve_session` run: a fresh
/// service driven through `Service::handle`, and a fresh pipeline and
/// session store driven through `SessionStore::edit`.
struct SessionReplica {
    service: Service,
    metrics: Metrics,
    pipeline: Pipeline,
    store: SessionStore,
    store_id: u64,
    /// The edit target of the service's copy of the session.
    target: String,
}

impl SessionReplica {
    fn new(create: &str) -> Result<SessionReplica, String> {
        let service = Service::new(64);
        let metrics = Metrics::new();
        let max_body = HttpLimits::default().max_body_bytes;
        let resp = service.handle(
            &request("POST", "/session", create.as_bytes()),
            &metrics,
            max_body,
            false,
        );
        let id = (resp.status == 200)
            .then(|| parse_json(&resp.body)?.get("session")?.as_u64())
            .flatten()
            .ok_or_else(|| format!("replica session create answered {}", resp.status))?;
        let pipeline = Pipeline::new();
        let root = tlm_json::parse(create).map_err(|e| format!("create body: {e}"))?;
        let design = pipeline
            .design_from_value(root.get("platform").ok_or("no platform")?)
            .map_err(|e| format!("replica design: {e}"))?;
        let sweep = root
            .get("sweep")
            .and_then(Value::as_array)
            .ok_or("no sweep")?
            .iter()
            .map(|p| {
                let size = |k: &str| p.get(k).and_then(Value::as_u64).unwrap_or(0) as u32;
                SweepPoint {
                    label: p.get("label").and_then(Value::as_str).unwrap_or_default().to_string(),
                    icache: size("icache"),
                    dcache: size("dcache"),
                }
            })
            .collect();
        let store = SessionStore::new(
            tlm_serve::protocol::DEFAULT_SESSION_BUDGET,
            tlm_serve::protocol::DEFAULT_SESSION_TTL,
        );
        let (store_id, _) =
            store.create(&pipeline, &design, sweep, false).map_err(|e| format!("replica: {e}"))?;
        let target = format!("/session/{id}/edit");
        Ok(SessionReplica { service, metrics, pipeline, store, store_id, target })
    }
}

/// Layer times and counts of one traced edit.
#[derive(Debug, Default, Clone, Copy)]
struct EditTrace {
    latency: f64,
    json: f64,
    edit: f64,
    handle: f64,
    dirty_functions: f64,
    dirty_blocks: f64,
    rows_misses: f64,
    schedule_misses: f64,
}

/// Runs `serve_session`.
///
/// # Errors
///
/// The server cannot boot or the session cannot be created.
pub fn run_session(opts: &Opts) -> Result<Report, String> {
    let mut calib = vec![host::calib_ms(), host::calib_ms(), host::calib_ms()];
    let initial = SessionProgram::initial(opts.seed);
    let create = session_create_body(&initial);
    let max_body = HttpLimits::default().max_body_bytes;
    let mut setup_s = Vec::new();
    let mut latency = Vec::new();
    let mut traces = Vec::new();
    let (mut attempted, mut failed, mut reopens) = (0u64, 0u64, 0u64);
    let mut epoch_rates = Vec::new();
    let mut peak_rss = None;
    let mut correct = true;
    let window = Instant::now();
    let mut epoch = 0u64;
    while epoch == 0 || window.elapsed().as_secs_f64() < opts.seconds as f64 {
        let SessionServer { server, mut client, id } =
            timed_setups(&mut setup_s, || session_setup(&create), SessionServer::close)?;
        let mut replica = if opts.trace { Some(SessionReplica::new(&create)?) } else { None };
        let mut program = initial.clone();
        let first = epoch * SESSION_EPOCH_EDITS;
        let target = format!("/session/{id}/edit");
        let start_epoch = Instant::now();
        let (attempted_before, failed_before) = (attempted, failed);
        for i in first..first + SESSION_EPOCH_EDITS {
            let (f, body) = session_edit(opts.seed, i);
            program.bodies[f] = body;
            let source = program.source();
            let edit_body = session_edit_body(&source);
            attempted += 1;
            let sent = Instant::now();
            let reply = client.request("POST", &target, edit_body.as_bytes());
            let latency_ms = ms(sent.elapsed());
            latency.push(latency_ms);
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    eprintln!("serve_session: edit {i}: {e}");
                    failed += 1;
                    continue;
                }
            };
            if edit_dirty_functions(&reply) != Some(1) {
                failed += 1;
            }
            if let Some(r) = replica.as_mut() {
                let mut t = EditTrace { latency: latency_ms, ..EditTrace::default() };
                let start = Instant::now();
                let root = tlm_json::parse(&edit_body).map_err(|e| format!("edit body: {e}"))?;
                t.json = ms(start.elapsed());
                let source = root.get("source").and_then(Value::as_str).ok_or("no source")?;
                let before = r.pipeline.stats();
                let start = Instant::now();
                let edited =
                    r.store.edit(&r.pipeline, r.store_id, "main", &SourceEdit::Full(source));
                t.edit = ms(start.elapsed());
                let after = r.pipeline.stats();
                let (edit_report, _) = edited.map_err(|e| format!("replica edit: {e}"))?;
                t.dirty_functions = edit_report.dirty_functions as f64;
                t.dirty_blocks = edit_report.dirty_blocks as f64;
                t.rows_misses = (after.rows.misses - before.rows.misses) as f64;
                t.schedule_misses = (after.schedules.misses - before.schedules.misses) as f64;
                let start = Instant::now();
                let resp = r.service.handle(
                    &request("POST", &r.target, edit_body.as_bytes()),
                    &r.metrics,
                    max_body,
                    false,
                );
                t.handle = ms(start.elapsed());
                if resp.status != 200 || resp.body != reply.body {
                    eprintln!("serve_session: edit {i}: HTTP body differs from Service::handle");
                    correct = false;
                }
                traces.push(t);
            }
        }
        let ok = (attempted - attempted_before) - (failed - failed_before);
        epoch_rates.push(ok as f64 / start_epoch.elapsed().as_secs_f64());
        if opts.trace {
            // The spliced session report must equal a cold estimate of
            // the final source.
            let view = client.request("GET", &format!("/session/{id}"), b"");
            let cold =
                client.request("POST", "/estimate", session_create_body(&program).as_bytes());
            let spliced = view
                .ok()
                .and_then(|r| parse_json(&r.body))
                .and_then(|v| Some(v.get("report")?.to_compact()));
            let fresh = cold.ok().and_then(|r| parse_json(&r.body)).map(|v| v.to_compact());
            if spliced.is_none() || spliced != fresh {
                eprintln!("serve_session: spliced report differs from a cold /estimate");
                correct = false;
            }
        }
        reopens += client.reopens;
        peak_rss.get_or_insert_with(host::peak_rss_mb);
        drop(client);
        server.shutdown();
        epoch += 1;
    }
    calib.extend([host::calib_ms(), host::calib_ms(), host::calib_ms()]);
    eprintln!(
        "serve_session: set-up samples (ms) {:.2?}",
        setup_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    );
    eprintln!(
        "serve_session: {attempted} edits, {epoch} epochs, {reopens} keep-alive reopens, \
         per-epoch throughput {epoch_rates:.1?}"
    );

    let mut report = Report::new(attempted, failed);
    report.correct &= correct;
    if !opts.trace {
        report.end_to_end(&EndToEnd {
            setup_s: &setup_s,
            rates: &epoch_rates,
            latency_ms: &latency,
            peak_rss_mb: peak_rss.flatten(),
            error_pct: crate::accuracy::session_error_pct()?,
        })?;
        eprintln!("serve_session: host.calib_ms {calib:?}");
        return Ok(report);
    }
    let col = |f: fn(&EditTrace) -> f64| traces.iter().map(f).collect::<Vec<_>>();
    report.median("json.parse_ms", &col(|t| t.json), "ms");
    report.median("session.edit_ms", &col(|t| t.edit), "ms");
    report.median("serve.handle_ms", &col(|t| t.handle), "ms");
    report.median("serve.wire_ms", &col(|t| t.latency - t.handle), "ms");
    report.median("session.dirty_functions", &col(|t| t.dirty_functions), "count");
    report.median("session.dirty_blocks", &col(|t| t.dirty_blocks), "count");
    report.median("pipeline.rows.misses", &col(|t| t.rows_misses), "count");
    report.median("core.schedule_misses", &col(|t| t.schedule_misses), "count");
    report.median("unattributed_ms", &col(|t| t.handle - t.json - t.edit), "ms");
    report.median(
        "attributed_share",
        &col(|t| (t.latency - t.handle + t.json + t.edit) / t.latency),
        "ratio",
    );
    report.median("host.calib_ms", &calib, "ms");
    Ok(report)
}
