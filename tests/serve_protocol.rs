//! Protocol-level integration tests for `tlm-serve`: every exchange goes
//! through a real TCP socket against a running server instance, the way
//! an external client would see it.
//!
//! Covered here (beyond the crate's unit tests): hostile input at the
//! HTTP layer (malformed requests, slowloris header drips, truncated and
//! oversized bodies, mid-response hangups, unknown endpoints, wrong
//! methods), the determinism contract under concurrency — clients
//! hammering the same requests from many threads receive bit-identical
//! bodies regardless of interleaving — and graceful shutdown: in-flight
//! work finishes, `/readyz` flips to `503` the moment draining starts
//! while `/healthz` keeps answering `200`, and no worker is left stuck
//! or leaked behind a misbehaving client (checked via the worker
//! gauges).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tlm_serve::http::HttpLimits;
use tlm_serve::protocol::Service;
use tlm_serve::server::{Server, ServerConfig, ServerHandle};

fn start(mut config: ServerConfig) -> ServerHandle {
    config.addr = "127.0.0.1:0".to_string();
    let queue = config.queue;
    Server::start(config, Service::new(queue)).expect("server starts")
}

fn start_default() -> ServerHandle {
    start(ServerConfig { workers: 2, ..ServerConfig::default() })
}

/// Sends raw bytes, reads until the server closes, returns the response
/// text. The connection always asks for `Connection: close` (the caller
/// includes it in `raw`), so read-to-end terminates.
fn send_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(raw).expect("writes");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("reads");
    String::from_utf8_lossy(&out).into_owned()
}

fn post(addr: SocketAddr, target: &str, body: &str) -> String {
    let raw = format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    send_raw(addr, raw.as_bytes())
}

fn status_of(response: &str) -> u16 {
    response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, b)| b)
}

/// Reads one sample (possibly labeled) from a Prometheus text page.
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l[name.len()..].trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn malformed_json_and_malformed_http_answer_400() {
    let handle = start_default();
    let addr = handle.addr();

    let resp = post(addr, "/estimate", "this is not json");
    assert_eq!(status_of(&resp), 400, "got: {resp}");
    assert!(body_of(&resp).contains("invalid JSON"), "got: {resp}");

    // Deep nesting trips the parser's recursion budget, not the stack.
    let bomb = format!("{}{}", "[".repeat(4096), "]".repeat(4096));
    let resp = post(addr, "/estimate", &bomb);
    assert_eq!(status_of(&resp), 400, "got: {resp}");

    // Broken HTTP framing.
    let resp = send_raw(addr, b"EHLO not-http\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 400, "got: {resp}");

    handle.shutdown();
}

#[test]
fn truncated_body_times_out_with_408() {
    let handle = start(ServerConfig {
        workers: 2,
        io_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    // Promise 100 bytes, deliver 10, then stall with the socket open.
    stream
        .write_all(b"POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n0123456789")
        .expect("writes");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("reads");
    let text = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&text), 408, "got: {text}");

    handle.shutdown();
}

/// Asserts via the worker gauges that the pool is intact: every worker
/// alive, and nobody stuck busy beyond the one serving this very
/// `/metrics` request.
fn assert_workers_intact(addr: SocketAddr, workers: u64) {
    let resp = send_raw(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 200, "got: {resp}");
    let page = body_of(&resp);
    assert_eq!(metric(page, "tlm_serve_workers_alive"), workers, "worker leaked or died");
    assert!(metric(page, "tlm_serve_workers_busy") <= 1, "worker stuck busy:\n{page}");
}

/// Polls `/metrics` until every request read before the scrape has left
/// its worker: the completed-request count equals the requests read, less
/// the scrape itself. A client that hangs up does not cancel its queued
/// job, so gauges read before this point can still see that job running.
fn wait_for_jobs_to_finish(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let resp = send_raw(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        assert_eq!(status_of(&resp), 200, "got: {resp}");
        let page = body_of(&resp);
        let read = metric(page, "tlm_serve_requests_total");
        let finished = metric(page, "tlm_serve_request_duration_seconds_count");
        if finished + 1 == read {
            return;
        }
        assert!(Instant::now() < deadline, "only {finished} of {read} requests finished:\n{page}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn slowloris_header_drip_is_cut_by_the_request_deadline() {
    // Per-op timeout generous, total budget tight: every dripped byte
    // arrives well inside io_timeout, so only the per-request deadline
    // can end this.
    let workers = 2;
    let handle = start(ServerConfig {
        workers,
        io_timeout: Duration::from_secs(10),
        request_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(b"POST /estimate HTTP/1.1\r\n").expect("writes");
    // Drip one header byte every 100 ms, then stall with the socket
    // open — the classic slowloris posture.
    for byte in b"X-Drip: ".iter().take(4) {
        std::thread::sleep(Duration::from_millis(100));
        stream.write_all(&[*byte]).expect("drips");
    }
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("reads");
    let text = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&text), 408, "got: {text}");

    assert_workers_intact(addr, workers as u64);
    handle.shutdown();
}

#[test]
fn mid_response_hangup_leaves_no_stuck_worker() {
    let workers = 2;
    let handle = start(ServerConfig { workers, ..ServerConfig::default() });
    let addr = handle.addr();

    // Fire a real estimation request and hang up without reading a byte
    // of the reply; the worker's write fails and the connection is
    // reaped, not wedged.
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr).expect("connects");
        let body = r#"{"platform": "image:sw"}"#;
        let raw = format!(
            "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("writes");
        drop(stream); // hangup before the response
    }

    // The pool still serves normal clients afterwards.
    let resp = post(addr, "/estimate", r#"{"platform": "image:sw"}"#);
    assert_eq!(status_of(&resp), 200, "got: {resp}");
    wait_for_jobs_to_finish(addr);
    assert_workers_intact(addr, workers as u64);
    handle.shutdown();
}

#[test]
fn one_string_body_at_the_size_cap_answers_inside_the_deadline() {
    // A legal body just under `max_body_bytes` that is almost entirely one
    // JSON string: a decoder that re-scans the rest of the input for
    // every character holds a worker for minutes on it.
    let workers = 2;
    let config = ServerConfig { workers, ..ServerConfig::default() };
    let (limit, deadline) = (config.limits.max_body_bytes, config.request_deadline);
    let handle = start(config);
    let addr = handle.addr();

    let head = r#"{"platform": {"name": "hostile", "pes": [{"name": "cpu", "pum": "microblaze"}], "processes": [{"name": "main", "pe": "cpu", "source": "/* "#;
    let tail = r#" */ void main() { out(1); }"}]}, "sweep": [{"icache": 2048, "dcache": 2048}]}"#;
    let body = format!("{head}{}{tail}", "a".repeat(limit - 1 - head.len() - tail.len()));
    assert_eq!(body.len(), limit - 1);

    let started = Instant::now();
    let resp = post(addr, "/estimate", &body);
    let elapsed = started.elapsed();
    assert!(matches!(status_of(&resp), 200 | 400), "got: {}", &resp[..resp.len().min(400)]);
    assert!(elapsed < deadline / 4, "answered after {elapsed:?}");

    wait_for_jobs_to_finish(addr);
    assert_workers_intact(addr, workers as u64);
    handle.shutdown();
}

#[test]
fn oversized_payload_answers_413_without_reading_it() {
    let handle = start(ServerConfig {
        workers: 2,
        limits: HttpLimits { max_body_bytes: 1024, ..HttpLimits::default() },
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Only the declaration is sent — a server that buffered first would
    // wait forever; ours must answer from the header alone.
    let resp = send_raw(
        addr,
        b"POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: 1048576\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 413, "got: {resp}");
    assert!(body_of(&resp).contains("1024"), "names the limit: {resp}");

    handle.shutdown();
}

#[test]
fn unknown_endpoints_and_wrong_methods() {
    let handle = start_default();
    let addr = handle.addr();

    let resp = send_raw(addr, b"GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 404, "got: {resp}");

    let resp = send_raw(addr, b"GET /estimate HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 405, "got: {resp}");
    assert!(resp.contains("Allow: POST"), "got: {resp}");

    let resp = post(addr, "/metrics", "{}");
    assert_eq!(status_of(&resp), 405, "got: {resp}");
    assert!(resp.contains("Allow: GET"), "got: {resp}");

    handle.shutdown();
}

#[test]
fn estimation_over_the_wire_matches_the_paper_sweep_shape() {
    let handle = start_default();
    let addr = handle.addr();

    let resp = post(addr, "/estimate", r#"{"platform": "image:sw"}"#);
    assert_eq!(status_of(&resp), 200, "got: {resp}");
    let v = tlm_json::parse(body_of(&resp)).expect("json body");
    let sweep = v.get("sweep").and_then(tlm_json::Value::as_array).expect("sweep");
    assert_eq!(sweep.len(), 5, "default sweep is the paper's five cache points");
    for point in sweep {
        let procs = point.get("processes").and_then(tlm_json::Value::as_array).expect("rows");
        assert_eq!(procs.len(), v.get("processes").and_then(tlm_json::Value::as_usize).unwrap());
    }

    handle.shutdown();
}

#[test]
fn metrics_expose_per_stage_pipeline_counters() {
    let handle = start_default();
    let addr = handle.addr();
    let get_metrics = || {
        let resp = send_raw(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        assert_eq!(status_of(&resp), 200, "got: {resp}");
        body_of(&resp).to_string()
    };

    // Before any estimation every stage is present and zero.
    let page = get_metrics();
    for stage in ["ast", "module", "prepared", "schedules", "annotated", "report"] {
        for family in [
            "tlm_serve_pipeline_stage_hits_total",
            "tlm_serve_pipeline_stage_misses_total",
            "tlm_serve_pipeline_stage_entries",
            "tlm_serve_pipeline_stage_bytes",
        ] {
            assert_eq!(metric(&page, &format!("{family}{{stage=\"{stage}\"}}")), 0);
        }
    }

    // A cold request computes: misses land on the estimation stages, and
    // the legacy schedule-cache counters mirror the `schedules` stage.
    let resp = post(addr, "/estimate", r#"{"platform": "mp3:sw"}"#);
    assert_eq!(status_of(&resp), 200, "got: {resp}");
    let cold = get_metrics();
    let report_misses = metric(&cold, "tlm_serve_pipeline_stage_misses_total{stage=\"report\"}");
    let sched_misses = metric(&cold, "tlm_serve_pipeline_stage_misses_total{stage=\"schedules\"}");
    assert!(report_misses > 0, "cold request must compute reports");
    assert!(sched_misses > 0, "cold request must run Algorithm 1");
    assert_eq!(metric(&cold, "tlm_serve_schedule_cache_misses_total"), sched_misses);
    assert!(metric(&cold, "tlm_serve_pipeline_stage_entries{stage=\"report\"}") > 0);
    assert!(metric(&cold, "tlm_serve_pipeline_stage_bytes{stage=\"report\"}") > 0);

    // The identical request hits the report stage and short-circuits the
    // graph: no stage gains a single miss, and the upstream stages see no
    // lookups at all.
    let resp = post(addr, "/estimate", r#"{"platform": "mp3:sw"}"#);
    assert_eq!(status_of(&resp), 200, "got: {resp}");
    let warm = get_metrics();
    assert!(
        metric(&warm, "tlm_serve_pipeline_stage_hits_total{stage=\"report\"}")
            > metric(&cold, "tlm_serve_pipeline_stage_hits_total{stage=\"report\"}"),
        "warm request must hit the report stage"
    );
    for stage in ["ast", "module", "prepared", "schedules", "annotated", "report"] {
        let name = format!("tlm_serve_pipeline_stage_misses_total{{stage=\"{stage}\"}}");
        assert_eq!(metric(&warm, &name), metric(&cold, &name), "warm request recomputed {stage}");
    }
    for stage in ["schedules", "annotated"] {
        let name = format!("tlm_serve_pipeline_stage_hits_total{{stage=\"{stage}\"}}");
        assert_eq!(
            metric(&warm, &name),
            metric(&cold, &name),
            "report-stage hit must not consult {stage}"
        );
    }

    handle.shutdown();
}

#[test]
fn concurrent_clients_get_bit_identical_responses() {
    let handle = start(ServerConfig { workers: 4, ..ServerConfig::default() });
    let addr = handle.addr();

    // Two distinct request bodies, hammered from interleaved threads.
    let bodies = [
        r#"{"platform": "image:sw", "sweep": ["0k/0k", "8k/4k"]}"#,
        r#"{"platform": "image:hw", "sweep": ["2k/2k"], "report": "blocks"}"#,
    ];
    // Sequential references first.
    let reference: Vec<String> =
        bodies.iter().map(|b| body_of(&post(addr, "/estimate", b)).to_string()).collect();

    let mut threads = Vec::new();
    for t in 0..6usize {
        let body = bodies[t % bodies.len()].to_string();
        threads.push(std::thread::spawn(move || {
            (0..3)
                .map(|_| {
                    let resp = post(addr, "/estimate", &body);
                    assert_eq!(status_of(&resp), 200, "got: {resp}");
                    body_of(&resp).to_string()
                })
                .collect::<Vec<String>>()
        }));
    }
    for (t, thread) in threads.into_iter().enumerate() {
        let expect = &reference[t % bodies.len()];
        for got in thread.join().expect("client thread") {
            assert_eq!(&got, expect, "thread {t} diverged from the sequential reference");
        }
    }

    handle.shutdown();
}

/// One request on an already-open keep-alive connection: writes a GET,
/// reads one `Content-Length`-framed response, leaves the socket open.
fn keep_alive_get(stream: &mut TcpStream, target: &str) -> (u16, String) {
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("writes");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_ne!(stream.read(&mut byte).expect("reads"), 0, "closed mid-header");
        head.push(byte[0]);
        assert!(head.len() <= 16 * 1024, "runaway response head");
    }
    let text = String::from_utf8_lossy(&head).into_owned();
    let length: usize = text
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("body");
    (status_of(&text), text)
}

#[test]
fn half_closed_client_still_gets_its_response_and_leaks_no_connection() {
    let handle = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = handle.addr();

    // The gauge as seen from a fresh scrape connection: the scrape
    // itself is open while the page renders, so a quiescent server
    // reads 1.
    let open_connections = || {
        let resp = send_raw(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        assert_eq!(status_of(&resp), 200, "got: {resp}");
        metric(body_of(&resp), "tlm_serve_open_connections")
    };
    let baseline = open_connections();

    // Send a full request, then shut down the write half (SHUT_WR)
    // before reading a byte — the FIN arrives while the request is
    // queued or in flight. The response must still be delivered on the
    // intact read half.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let body = r#"{"platform": "mp3:sw", "sweep": ["0k/0k"]}"#;
    let raw = format!(
        "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("writes");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("reads");
    let text = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&text), 200, "half-closed client still served: {text}");
    drop(stream);

    // No connection-state leak: the gauge returns to its baseline (the
    // server reaps the half-closed connection after the response; give
    // the close a moment to land).
    let mut last = u64::MAX;
    for _ in 0..40 {
        last = open_connections();
        if last == baseline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(last, baseline, "half-closed connection leaked in the gauge");

    handle.shutdown();
}

#[test]
fn drain_flips_readyz_immediately_while_healthz_stays_up() {
    let handle = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = handle.addr();

    // Pin both workers with keep-alive connections before the drain
    // starts, so the during-drain probes cannot depend on new accepts.
    let mut conn_a = TcpStream::connect(addr).expect("conn a");
    let mut conn_b = TcpStream::connect(addr).expect("conn b");
    for conn in [&mut conn_a, &mut conn_b] {
        conn.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    }
    assert_eq!(keep_alive_get(&mut conn_a, "/readyz").0, 200, "ready before drain");
    assert_eq!(keep_alive_get(&mut conn_b, "/healthz").0, 200);

    handle.request_shutdown();

    // The very next request sees the flip: readiness gone (with a
    // Retry-After hint for the balancer), liveness intact — draining is
    // not dying.
    let (ready_status, ready_head) = keep_alive_get(&mut conn_a, "/readyz");
    assert_eq!(ready_status, 503, "got: {ready_head}");
    assert!(
        ready_head.to_ascii_lowercase().contains("retry-after"),
        "503 carries Retry-After: {ready_head}"
    );
    let (health_status, health_head) = keep_alive_get(&mut conn_b, "/healthz");
    assert_eq!(health_status, 200, "got: {health_head}");

    // While draining, keep-alive is not renewed: both connections are
    // closed after their in-flight response, and the listener accepts
    // nothing new once the drain completes.
    for conn in [&mut conn_a, &mut conn_b] {
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).expect("drain close");
        assert!(rest.is_empty(), "no bytes after the draining response");
    }
    drop(conn_a);
    drop(conn_b);
    handle.shutdown();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "port is closed after drain"
    );
}

#[test]
fn graceful_shutdown_finishes_in_flight_requests() {
    let handle = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let addr = handle.addr();

    // Put a request in flight on the only worker, then shut down while
    // it is (possibly) still being served.
    let client = std::thread::spawn(move || {
        post(addr, "/estimate", r#"{"platform": "image:sw", "sweep": ["0k/0k", "2k/2k"]}"#)
    });
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();

    let resp = client.join().expect("client thread");
    assert_eq!(status_of(&resp), 200, "in-flight work completes: {resp}");
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "port is closed after drain"
    );
}
