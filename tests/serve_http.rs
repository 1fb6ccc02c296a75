//! Integration tests for `fetchmech-serve`: boot the server in-process on an
//! ephemeral port and drive it over raw `std::net::TcpStream`, asserting
//! byte-identical results vs serial execution, queue-full shedding,
//! coalescing, deadline expiry, cache reuse across sweeps, graceful
//! shutdown draining, and prompt accept and shutdown with no poll tick.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use fetchmech::experiments::{ExpConfig, Lab, LayoutVariant, TraceKey};
use fetchmech::json::{parse, Value};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::InputId;
use fetchmech::{simulate, SchemeKind};
use fetchmech_repro::serve::engine::SimKey;
use fetchmech_repro::serve::{api, ServeConfig, Server};

/// Short traces keep debug-mode runs (which execute the full cycle-level
/// sanitizer) fast.
const EXP: ExpConfig = ExpConfig {
    trace_len: 4_000,
    profile_len: 2_000,
};

/// A simulation long enough to keep a worker visibly busy while a test
/// stages requests behind it. Release-mode block-stream runs retire well
/// over ten million instructions per second on one core, so release needs a
/// much longer trace than debug builds (whose every run also executes the
/// cycle-level sanitizer and its per-instruction oracle).
const SLOW_INSTS: u64 = if cfg!(debug_assertions) {
    120_000
} else {
    3_000_000
};

fn slow_job_body() -> String {
    format!("{{\"bench\": \"gcc\", \"insts\": {SLOW_INSTS}, \"deadline_ms\": 120000}}")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        exp: EXP,
        default_insts: 1_500,
        ..ServeConfig::default()
    }
}

/// One request over a fresh connection; returns (status, head, body
/// including the trailing newline).
fn http_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(180)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), body.to_string())
}

/// One request over a fresh connection; returns (status, body including the
/// trailing newline).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = http_raw(addr, method, path, body);
    (status, body)
}

fn metrics(addr: SocketAddr) -> Value {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    parse(&body).expect("metrics is valid JSON")
}

fn metric_u64(m: &Value, group: &str, field: &str) -> u64 {
    m.get(group)
        .and_then(|g| g.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metrics missing {group}.{field}"))
}

/// Polls `/metrics` until `pred` holds (or panics after ~10s).
fn wait_for(addr: SocketAddr, what: &str, pred: impl Fn(&Value) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if pred(&metrics(addr)) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

/// What the server must answer for `key`: the same simulation run serially
/// on the per-instruction trace, rendered through the same JSON path, plus
/// the wire newline. The server simulates block streams, so this is also
/// the cross-path check of every response it is compared against.
fn expected_body(lab: &Lab, key: &SimKey, machine: &MachineModel) -> String {
    let trace = lab.trace(TraceKey {
        bench: key.bench,
        variant: key.variant,
        block_bytes: machine.block_bytes,
        input: InputId::TEST,
        limit: key.insts,
    });
    let result = simulate(machine, key.scheme, &trace);
    format!("{}\n", api::sim_result_json(key, &result).pretty())
}

#[test]
fn healthz_and_basic_errors() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = parse(&body).expect("healthz is valid JSON");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        health.get("store").and_then(Value::as_str),
        Some("disabled"),
        "no store configured: healthz reports the tier disabled"
    );
    assert!(health.get("benches").and_then(Value::as_array).is_some());

    let (status, body) = http(addr, "POST", "/v1/simulate", "{\"bench\": \"nope\"}");
    assert_eq!(status, 400, "unknown bench must 400: {body}");
    let (status, _) = http(addr, "POST", "/v1/simulate", "not json");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/v1/simulate", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/simulate",
        "{\"bench\": \"compress\", \"bogus\": 1}",
    );
    assert_eq!(status, 400, "unknown fields must 400: {body}");

    server.shutdown();
}

#[test]
fn concurrent_simulations_match_serial_execution() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    // 8 distinct keys, requested 4× each = 32 concurrent clients.
    let mut keys = Vec::new();
    for bench in ["compress", "eqntott"] {
        for scheme in [
            SchemeKind::Sequential,
            SchemeKind::BankedSequential,
            SchemeKind::CollapsingBuffer,
            SchemeKind::Perfect,
        ] {
            keys.push(SimKey {
                bench,
                machine: "p14",
                scheme,
                variant: LayoutVariant::Natural,
                insts: 1_200,
            });
        }
    }

    let serial_lab = Lab::with_threads(EXP, 1);
    let machine = MachineModel::p14();
    let expected: Vec<String> = keys
        .iter()
        .map(|key| expected_body(&serial_lab, key, &machine))
        .collect();

    let keys = Arc::new(keys);
    let handles: Vec<_> = (0..32)
        .map(|i| {
            let keys = Arc::clone(&keys);
            thread::spawn(move || {
                let key = &keys[i % keys.len()];
                let body = format!(
                    "{{\"bench\": \"{}\", \"scheme\": \"{}\", \"insts\": {}}}",
                    key.bench,
                    key.scheme.name(),
                    key.insts
                );
                (i % keys.len(), http(addr, "POST", "/v1/simulate", &body))
            })
        })
        .collect();
    for handle in handles {
        let (key_idx, (status, body)) = handle.join().expect("client thread");
        assert_eq!(status, 200, "simulate failed: {body}");
        assert_eq!(
            body, expected[key_idx],
            "concurrent response differs from serial execution"
        );
    }

    let m = metrics(addr);
    assert_eq!(metric_u64(&m, "responses", "ok_200"), 32);
    assert!(metric_u64(&m, "jobs", "completed") >= 8);
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_429_and_coalesces_identical_work() {
    let config = ServeConfig {
        threads: Some(1),
        queue_capacity: 1,
        max_insts: SLOW_INSTS,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();

    // Occupy the single worker with a long simulation.
    let slow = thread::spawn(move || http(addr, "POST", "/v1/simulate", &slow_job_body()));
    wait_for(addr, "the slow job to start", |m| {
        metric_u64(m, "jobs", "running") == 1
    });

    // Two identical requests: the first fills the queue's only slot, the
    // second coalesces onto it instead of being shed.
    let queued_body = "{\"bench\": \"compress\", \"insts\": 900, \"deadline_ms\": 120000}";
    let queued_a = thread::spawn(move || http(addr, "POST", "/v1/simulate", queued_body));
    wait_for(addr, "the queue slot to fill", |m| {
        metric_u64(m, "jobs", "queue_depth") == 1
    });
    let queued_b = thread::spawn(move || http(addr, "POST", "/v1/simulate", queued_body));
    wait_for(addr, "the identical request to coalesce", |m| {
        metric_u64(m, "jobs", "coalesced") == 1
    });

    // A *distinct* request now finds the queue full and is shed — with a
    // Retry-After hint so clients back off instead of hammering.
    let (status, head, body) = http_raw(
        addr,
        "POST",
        "/v1/simulate",
        "{\"bench\": \"eqntott\", \"insts\": 900}",
    );
    assert_eq!(status, 429, "expected shed, got: {body}");
    assert!(
        head.lines()
            .any(|l| l.to_ascii_lowercase().starts_with("retry-after:")),
        "429 must carry Retry-After: {head}"
    );
    let shed = parse(&body).expect("429 body is JSON");
    assert_eq!(
        shed.get("error").and_then(Value::as_str),
        Some("queue_full")
    );

    let (status, slow_body) = slow.join().expect("slow client");
    assert_eq!(status, 200, "slow request must finish: {slow_body}");
    let (status_a, body_a) = queued_a.join().expect("queued client a");
    let (status_b, body_b) = queued_b.join().expect("queued client b");
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(body_a, body_b, "coalesced responses must be byte-identical");

    let m = metrics(addr);
    assert_eq!(metric_u64(&m, "jobs", "shed"), 1);
    assert_eq!(metric_u64(&m, "responses", "shed_429"), 1);
    server.shutdown();
}

#[test]
fn expired_deadline_answers_504_and_skips_the_queued_job() {
    let config = ServeConfig {
        threads: Some(1),
        max_insts: SLOW_INSTS,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();

    let slow = thread::spawn(move || http(addr, "POST", "/v1/simulate", &slow_job_body()));
    wait_for(addr, "the slow job to start", |m| {
        metric_u64(m, "jobs", "running") == 1
    });

    // Queued behind the slow job with a deadline it cannot meet.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/simulate",
        "{\"bench\": \"li\", \"insts\": 900, \"deadline_ms\": 30}",
    );
    assert_eq!(status, 504, "expected deadline expiry, got: {body}");
    let err = parse(&body).expect("504 body is JSON");
    assert_eq!(
        err.get("error").and_then(Value::as_str),
        Some("deadline_exceeded")
    );

    let (status, _) = slow.join().expect("slow client");
    assert_eq!(status, 200);
    // With its only waiter gone, the queued job is skipped, not run.
    wait_for(addr, "the abandoned job to be skipped", |m| {
        metric_u64(m, "jobs", "expired") == 1
    });
    let m = metrics(addr);
    assert_eq!(metric_u64(&m, "responses", "deadline_504"), 1);
    server.shutdown();
}

#[test]
fn repeated_sweeps_hit_the_lab_cache_and_stay_deterministic() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    let sweep = "{\"benches\": [\"compress\", \"eqntott\"], \
                 \"schemes\": [\"sequential\", \"collapsing\"], \"insts\": 1100}";
    let (status, first) = http(addr, "POST", "/v1/sweep", sweep);
    assert_eq!(status, 200, "sweep failed: {first}");
    let doc = parse(&first).expect("sweep body is JSON");
    assert_eq!(doc.get("jobs").and_then(Value::as_u64), Some(4));
    assert_eq!(
        doc.get("results")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(4)
    );

    let hits_after_first = metric_u64(&metrics(addr), "lab_cache", "stream_hits");
    let (status, second) = http(addr, "POST", "/v1/sweep", sweep);
    assert_eq!(status, 200);
    assert_eq!(first, second, "identical sweeps must be byte-identical");

    // Every cell of the repeated sweep re-uses a cached stream.
    let hits_after_second = metric_u64(&metrics(addr), "lab_cache", "stream_hits");
    assert!(
        hits_after_second >= hits_after_first + 4,
        "repeated sweep should hit the stream cache \
         ({hits_after_first} -> {hits_after_second})"
    );

    // Oversized grids are rejected up front.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/sweep",
        "{\"benches\": [\"compress\"], \"insts\": 0}",
    );
    assert_eq!(status, 400, "zero insts must 400: {body}");
    server.shutdown();
}

/// Asserts the server's lab built `streams` block streams and never
/// generated a per-instruction trace.
fn assert_stream_only(addr: SocketAddr, streams: u64) {
    let m = metrics(addr);
    assert_eq!(metric_u64(&m, "lab_cache", "stream_builds"), streams);
    assert_eq!(
        metric_u64(&m, "lab_cache", "trace_generations"),
        0,
        "the service must simulate block streams, not per-instruction traces"
    );
}

#[test]
fn simulate_runs_on_block_streams() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    let key = SimKey {
        bench: "li",
        machine: "p18",
        scheme: SchemeKind::BankedSequential,
        variant: LayoutVariant::Reordered,
        insts: 1_300,
    };
    let request = format!(
        "{{\"bench\": \"{}\", \"machine\": \"{}\", \"scheme\": \"{}\", \
         \"layout\": \"{}\", \"insts\": {}}}",
        key.bench,
        key.machine,
        key.scheme.name(),
        key.variant.name(),
        key.insts
    );
    let (status, body) = http(addr, "POST", "/v1/simulate", &request);
    assert_eq!(status, 200, "simulate failed: {body}");
    assert_stream_only(addr, 1);

    let serial_lab = Lab::with_threads(EXP, 1);
    assert_eq!(
        body,
        expected_body(&serial_lab, &key, &MachineModel::p18()),
        "stream-path response differs from the per-instruction rendering"
    );
    server.shutdown();
}

/// Renders a `/v1/programs` upload body through the server's own JSON
/// encoder, so the source text is escaped correctly.
fn upload_body(format: &str, source: &str) -> String {
    Value::object([
        ("format", Value::Str(format.to_string())),
        ("source", Value::Str(source.to_string())),
    ])
    .pretty()
}

#[test]
fn program_upload_validation_errors() {
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();

    // Missing fields and unknown formats are request-level 400s.
    let (status, body) = http(addr, "POST", "/v1/programs", "{}");
    assert_eq!(status, 400, "missing format must 400: {body}");
    let (status, body) = http(addr, "POST", "/v1/programs", &upload_body("elf", "x"));
    assert_eq!(status, 400, "unknown format must 400: {body}");
    let err = parse(&body).expect("400 body is JSON");
    assert_eq!(
        err.get("error").and_then(Value::as_str),
        Some("invalid_request")
    );

    // A well-formed request carrying a bad program is a *program*-level 400
    // with the frontend's diagnostic text.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/programs",
        &upload_body("bril", "{\"functions\": []}"),
    );
    assert_eq!(status, 400, "empty module must 400: {body}");
    let err = parse(&body).expect("400 body is JSON");
    assert_eq!(
        err.get("error").and_then(Value::as_str),
        Some("invalid_program")
    );
    assert!(
        err.get("detail")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("must not be empty")),
        "diagnostic text must survive to the client: {body}"
    );

    server.shutdown();
}

#[test]
fn uploaded_program_sweeps_end_to_end_and_survives_restart() {
    let store = std::env::temp_dir().join(format!(
        "fetchmech-serve-programs-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let config = || ServeConfig {
        store_path: Some(store.clone()),
        ..test_config()
    };
    let wat = include_str!("../examples/programs/kernel.wat");
    let upload = upload_body("wat", wat);

    let (id, first_sweep, sweep_req);
    {
        let server = Server::start(config()).expect("server start");
        let addr = server.addr();

        let (status, body) = http(addr, "POST", "/v1/programs", &upload);
        assert_eq!(status, 200, "upload failed: {body}");
        let doc = parse(&body).expect("upload response is JSON");
        id = doc
            .get("id")
            .and_then(Value::as_str)
            .expect("upload response has an id")
            .to_string();
        assert!(id.starts_with("prog-"), "content-hash id: {id}");
        assert_eq!(doc.get("registered").and_then(Value::as_bool), Some(true));

        // Idempotent: the same source maps to the same id, not a duplicate.
        let (status, body) = http(addr, "POST", "/v1/programs", &upload);
        assert_eq!(status, 200);
        let doc = parse(&body).expect("re-upload response is JSON");
        assert_eq!(doc.get("id").and_then(Value::as_str), Some(id.as_str()));
        assert_eq!(doc.get("registered").and_then(Value::as_bool), Some(false));

        // The id joins the /healthz vocabulary.
        let (status, health) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let health = parse(&health).expect("healthz JSON");
        assert!(
            health
                .get("programs")
                .and_then(Value::as_array)
                .is_some_and(|ps| ps.iter().any(|p| p.as_str() == Some(&id))),
            "healthz must list the uploaded program"
        );

        // Sweep the uploaded program across every fetch scheme, through the
        // exact machinery the suite benchmarks use.
        sweep_req = format!("{{\"benches\": [\"{id}\"], \"insts\": 1200}}");
        let (status, sweep) = http(addr, "POST", "/v1/sweep", &sweep_req);
        assert_eq!(status, 200, "sweep failed: {sweep}");
        let doc = parse(&sweep).expect("sweep body is JSON");
        assert_eq!(
            doc.get("jobs").and_then(Value::as_u64),
            Some(SchemeKind::ALL.len() as u64)
        );
        // Every scheme shares the one (program, layout, length) stream.
        assert_stream_only(addr, 1);

        // The same program registered under the same id in a fresh lab
        // traces identically (the workload seed derives from the id).
        let serial_lab = Lab::with_threads(EXP, 1);
        let lowered = fetchmech_frontend::parse(fetchmech_frontend::Format::Wat, wat)
            .expect("kernel.wat lowers");
        let bench = serial_lab
            .register_external(&id, lowered.program, lowered.behaviors)
            .expect("register in the serial lab");
        let machine = MachineModel::p14();
        let results = doc
            .get("results")
            .and_then(Value::as_array)
            .expect("sweep has results");
        for (cell, scheme) in results.iter().zip(SchemeKind::ALL) {
            let key = SimKey {
                bench,
                machine: "p14",
                scheme,
                variant: LayoutVariant::Natural,
                insts: 1_200,
            };
            assert_eq!(
                format!("{}\n", cell.pretty()),
                expected_body(&serial_lab, &key, &machine),
                "{} cell differs from the per-instruction rendering",
                scheme.name()
            );
        }
        first_sweep = sweep;

        wait_for(addr, "all results persisted", |m| {
            metric_u64(m, "store", "persisted") >= SchemeKind::ALL.len() as u64
        });
        server.shutdown();
    }

    // Restart: the registry is per-process, so the id is unknown until the
    // client re-uploads — after which the store serves the original bytes
    // without enqueueing a single job.
    let server = Server::start(config()).expect("server restart");
    let addr = server.addr();
    let (status, body) = http(addr, "POST", "/v1/sweep", &sweep_req);
    assert_eq!(
        status, 400,
        "unregistered id must 400 after restart: {body}"
    );
    let (status, body) = http(addr, "POST", "/v1/programs", &upload);
    assert_eq!(status, 200, "re-upload failed: {body}");
    let (status, second_sweep) = http(addr, "POST", "/v1/sweep", &sweep_req);
    assert_eq!(status, 200);
    assert_eq!(
        first_sweep, second_sweep,
        "restart must serve byte-identical sweep results from the store"
    );
    let m = metrics(addr);
    assert_eq!(
        metric_u64(&m, "jobs", "enqueued"),
        0,
        "restart sweep must be resolved entirely from the store"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}

#[test]
fn stalled_and_half_closed_clients_cannot_pin_workers() {
    // Tight socket timeouts and only two connection slots: if a stalled
    // client could pin its handler thread, the service would be wedged.
    let config = ServeConfig {
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_millis(200),
        max_connections: 2,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();

    // Slow-loris: sends half a request head, then stalls forever.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris
        .write_all(b"POST /v1/simulate HTTP/1.1\r\nContent-")
        .expect("partial head");

    // Half-closed: connects, then shuts its write side without sending a
    // byte (the server sees EOF and must drop the connection immediately).
    let half = TcpStream::connect(addr).expect("connect half-closed");
    half.shutdown(std::net::Shutdown::Write)
        .expect("half close");

    // Both slots are (at worst briefly) occupied; the read timeout must
    // free the loris slot, after which normal service resumes. Saturated
    // 503s — or outright resets — in the window are acceptable; a hang is
    // not. The probe therefore swallows connection-level errors.
    let probe = |addr: std::net::SocketAddr| -> Option<u16> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .ok()?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).ok()?;
        let text = String::from_utf8(raw).ok()?;
        text.split(' ').nth(1)?.parse().ok()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = probe(addr);
        if status == Some(200) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stalled clients wedged the server (last status {status:?})"
        );
        thread::sleep(Duration::from_millis(25));
    }

    // The server actively closed the stalled connection: the loris read
    // side reaches EOF instead of blocking forever.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = Vec::new();
    let _ = loris.read_to_end(&mut sink); // EOF or reset, never a hang
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let config = ServeConfig {
        threads: Some(1),
        max_insts: SLOW_INSTS,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();

    let inflight = thread::spawn(move || http(addr, "POST", "/v1/simulate", &slow_job_body()));
    wait_for(addr, "the in-flight job to start", |m| {
        metric_u64(m, "jobs", "running") == 1
    });

    server.shutdown();

    // The in-flight request was drained, not dropped.
    let (status, body) = inflight.join().expect("in-flight client");
    assert_eq!(status, 200, "drained request must succeed: {body}");

    // And the listener is gone: new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "server should stop accepting after shutdown"
    );
}

#[test]
fn sequential_requests_are_not_paced_by_a_poll_tick() {
    // The accept thread blocks in `accept`, so each fresh connection is
    // served as soon as it arrives. A listener polled every few
    // milliseconds would put a tick's wait in front of every request.
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();
    let started = Instant::now();
    for _ in 0..100 {
        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "100 sequential /healthz requests took {elapsed:?}"
    );
    server.shutdown();
}

/// Runs `stop` on its own thread and fails unless it returns within `bound`,
/// so an accept thread that is never woken fails the test instead of
/// hanging it.
fn assert_returns_within(bound: Duration, what: &str, stop: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let stopper = thread::spawn(move || {
        stop();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(bound).is_ok(),
        "{what} did not return within {bound:?}"
    );
    stopper.join().expect("stop thread");
}

#[test]
fn idle_server_shuts_down_promptly() {
    let bound = Duration::from_secs(2);
    // An unspecified bind IP is reached through loopback.
    let reach = |addr: SocketAddr| SocketAddr::from(([127, 0, 0, 1], addr.port()));
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let config = ServeConfig {
            addr: bind.to_string(),
            ..test_config()
        };
        let server = Server::start(config).expect("server start");
        let addr = reach(server.addr());
        assert_returns_within(bound, &format!("shutdown of an idle {bind} server"), || {
            server.shutdown();
        });
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
            "{bind} server still accepts after shutdown"
        );
    }

    // Dropping without `shutdown` joins the accept thread too, which closes
    // the listener.
    let server = Server::start(test_config()).expect("server start");
    let addr = server.addr();
    assert_returns_within(bound, "dropping an idle server", || drop(server));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "dropped server still accepts"
    );
}
