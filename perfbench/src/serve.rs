//! The `serve_cold` and `serve_hot` workloads: the release `fetchmech-serve`
//! binary with `--threads 2` and a fresh `--store`, driven by two
//! closed-loop connections from this one process. Serve's callers are
//! sweep scripts that wait for each reply, hence the closed loop.
//!
//! * `serve_cold` uploads each `examples/programs/*` program, then sends a
//!   seeded list in which every simulate key is distinct, so every request
//!   computes and appends to the store. A quarter of the (bench, machine,
//!   layout, insts) groups go as one 5-scheme `/v1/sweep`, the rest as five
//!   `/v1/simulate`s.
//! * `serve_hot` computes a small seeded hot set, waits until the store
//!   holds it, then re-requests it with some `/healthz` mixed in, so every
//!   answer is a store hit.
//!
//! Every 200 body must equal byte for byte the body rendered in-process by
//! the same public functions the handler calls (`api::parse_*`,
//! `Lab::trace`, `simulate`, `api::sim_result_json`). The traced run
//! replays the request list on one thread through those functions, timing
//! each, over a loopback socket for `http::read_request` and
//! `Response::write_to`. It also simulates every computed key on its block
//! stream and requires the same `SimResult` as the per-instruction run the
//! server renders, so the serve counts are checked exactly as well.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use fetchmech::experiments::{Lab, LayoutVariant, TraceKey};
use fetchmech::isa::rng::Pcg64;
use fetchmech::json::Value;
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::{suite, InputId};
use fetchmech::{simulate, SchemeKind, SimResult};
use fetchmech_frontend::Format;
use fetchmech_repro::serve::api::{self, Limits};
use fetchmech_repro::serve::engine::SimKey;
use fetchmech_repro::serve::http::{self, Response};
use fetchmech_repro::serve::ServeConfig;
use fetchmech_repro::store::{NoFault, Store};

use crate::{cpu_seconds, median, ms, peak_rss_mb, percentile, us, Outcome, THREADS};

/// Which traffic mix to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Cold,
    Hot,
}

/// Measured requests per `--seconds` of each mix, sized so that one run at
/// the commit that added this benchmark lasts about `--seconds` on a 2-core
/// x86-64 host.
const COLD_RATE: u64 = 240;
const HOT_RATE: u64 = 380;

// The repository has no record of real serve traffic, so the shares below
// are assumptions, chosen for what they make each workload exercise:
//
// * Cold trace lengths are drawn log-uniformly over the lengths the
//   repository's own callers name: 2000 in `examples/serve_client.rs`,
//   100000 in the README's `/v1/simulate` example. The mean, about 25000,
//   is near the server's `default_insts`. The spread keeps every key
//   distinct, and it spreads compute times over several of the accept
//   loop's 5 ms poll ticks: bunched near one tick boundary, a few percent
//   of host speed moved many requests across it and throughput by far more.
// * One cold key group in `COLD_SWEEP_EVERY` goes as a 5-scheme sweep, the
//   rest as five single simulates: sweeps carry a quarter of the simulated
//   keys, so the sweep path is measured without dominating the latency.
// * The hot set is every suite benchmark under every layout at the default
//   length, the keys a suite sweep at the defaults would leave in the store.
// * A `HOT_HEALTHZ` share of hot requests is `/healthz`, the liveness probe
//   a caller makes between requests; it is a store-free baseline.

/// Cold trace lengths, drawn log-uniformly between these bounds.
const COLD_INSTS: (u64, u64) = (2_000, 100_000);
/// Share of hot-mix requests that are `/healthz`.
const HOT_HEALTHZ: f64 = 0.1;
/// Every this many cold-mix groups, one goes as a 5-scheme sweep.
const COLD_SWEEP_EVERY: usize = 4;
/// Server starts timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Consecutive chunks the measured list is sent in; the end-to-end serve
/// metrics are medians over them, so a host stall of a second or two that
/// slows one chunk does not move them.
const CHUNKS: usize = 5;
/// Longest a client waits for one reply before counting it failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest the server may take to start or to persist the hot set.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

const MACHINES: [&str; 3] = ["p14", "p18", "p112"];

/// One simulate key, as a client names it.
#[derive(Debug, Clone)]
struct Cell {
    bench: String,
    machine: &'static str,
    scheme: SchemeKind,
    layout: LayoutVariant,
    insts: u64,
}

#[derive(Debug, Clone)]
enum Req {
    Upload {
        format: Format,
        source: String,
    },
    Simulate(Cell),
    /// One (bench, machine, layout, insts) group over every scheme.
    Sweep(Cell),
    Healthz,
}

impl Req {
    fn body(&self) -> String {
        let s = |x: &str| Value::Str(x.to_string());
        match self {
            Req::Upload { format, source } => {
                Value::object([("format", s(format.name())), ("source", s(source))]).render()
            }
            Req::Simulate(c) => Value::object([
                ("bench", s(&c.bench)),
                ("machine", s(c.machine)),
                ("scheme", s(c.scheme.name())),
                ("layout", s(c.layout.name())),
                ("insts", Value::Uint(c.insts)),
            ])
            .render(),
            Req::Sweep(c) => Value::object([
                ("benches", Value::Array(vec![s(&c.bench)])),
                ("machines", Value::Array(vec![s(c.machine)])),
                (
                    "schemes",
                    Value::Array(SchemeKind::ALL.iter().map(|k| s(k.name())).collect()),
                ),
                ("layouts", Value::Array(vec![s(c.layout.name())])),
                ("insts", Value::Uint(c.insts)),
            ])
            .render(),
            Req::Healthz => String::new(),
        }
    }

    /// The whole HTTP request as sent on the wire.
    fn wire(&self) -> Vec<u8> {
        let (method, path) = match self {
            Req::Upload { .. } => ("POST", "/v1/programs"),
            Req::Simulate(_) => ("POST", "/v1/simulate"),
            Req::Sweep(_) => ("POST", "/v1/sweep"),
            Req::Healthz => ("GET", "/healthz"),
        };
        let body = self.body();
        format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

/// The checked-in example programs, in file-name order.
fn example_programs() -> Result<Vec<Req>, String> {
    let dir = Path::new("examples/programs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| Some((p, Format::for_path(p.to_str()?)?)))
        .map(|(p, format)| {
            let source =
                std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
            Ok(Req::Upload { format, source })
        })
        .collect()
}

/// The `prog-*` id the server gives an uploaded program.
fn program_id(req: &Req) -> Result<String, String> {
    let Req::Upload { format, source } = req else {
        unreachable!("program_id of a non-upload")
    };
    let lowered = fetchmech_frontend::parse(*format, source).map_err(|e| e.to_string())?;
    Ok(format!("prog-{:016x}", lowered.fingerprint()))
}

fn shuffle<T>(rng: &mut Pcg64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0, i + 1));
    }
}

/// The seeded request list: `reqs[..measured]` is the warm-up, sent before
/// timing starts, and the rest is measured.
struct Plan {
    reqs: Vec<Req>,
    measured: usize,
}

impl Plan {
    /// Keys the warm-up computes: the store must hold them all before the
    /// measured requests, which look them up, start.
    fn warm_keys(&self) -> u64 {
        let warm = &self.reqs[..self.measured];
        warm.iter()
            .filter(|r| matches!(r, Req::Simulate(_)))
            .count() as u64
    }

    /// The measured requests cut into [`CHUNKS`] consecutive runs of
    /// about equal length.
    fn chunks(&self) -> Vec<std::ops::Range<usize>> {
        let (start, n) = (self.measured, self.reqs.len() - self.measured);
        (0..CHUNKS)
            .map(|c| start + n * c / CHUNKS..start + n * (c + 1) / CHUNKS)
            .collect()
    }
}

fn cold_plan(seed: u64, seconds: u64) -> Result<Plan, String> {
    let uploads = example_programs()?;
    let mut benches: Vec<String> = suite::INT_NAMES
        .iter()
        .chain(suite::FP_NAMES.iter())
        .map(|s| (*s).to_string())
        .collect();
    for u in &uploads {
        benches.push(program_id(u)?);
    }
    let mut rng = Pcg64::new(seed);
    let target = usize::try_from(COLD_RATE * seconds).map_err(|e| e.to_string())?;
    // Requests per COLD_SWEEP_EVERY groups: one sweep, five simulates each
    // for the rest.
    let per_cycle = SchemeKind::ALL.len() * (COLD_SWEEP_EVERY - 1) + 1;
    let groups = target.div_ceil(per_cycle) * COLD_SWEEP_EVERY;
    // Stratified draws, so that every seed sends the same mix of work in
    // another order and with other keys: each pass over the groups takes
    // every (bench, machine, layout) once, in a seeded order, and group `g`
    // draws its length from its own one of `groups` equally likely strata
    // of the log-uniform range.
    let mut combos: Vec<(usize, usize, usize)> = (0..benches.len())
        .flat_map(|b| {
            (0..MACHINES.len())
                .flat_map(move |m| (0..LayoutVariant::ALL.len()).map(move |l| (b, m, l)))
        })
        .collect();
    let mut strata: Vec<usize> = (0..groups).collect();
    shuffle(&mut rng, &mut strata);
    let (lo, hi) = (COLD_INSTS.0 as f64, COLD_INSTS.1 as f64);
    let mut seen = HashSet::new();
    let mut body = Vec::with_capacity(groups * SchemeKind::ALL.len());
    for (g, &stratum) in strata.iter().enumerate() {
        if g % combos.len() == 0 {
            shuffle(&mut rng, &mut combos);
        }
        let (bench, machine, layout) = combos[g % combos.len()];
        let insts = loop {
            let u = (stratum as f64 + rng.next_f64()) / groups as f64;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let insts = (lo * (hi / lo).powf(u)).round() as u64;
            if seen.insert((bench, machine, layout, insts)) {
                break insts;
            }
        };
        let cell = |scheme| Cell {
            bench: benches[bench].clone(),
            machine: MACHINES[machine],
            scheme,
            layout: LayoutVariant::ALL[layout],
            insts,
        };
        if (g + 1) % COLD_SWEEP_EVERY == 0 {
            body.push(Req::Sweep(cell(SchemeKind::ALL[0])));
        } else {
            body.extend(SchemeKind::ALL.map(|s| Req::Simulate(cell(s))));
        }
    }
    shuffle(&mut rng, &mut body);
    body.truncate(target);
    let n = uploads.len();
    let mut reqs = uploads;
    reqs.extend(body);
    Ok(Plan { reqs, measured: n })
}

fn hot_plan(seed: u64, seconds: u64) -> Result<Plan, String> {
    let mut rng = Pcg64::new(seed);
    // Every suite benchmark under every layout, on a seeded machine and
    // scheme: the seed varies the keys, not how much the set holds.
    let mut hot = Vec::new();
    for bench in suite::INT_NAMES.iter().chain(suite::FP_NAMES.iter()) {
        for layout in LayoutVariant::ALL {
            hot.push(Req::Simulate(Cell {
                bench: (*bench).to_string(),
                machine: MACHINES[rng.range_usize(0, MACHINES.len())],
                scheme: SchemeKind::ALL[rng.range_usize(0, SchemeKind::ALL.len())],
                layout,
                insts: ServeConfig::default().default_insts,
            }));
        }
    }
    let n = usize::try_from(HOT_RATE * seconds).map_err(|e| e.to_string())?;
    let warm = hot.len();
    let mut reqs = hot.clone();
    for _ in 0..n {
        reqs.push(if rng.chance(HOT_HEALTHZ) {
            Req::Healthz
        } else {
            hot[rng.range_usize(0, hot.len())].clone()
        });
    }
    Ok(Plan {
        reqs,
        measured: warm,
    })
}

/// Builds the release server binary from the checkout and returns its path.
fn server_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "fetchmech-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building fetchmech-serve failed: {status}"));
    }
    let bin = target_dir().join("release").join("fetchmech-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no server binary at {}", bin.display()))
    }
}

/// A free loopback port below the kernel's ephemeral range: no client
/// socket of this process can be handed it as a source port, which would
/// take it (or connect to itself on it) before the server binds.
fn free_port() -> Result<u16, String> {
    let ephemeral = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|r| r.split_whitespace().next()?.parse::<u16>().ok())
        .unwrap_or(32_768);
    let (low, span) = (ephemeral / 2, ephemeral - ephemeral / 2);
    #[allow(clippy::cast_possible_truncation)]
    let start = (std::process::id() as u16).wrapping_add(NEXT_PORT.fetch_add(1, Ordering::Relaxed));
    (0..span)
        .map(|i| low + start.wrapping_add(i) % span)
        .find(|&port| TcpListener::bind(("127.0.0.1", port)).is_ok())
        .ok_or_else(|| "no free loopback port".to_string())
}

/// Advances the port search so successive servers use different ports.
static NEXT_PORT: std::sync::atomic::AtomicU16 = std::sync::atomic::AtomicU16::new(0);

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// A running server, stopped (SIGTERM, drain, wait) by [`Server::stop`] or
/// killed on drop.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    port: u16,
    store: PathBuf,
}

impl Server {
    /// Spawns the server on a fresh store and a free port, and polls
    /// `/healthz` from the moment of the spawn until the first 200; returns
    /// the server with the time that took. The poll connects as soon as the
    /// port is bound, so the first `accept` finds it waiting.
    fn start(bin: &Path, store: PathBuf) -> Result<(Server, Duration), String> {
        let _ = std::fs::remove_file(&store);
        let port = free_port()?;
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["--threads", "2", "--addr"])
            .arg(format!("127.0.0.1:{port}"))
            .arg("--store")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdout,
            port,
            store,
        };
        loop {
            if let Ok((200, _)) = exchange(port, &Req::Healthz.wire()) {
                return Ok((server, t.elapsed()));
            }
            if t.elapsed() > READY_TIMEOUT || !matches!(server.child.try_wait(), Ok(None)) {
                return Err(format!("server on port {port} did not become healthy"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends SIGTERM, lets the server drain, and waits for it to exit. A
    /// server stopped before it installed its handler dies of the signal,
    /// which is as good.
    fn stop(mut self) -> Result<(), String> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        let pid = i32::try_from(self.child.id()).map_err(|e| e.to_string())?;
        // SAFETY: kill(2) takes two integers and touches no memory of this
        // process; `pid` is our own child, not yet reaped.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err("SIGTERM to the server failed".to_string());
        }
        let mut rest = Vec::new();
        let _ = self.stdout.read_to_end(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&self.store);
        if status.success() || status.signal() == Some(SIGTERM) {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.store);
    }
}

/// One request over a fresh connection: returns the status and the body
/// without the trailing newline the server appends.
fn exchange(port: u16, wire: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(wire)?;
    let mut buf = Vec::with_capacity(4096);
    stream.read_to_end(&mut buf)?;
    let bad = || std::io::Error::other("malformed response");
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad())?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(bad)?;
    let mut body = buf.split_off(head_end + 4);
    if body.len() != length || body.pop() != Some(b'\n') {
        return Err(bad());
    }
    Ok((status, body))
}

/// What a client saw for one request; status 0 is a transport error.
#[derive(Debug, Default)]
struct Sample {
    status: u16,
    body: Vec<u8>,
    latency: Duration,
}

/// Sends `reqs[range]` for each range in turn from [`THREADS`] closed-loop
/// clients; returns every sample in request order (default where not sent)
/// and the wall time of each range.
fn drive(
    port: u16,
    wires: &[Vec<u8>],
    phases: &[std::ops::Range<usize>],
) -> (Vec<Sample>, Vec<Duration>) {
    let slots: Vec<Mutex<Sample>> = wires.iter().map(|_| Mutex::default()).collect();
    let next: Vec<AtomicUsize> = phases.iter().map(|r| AtomicUsize::new(r.start)).collect();
    let barrier = Barrier::new(THREADS);
    let ends = Mutex::new(Vec::with_capacity(phases.len()));
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for (phase, range) in phases.iter().enumerate() {
                    loop {
                        let i = next[phase].fetch_add(1, Ordering::Relaxed);
                        if i >= range.end {
                            break;
                        }
                        let t = Instant::now();
                        let (status, body) = exchange(port, &wires[i]).unwrap_or_default();
                        let latency = t.elapsed();
                        *slots[i].lock().expect("sample slot poisoned") = Sample {
                            status,
                            body,
                            latency,
                        };
                    }
                    if barrier.wait().is_leader() {
                        ends.lock().expect("phase ends poisoned").push(t.elapsed());
                    }
                }
            });
        }
    });
    let ends = ends.into_inner().expect("phase ends poisoned");
    let walls = ends
        .iter()
        .scan(Duration::ZERO, |last, &end| {
            Some(end - std::mem::replace(last, end))
        })
        .collect();
    let samples = slots
        .into_iter()
        .map(|m| m.into_inner().expect("sample slot poisoned"))
        .collect();
    (samples, walls)
}

fn get_json(port: u16, path: &str) -> Result<Value, String> {
    let wire = format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n");
    match exchange(port, wire.as_bytes()) {
        Ok((200, body)) => {
            let text = String::from_utf8(body).map_err(|e| e.to_string())?;
            fetchmech::json::parse(&text).map_err(|e| format!("{path}: {e}"))
        }
        Ok((status, _)) => Err(format!("{path} answered {status}")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

fn counter(metrics: &Value, section: &str, name: &str) -> u64 {
    metrics
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Time spent in each layer for one replayed request.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    parse: Duration,
    frontend: Duration,
    lookup: Duration,
    profile: Duration,
    reorder: Duration,
    layout: Duration,
    input: Duration,
    sim: Duration,
    render: Duration,
    persist: Duration,
    io: Duration,
}

impl Spans {
    fn total(&self) -> Duration {
        self.parse
            + self.frontend
            + self.lookup
            + self.profile
            + self.reorder
            + self.layout
            + self.input
            + self.sim
            + self.render
            + self.persist
            + self.io
    }
}

/// One request answered in-process.
#[derive(Debug, Clone)]
struct Reply {
    status: u16,
    body: String,
    spans: Spans,
    results: Vec<SimResult>,
    /// Computed keys whose block-stream `simulate` result differs from the
    /// per-instruction one the server renders (checked by the replay only).
    stream_mismatches: u64,
}

/// Answers requests in-process through the functions the server's handler
/// calls, timing each call.
struct Replayer {
    lab: Lab,
    limits: Limits,
    store: Option<Store>,
    /// Also simulate each computed key on its block stream and compare.
    check_streams: bool,
}

impl Replayer {
    fn new(store: Option<Store>) -> Self {
        let config = ServeConfig::default();
        // Only the traced replay, the one run with a store, checks streams.
        let check_streams = store.is_some();
        Self {
            lab: Lab::with_threads(config.exp, THREADS),
            limits: Limits {
                default_insts: config.default_insts,
                max_insts: config.max_insts,
                default_deadline_ms: config.default_deadline_ms,
                max_deadline_ms: config.max_deadline_ms,
            },
            store,
            check_streams,
        }
    }

    fn respond(&self, req: &Req, body: &[u8]) -> Reply {
        let mut reply = Reply {
            status: 200,
            body: String::new(),
            spans: Spans::default(),
            results: Vec::new(),
            stream_mismatches: 0,
        };
        if let Err(why) = self.answer(req, body, &mut reply) {
            reply.status = 400;
            reply.body = why;
        }
        reply
    }

    fn answer(&self, req: &Req, body: &[u8], reply: &mut Reply) -> Result<(), String> {
        let spans = &mut reply.spans;
        match req {
            Req::Healthz => {
                let t = Instant::now();
                let programs = self.lab.external_names();
                reply.body = Response::json(200, &api::healthz_json("active", &programs)).body;
                spans.render += t.elapsed();
            }
            Req::Upload { .. } => {
                let t = Instant::now();
                let upload = api::parse_program_upload(body)?;
                spans.parse += t.elapsed();
                let t = Instant::now();
                let lowered = fetchmech_frontend::parse(upload.format, &upload.source)
                    .map_err(|e| e.to_string())?;
                spans.frontend += t.elapsed();
                let t = Instant::now();
                let id = format!("prog-{:016x}", lowered.fingerprint());
                let stats = Value::object([
                    ("funcs", Value::Uint(lowered.program.num_funcs() as u64)),
                    ("blocks", Value::Uint(lowered.program.num_blocks() as u64)),
                    (
                        "branches",
                        Value::Uint(u64::from(lowered.program.num_branches())),
                    ),
                ]);
                let registered = self.lab.intern_name(&id).is_none();
                if registered {
                    self.lab
                        .register_external(&id, lowered.program, lowered.behaviors)?;
                }
                let value = Value::object([
                    ("id", Value::Str(id)),
                    ("registered", Value::Bool(registered)),
                    ("stats", stats),
                ]);
                reply.body = Response::json(200, &value).body;
                spans.render += t.elapsed();
            }
            Req::Simulate(_) => {
                let t = Instant::now();
                let parsed = api::parse_simulate(body, &self.limits, &self.lab)?;
                spans.parse += t.elapsed();
                if let Some(hit) = self.lookup(&parsed.key, spans) {
                    reply.body = hit;
                } else {
                    let (body, result) = self.compute(parsed.key, &parsed.machine, spans);
                    reply.body = body.as_ref().clone();
                    reply.stream_mismatches +=
                        self.stream_mismatch(&parsed.key, &parsed.machine, &result);
                    reply.results.push(result);
                }
            }
            Req::Sweep(_) => {
                let t = Instant::now();
                let parsed = api::parse_sweep(body, &self.limits, &self.lab)?;
                spans.parse += t.elapsed();
                let mut values = Vec::with_capacity(parsed.cells.len());
                for (key, machine) in &parsed.cells {
                    let body = match self.lookup(key, spans) {
                        Some(hit) => hit,
                        None => {
                            let (body, result) = self.compute(*key, machine, spans);
                            reply.stream_mismatches += self.stream_mismatch(key, machine, &result);
                            reply.results.push(result);
                            body.as_ref().clone()
                        }
                    };
                    let t = Instant::now();
                    values.push(fetchmech::json::parse(&body).map_err(|e| e.to_string())?);
                    spans.render += t.elapsed();
                }
                let t = Instant::now();
                let value = Value::object([
                    ("jobs", Value::Uint(values.len() as u64)),
                    ("results", Value::Array(values)),
                ]);
                reply.body = Response::json(200, &value).body;
                spans.render += t.elapsed();
            }
        }
        Ok(())
    }

    fn lookup(&self, key: &SimKey, spans: &mut Spans) -> Option<String> {
        let store = self.store.as_ref()?;
        let t = Instant::now();
        let hit = store.lookup(&key.store_key());
        spans.lookup += t.elapsed();
        hit
    }

    /// 1 if `key` simulated on its block stream gives another result than
    /// the per-instruction `result`, else 0 (and 0 when not checking).
    fn stream_mismatch(&self, key: &SimKey, machine: &MachineModel, result: &SimResult) -> u64 {
        if !self.check_streams {
            return 0;
        }
        let stream = self.lab.stream(trace_key(key, machine));
        u64::from(simulate(machine, key.scheme, &stream) != *result)
    }

    /// What a queued job does for one key: the trace lookup, `simulate`,
    /// one rendering, and the store append. The profile, reordering and
    /// layout the trace lookup would build on first touch are built (and
    /// timed) first.
    fn compute(
        &self,
        key: SimKey,
        machine: &MachineModel,
        spans: &mut Spans,
    ) -> (Arc<String>, SimResult) {
        let lab = &self.lab;
        if key.variant.uses_reordered_program() {
            let t = Instant::now();
            lab.profile(key.bench);
            spans.profile += t.elapsed();
            let t = Instant::now();
            lab.reordered(key.bench);
            spans.reorder += t.elapsed();
        }
        let t = Instant::now();
        lab.layout(key.bench, key.variant, machine.block_bytes);
        spans.layout += t.elapsed();
        let t = Instant::now();
        let trace = lab.trace(trace_key(&key, machine));
        spans.input += t.elapsed();
        let t = Instant::now();
        let result = std::hint::black_box(simulate(machine, key.scheme, &trace));
        spans.sim += t.elapsed();
        let t = Instant::now();
        let body = Arc::new(api::sim_result_json(&key, &result).pretty());
        spans.render += t.elapsed();
        if let Some(store) = &self.store {
            let t = Instant::now();
            store.persist(key.store_key(), &body);
            spans.persist += t.elapsed();
        }
        (body, result)
    }
}

/// The Lab key of the trace (or stream) the engine simulates for `key`.
fn trace_key(key: &SimKey, machine: &MachineModel) -> TraceKey {
    TraceKey {
        bench: key.bench,
        variant: key.variant,
        block_bytes: machine.block_bytes,
        input: InputId::TEST,
        limit: key.insts,
    }
}

/// Splits the HTTP body off a wire request.
fn wire_body(wire: &[u8]) -> &[u8] {
    let at = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("wire requests have a head");
    &wire[at + 4..]
}

/// The expected body of every request, computed in-process on two threads
/// (uploads first, in order, since later requests name their ids).
fn expected_bodies(plan: &Plan, wires: &[Vec<u8>]) -> Vec<Reply> {
    let replayer = Replayer::new(None);
    let uploads = plan
        .reqs
        .iter()
        .take_while(|r| matches!(r, Req::Upload { .. }))
        .count();
    let mut replies: Vec<Reply> = (0..uploads)
        .map(|i| replayer.respond(&plan.reqs[i], wire_body(&wires[i])))
        .collect();
    // Identical requests (the hot mix repeats its keys) are answered once.
    let mut first: HashMap<&[u8], usize> = HashMap::new();
    let distinct: Vec<usize> = (uploads..wires.len())
        .filter(|&i| *first.entry(&wires[i]).or_insert(i) == i)
        .collect();
    let answers = replayer.lab.runner().run(&distinct, |&i| {
        replayer.respond(&plan.reqs[i], wire_body(&wires[i]))
    });
    let by_index: HashMap<usize, Reply> = distinct.into_iter().zip(answers).collect();
    replies.extend((uploads..wires.len()).map(|i| by_index[&first[wires[i].as_slice()]].clone()));
    replies
}

/// Replays the list on one thread through the handler's functions, with a
/// fresh store and a loopback socket for the HTTP layer.
fn replay(plan: &Plan, wires: &[Vec<u8>], store_path: &Path) -> Result<Vec<Reply>, String> {
    let _ = std::fs::remove_file(store_path);
    let config = ServeConfig::default();
    let store = Store::open(store_path, Arc::new(NoFault), config.store_queue)
        .map_err(|e| format!("open replay store: {e}"))?;
    let replayer = Replayer::new(Some(store));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut replies = Vec::with_capacity(wires.len());
    for (i, (req, wire)) in plan.reqs.iter().zip(wires).enumerate() {
        if i == plan.measured {
            // As in the untraced run: the warm-up's appends must be durable
            // before the measured requests look them up.
            let store = replayer.store.as_ref().expect("replay has a store");
            let t = Instant::now();
            while store.stats().persisted.load(Ordering::Relaxed) < plan.warm_keys() {
                if t.elapsed() > READY_TIMEOUT {
                    return Err("replay store did not persist the hot set".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let io = |e: std::io::Error| format!("replay socket: {e}");
        let mut client = TcpStream::connect(addr).map_err(io)?;
        client.write_all(wire).map_err(io)?;
        let (mut conn, _) = listener.accept().map_err(io)?;
        let t = Instant::now();
        let request = http::read_request(&mut conn).map_err(|e| format!("read_request: {e:?}"))?;
        let read = t.elapsed();
        let mut reply = replayer.respond(req, &request.body);
        let response = Response::raw_json(reply.status, reply.body.clone());
        let t = Instant::now();
        response.write_to(&mut conn).map_err(io)?;
        reply.spans.io = read + t.elapsed();
        drop(conn);
        let mut sink = Vec::new();
        client.read_to_end(&mut sink).map_err(io)?;
        replies.push(reply);
    }
    if let Some(store) = &replayer.store {
        store.shutdown();
    }
    let _ = std::fs::remove_file(store_path);
    Ok(replies)
}

/// Waits until the server reports `n` records persisted.
fn await_persisted(port: u16, n: u64) -> Result<(), String> {
    let t = Instant::now();
    while counter(&get_json(port, "/metrics")?, "store", "persisted") < n {
        if t.elapsed() > READY_TIMEOUT {
            return Err("server did not persist the hot set".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

pub fn run(mix: Mix, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let bin = server_binary()?;
    let plan = match mix {
        Mix::Cold => cold_plan(seed, seconds)?,
        Mix::Hot => hot_plan(seed, seconds)?,
    };
    let wires: Vec<Vec<u8>> = plan.reqs.iter().map(Req::wire).collect();
    let scratch = target_dir().join("perfbench");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let store_path = |tag: &str| scratch.join(format!("{tag}-{}.log", std::process::id()));

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::stop(s)?;
        }
        let (s, took) = Server::start(&bin, store_path("store"))?;
        setup.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("SETUP_REPS > 0");
    let pid = server.pid();

    // Warm-up: the cold mix's uploads, or the hot set, computed and made
    // durable so that each measured hot request is a store hit.
    let warm = 0..plan.measured;
    let (mut samples, _) = drive(server.port, &wires, std::slice::from_ref(&warm));
    samples.truncate(plan.measured);
    await_persisted(server.port, plan.warm_keys())?;
    let chunks = plan.chunks();
    let cpu_server = cpu_seconds(&pid)?;
    let cpu_client = cpu_seconds("self")?;
    let (measured, walls) = drive(server.port, &wires, &chunks);
    let cpu_client = cpu_seconds("self")? - cpu_client;
    let cpu_server = cpu_seconds(&pid)? - cpu_server;
    samples.extend(measured.into_iter().skip(plan.measured));
    let metrics = get_json(server.port, "/metrics")?;
    let rss = peak_rss_mb(&pid)?;
    server.stop()?;

    let replies = if trace {
        replay(&plan, &wires, &store_path("replay"))?
    } else {
        expected_bodies(&plan, &wires)
    };
    let mut outcome = Outcome {
        attempted: samples.len() as u64,
        ..Outcome::default()
    };
    for (i, (sample, reply)) in samples.iter().zip(&replies).enumerate() {
        if sample.status != 200 || reply.status != 200 || sample.body != reply.body.as_bytes() {
            if outcome.failed < 5 {
                eprintln!(
                    "perfbench: request {i} got {} (expected {}): {}",
                    sample.status,
                    reply.status,
                    String::from_utf8_lossy(&sample.body[..sample.body.len().min(200)])
                );
            }
            outcome.failed += 1;
        }
    }
    outcome.correct = outcome.failed == 0;

    let window = &samples[plan.measured..];
    let latencies: Vec<f64> = window.iter().map(|s| ms(s.latency)).collect();
    let wall_s: f64 = walls.iter().map(Duration::as_secs_f64).sum();
    if !trace {
        // Each metric is the median over the chunks; `wall_s` is the whole
        // list's, as CHUNKS times the median chunk's.
        let per_chunk = |f: &dyn Fn(&[Sample], f64) -> f64| -> f64 {
            let values: Vec<f64> = chunks
                .iter()
                .zip(&walls)
                .map(|(r, w)| f(&samples[r.clone()], w.as_secs_f64()))
                .collect();
            median(&values)
        };
        let latency = |chunk: &[Sample], p: f64| {
            percentile(&chunk.iter().map(|s| ms(s.latency)).collect::<Vec<_>>(), p)
        };
        outcome.samples = Some(latencies.len());
        outcome.set("setup_s", median(&setup));
        outcome.set("wall_s", CHUNKS as f64 * per_chunk(&|_, w| w));
        outcome.set(
            "throughput_rps",
            per_chunk(&|c, w| c.iter().filter(|s| s.status == 200).count() as f64 / w),
        );
        outcome.set("latency_p50_ms", per_chunk(&|c, _| latency(c, 0.5)));
        outcome.set("latency_p90_ms", per_chunk(&|c, _| latency(c, 0.9)));
        outcome.set("peak_rss_mb", rss);
        return Ok(outcome);
    }

    // Per-layer metrics from the replay, over the measured window.
    let measured = &replies[plan.measured..];
    let simulates: Vec<&Spans> = plan.reqs[plan.measured..]
        .iter()
        .zip(measured)
        .filter(|(r, _)| matches!(r, Req::Simulate(_)))
        .map(|(_, reply)| &reply.spans)
        .collect();
    let layer = |f: fn(&Spans) -> Duration| -> f64 {
        median(&simulates.iter().map(|s| us(f(s))).collect::<Vec<_>>())
    };
    // Input is a mean, not a median: the five schemes of a cold key group
    // share one trace, so most lookups are memo hits and the generation
    // cost lies in the tail. The first-touch profile, reordering and layout
    // builds the server's trace lookup would make are spread the same way.
    let mean = |f: fn(&Spans) -> Duration| -> f64 {
        simulates.iter().map(|s| us(f(s))).sum::<f64>() / simulates.len().max(1) as f64
    };
    let input_us = mean(|s| s.input);
    let builds_us = mean(|s| s.profile + s.reorder + s.layout);
    let layers = [
        ("serve.api.parse_us", layer(|s| s.parse)),
        ("store.lookup_us", layer(|s| s.lookup)),
        ("serve.engine.input_us", input_us),
        ("serve.engine.sim_us", layer(|s| s.sim)),
        ("serve.api.render_us", layer(|s| s.render)),
        ("store.persist_us", layer(|s| s.persist)),
        ("serve.http.io_us", layer(|s| s.io)),
    ];
    let attributed_us: f64 = layers.iter().map(|(_, v)| v).sum::<f64>() + builds_us;
    for (name, value) in layers {
        outcome.set(name, value);
    }
    let simulate_latency: Vec<f64> = plan.reqs[plan.measured..]
        .iter()
        .zip(window)
        .filter(|(r, _)| matches!(r, Req::Simulate(_)))
        .map(|(_, s)| ms(s.latency))
        .collect();
    outcome.set(
        "serve.unattributed_ms",
        median(&simulate_latency) - attributed_us / 1e3,
    );
    let uploads: Vec<f64> = replies
        .iter()
        .filter(|r| r.spans.frontend > Duration::ZERO)
        .map(|r| us(r.spans.frontend))
        .collect();
    outcome.set("frontend.parse_us", median(&uploads));
    let sum = |f: fn(&Spans) -> Duration| -> f64 {
        replies.iter().map(|r| f(&r.spans).as_secs_f64()).sum()
    };
    outcome.set("compiler.profile_s", sum(|s| s.profile));
    outcome.set("compiler.reorder_s", sum(|s| s.reorder));
    outcome.set("isa.layout_s", sum(|s| s.layout));
    let traced: Vec<f64> = measured.iter().map(|r| ms(r.spans.total())).collect();
    outcome.set("trace.overhead_ratio", median(&traced) / median(&latencies));

    let total =
        |f: fn(&SimResult) -> u64| -> u64 { replies.iter().flat_map(|r| &r.results).map(f).sum() };
    let (cycles, retired) = (total(|r| r.cycles), total(|r| r.retired));
    let sim_ns = sum(|s| s.sim) * 1e9;
    if retired > 0 {
        outcome.set("sim.ns_per_inst", sim_ns / retired as f64);
        outcome.set("sim.ns_per_cycle", sim_ns / cycles as f64);
    }
    outcome.count("sim.cycles", cycles);
    outcome.count("sim.retired", retired);
    outcome.count("cache.accesses", total(|r| r.icache.accesses));
    outcome.count("cache.misses", total(|r| r.icache.misses));
    outcome.count("bpred.btb_lookups", total(|r| r.btb.lookups));
    outcome.count("bpred.btb_hits", total(|r| r.btb.hits));
    outcome.count("unit.packets", total(|r| r.fetch.packets));
    outcome.count("unit.mispredicts", total(|r| r.fetch.mispredicts));
    outcome.count("unit.bank_conflicts", total(|r| r.fetch.bank_conflicts));

    // Exact-count check: every computed key's per-instruction result, the
    // one the server renders, must equal its block-stream result.
    let checked = replies.iter().map(|r| r.results.len() as u64).sum::<u64>();
    let count_mismatches = replies.iter().map(|r| r.stream_mismatches).sum::<u64>();
    if count_mismatches > 0 {
        eprintln!(
            "perfbench: {count_mismatches} of {checked} keys simulate differently on block streams"
        );
    }
    outcome.count("check.count_mismatches", count_mismatches);
    outcome.attempted += checked;
    outcome.failed += count_mismatches;
    outcome.correct = outcome.failed == 0;

    // Counters the server reported after the untraced run.
    for (name, section, key) in [
        ("engine.jobs_enqueued", "jobs", "enqueued"),
        ("engine.jobs_coalesced", "jobs", "coalesced"),
        ("engine.jobs_shed", "jobs", "shed"),
        ("store.hits", "store", "hits"),
        ("store.persisted", "store", "persisted"),
        ("store.dropped", "store", "dropped"),
        ("lab.trace_generations", "lab_cache", "trace_generations"),
        ("lab.trace_hits", "lab_cache", "trace_hits"),
        ("lab.stream_builds", "lab_cache", "stream_builds"),
        ("lab.stream_hits", "lab_cache", "stream_hits"),
        ("lab.layout_builds", "lab_cache", "layout_builds"),
        (
            "lab.profile_collections",
            "lab_cache",
            "profile_collections",
        ),
    ] {
        outcome.count(name, counter(&metrics, section, key));
    }
    outcome.set(
        "runner.cpu_utilization",
        cpu_server / (wall_s * THREADS as f64),
    );
    outcome.set(
        "loadgen.cpu_us_per_req",
        cpu_client * 1e6 / window.len() as f64,
    );
    Ok(outcome)
}
