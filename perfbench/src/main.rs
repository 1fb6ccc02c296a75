//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|serve_cold|serve_hot --seed N --seconds S --trace 0|1 [--pin]
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with nothing timed inside the work; `--trace 1` repeats the
//! untraced run, then times each layer's public functions from this
//! package and prints the per-layer metrics. `--pin` (paper only) rewrites
//! the pinned report and exact counts under `perfbench/expected/` from the
//! code as it is. Every metric is printed by name with its unit; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use fetchmech::json::Value;

mod paper;
mod serve;

/// Worker threads and client connections: the 2 cores of the reference host.
const THREADS: usize = 2;

/// End-to-end metrics, printed by `--trace 0` for every workload. The tail
/// is p90, not p99: the server's 5 ms accept poll quantises `serve_hot`
/// latencies, and their p99 jumps between about 5.5 and 9 ms with whether
/// host load makes more than 1% of requests miss one poll tick.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1` for every workload. A layer
/// the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("compiler.profile_s", "s"),
    ("compiler.reorder_s", "s"),
    ("isa.layout_s", "s"),
    ("workloads.stream_build_s", "s"),
    ("experiments.machines_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.table2_s", "s"),
    ("experiments.fig9_s", "s"),
    ("experiments.fig10_s", "s"),
    ("experiments.fig11_s", "s"),
    ("experiments.fig12_s", "s"),
    ("experiments.table3_s", "s"),
    ("experiments.table4_s", "s"),
    ("experiments.fig13_s", "s"),
    ("experiments.predictors_s", "s"),
    ("experiments.ablations_s", "s"),
    ("runner.cpu_utilization", "ratio"),
    ("sim.ns_per_inst", "ns"),
    ("sim.ns_per_cycle", "ns"),
    ("eir.ns_per_inst", "ns"),
    ("sim.cycles", "count"),
    ("sim.retired", "count"),
    ("eir.cycles", "count"),
    ("cache.accesses", "count"),
    ("cache.misses", "count"),
    ("bpred.btb_lookups", "count"),
    ("bpred.btb_hits", "count"),
    ("unit.packets", "count"),
    ("unit.mispredicts", "count"),
    ("unit.bank_conflicts", "count"),
    ("workloads.stream_records", "count"),
    ("lab.stream_builds", "count"),
    ("lab.stream_hits", "count"),
    ("lab.layout_builds", "count"),
    ("lab.profile_collections", "count"),
    ("lab.trace_generations", "count"),
    ("lab.trace_hits", "count"),
    ("serve.api.parse_us", "us"),
    ("frontend.parse_us", "us"),
    ("serve.engine.input_us", "us"),
    ("serve.engine.sim_us", "us"),
    ("serve.api.render_us", "us"),
    ("store.persist_us", "us"),
    ("store.lookup_us", "us"),
    ("serve.http.io_us", "us"),
    ("serve.unattributed_ms", "ms"),
    ("engine.jobs_enqueued", "count"),
    ("engine.jobs_coalesced", "count"),
    ("engine.jobs_shed", "count"),
    ("store.hits", "count"),
    ("store.persisted", "count"),
    ("store.dropped", "count"),
    ("loadgen.cpu_us_per_req", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("check.count_mismatches", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Operations attempted (report sections or HTTP requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Whether every checked output matched.
    pub correct: bool,
    /// Metric values by name; names must come from the tables above.
    pub metrics: BTreeMap<&'static str, Value>,
    /// Sample counts behind the latency percentiles, for the summary.
    pub samples: Option<usize>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Value::Num(value));
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.metrics.insert(name, Value::Uint(value));
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => match value("--trace")?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--pin" => args.pin = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper" if args.pin => {
            return match paper::pin() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "paper" => paper::run(args.trace),
        _ if args.pin => Err("--pin applies to the paper workload only".to_string()),
        "serve_cold" => serve::run(serve::Mix::Cold, args.seed, args.seconds, args.trace),
        "serve_hot" => serve::run(serve::Mix::Hot, args.seed, args.seconds, args.trace),
        other => Err(format!(
            "unknown workload {other:?} (expected paper, serve_cold or serve_hot)"
        )),
    };
    match result {
        Ok(outcome) => {
            print_outcome(&outcome, args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the metric table of the selected mode, then the result line.
fn print_outcome(outcome: &Outcome, trace: bool) {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for name in outcome.metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the {} table",
            if trace { "per-layer" } else { "end-to-end" }
        );
    }
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).cloned().unwrap_or(Value::Uint(0));
        let note = match (name, outcome.samples) {
            ("latency_p50_ms" | "latency_p90_ms", Some(n)) => format!("  (n={n})"),
            _ => String::new(),
        };
        println!("{name:<28} {:>16} {unit}{note}", value.render());
        metrics.push((
            name,
            Value::object([("value", value), ("unit", Value::Str(unit.to_string()))]),
        ));
    }
    println!(
        "attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    let line = Value::object([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Uint(outcome.attempted)),
        ("failed", Value::Uint(outcome.failed)),
        ("metrics", Value::object(metrics)),
    ]);
    println!("{}", line.render());
}

/// Median of `xs` (mean of the two middle values for an even count).
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 1) of `xs`.
pub(crate) fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub(crate) fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set (`VmHWM`) of `pid` ("self" for this process), in MB.
pub(crate) fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time of every thread of `pid`, in seconds. Linux
/// reports it in clock ticks of 1/100 s.
pub(crate) fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed /proc/{pid}/stat"))
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}
