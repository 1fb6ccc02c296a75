//! The `paper` workload: every section of the paper report, run through the
//! public `fetchmech::experiments` `run` functions on one `Lab` with two
//! worker threads, checked against the report pinned under `expected/paper/`.
//!
//! The paper's inputs are the fixed benchmark suite, so this workload does
//! not use the seed.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use fetchmech::experiments::{
    Ablations, ExpConfig, ExtPredictors, Fig10, Fig11, Fig12, Fig13, Fig3, Fig9, Lab,
    LayoutVariant, Table2, Table3, Table4,
};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::WorkloadClass;
use fetchmech::{measure_eir, simulate, SchemeKind};

use crate::{cpu_seconds, median, peak_rss_mb, percentile, Outcome, THREADS};

/// Report sections in paper order, with the per-layer metric naming each.
const SECTIONS: [(&str, &str); 12] = [
    ("machines", "experiments.machines_s"),
    ("fig3", "experiments.fig3_s"),
    ("table2", "experiments.table2_s"),
    ("fig9", "experiments.fig9_s"),
    ("fig10", "experiments.fig10_s"),
    ("fig11", "experiments.fig11_s"),
    ("fig12", "experiments.fig12_s"),
    ("table3", "experiments.table3_s"),
    ("table4", "experiments.table4_s"),
    ("fig13", "experiments.fig13_s"),
    ("predictors", "experiments.predictors_s"),
    ("ablations", "experiments.ablations_s"),
];

/// The report as pinned from the code at the commit that added this
/// benchmark, one file per section.
const PINNED: [&str; 12] = [
    include_str!("../expected/paper/machines.txt"),
    include_str!("../expected/paper/fig3.txt"),
    include_str!("../expected/paper/table2.txt"),
    include_str!("../expected/paper/fig9.txt"),
    include_str!("../expected/paper/fig10.txt"),
    include_str!("../expected/paper/fig11.txt"),
    include_str!("../expected/paper/fig12.txt"),
    include_str!("../expected/paper/table3.txt"),
    include_str!("../expected/paper/table4.txt"),
    include_str!("../expected/paper/fig13.txt"),
    include_str!("../expected/paper/predictors.txt"),
    include_str!("../expected/paper/ablations.txt"),
];

/// Exact work counts of the traced run, as `name value` lines.
const PINNED_COUNTS: &str = include_str!("../expected/paper_counts.txt");

/// Full regenerations per untraced run, each on a fresh Lab; `wall_s` is
/// their median.
const WALL_REPS: usize = 3;
/// Lab constructions timed before each regeneration; `setup_s` is the
/// median over all of them.
const SETUP_REPS: usize = 40;

/// Renders one section exactly as the paper report prints it.
fn render(lab: &Lab, section: &str) -> String {
    match section {
        "machines" => {
            let mut out = String::from("Table 1: machine models\n");
            for m in MachineModel::paper_models() {
                let _ = writeln!(out, "  {m}");
            }
            out.push_str("\nFigure 6/8 hardware costs (per machine's instructions-per-block):\n");
            for m in MachineModel::paper_models() {
                let _ = writeln!(out, "  {} (k = {}):", m.name, m.insts_per_block());
                for s in fetchmech::all_structures(m.insts_per_block()) {
                    let _ = writeln!(out, "    {s}");
                }
            }
            out.push('\n');
            out
        }
        "fig3" => format!("{}\n", Fig3::run(lab)),
        "table2" => format!("{}\n", Table2::run(lab)),
        "fig9" => format!("{}\n", Fig9::run(lab)),
        "fig10" => format!("{}\n", Fig10::run(lab)),
        "fig11" => format!("{}\n", Fig11::run(lab)),
        "fig12" => format!("{}\n", Fig12::run(lab)),
        "table3" => format!("{}\n", Table3::run(lab)),
        "table4" => format!("{}\n", Table4::run(lab)),
        "fig13" => format!("{}\n", Fig13::run(lab)),
        "predictors" => format!("{}\n", ExtPredictors::run(lab)),
        "ablations" => format!("{}\n", Ablations::run(lab)),
        other => unreachable!("unknown section {other}"),
    }
}

fn new_lab() -> Lab {
    Lab::with_threads(ExpConfig::full(), THREADS)
}

/// Runs every section on `lab`, returning each one's output and wall time.
fn run_sections(lab: &Lab) -> Vec<(String, Duration)> {
    SECTIONS
        .iter()
        .map(|(name, _)| {
            let t = Instant::now();
            let out = render(lab, name);
            (out, t.elapsed())
        })
        .collect()
}

/// Counts sections whose output differs from the pinned report.
fn mismatches(outputs: &[(String, Duration)]) -> u64 {
    let mut bad = 0;
    for (((name, _), (out, _)), pinned) in SECTIONS.iter().zip(outputs).zip(PINNED) {
        if out != pinned {
            eprintln!("perfbench: paper section {name} differs from expected/paper/{name}.txt");
            bad += 1;
        }
    }
    bad
}

pub fn run(trace: bool) -> Result<Outcome, String> {
    // The traced run regenerates once untraced, for the overhead ratio.
    let reps = if trace { 1 } else { WALL_REPS };
    let mut outcome = Outcome::default();
    let (mut setup, mut walls) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        // Set-up: build the Lab (the suite's programs and empty caches)
        // several times and keep the last one for the regeneration.
        let mut lab = None;
        for _ in 0..SETUP_REPS {
            drop(lab.take());
            let t = Instant::now();
            lab = Some(new_lab());
            setup.push(t.elapsed().as_secs_f64());
        }
        let lab = lab.expect("SETUP_REPS > 0");
        let t = Instant::now();
        let outputs = run_sections(&lab);
        walls.push(t.elapsed().as_secs_f64());
        drop(lab);
        outcome.attempted += SECTIONS.len() as u64;
        outcome.failed += mismatches(&outputs);
    }
    let wall = median(&walls);
    if trace {
        let exact = traced(&mut outcome, wall)?;
        let mut count_mismatches = 0;
        for (name, value) in exact {
            let pinned = PINNED_COUNTS
                .lines()
                .find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok());
            if pinned != Some(value) {
                eprintln!("perfbench: {name} = {value}, pinned {pinned:?}");
                count_mismatches += 1;
            }
        }
        outcome.count("check.count_mismatches", count_mismatches);
        outcome.attempted += 1;
        outcome.failed += u64::from(count_mismatches > 0);
    } else {
        // The job is the whole report: its latency is a regeneration's
        // wall time and its throughput reports per second.
        let latencies: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        outcome.samples = Some(latencies.len());
        outcome.set("setup_s", median(&setup));
        outcome.set("wall_s", wall);
        outcome.set("throughput_rps", 1.0 / wall);
        outcome.set("latency_p50_ms", median(&latencies));
        outcome.set("latency_p90_ms", percentile(&latencies, 0.9));
        outcome.set("peak_rss_mb", peak_rss_mb("self")?);
    }
    outcome.correct = outcome.failed == 0;
    Ok(outcome)
}

/// Exact counts summed by the traced run.
#[derive(Debug, Default)]
struct Counts {
    sim_cycles: u64,
    sim_retired: u64,
    eir_cycles: u64,
    eir_delivered: u64,
    cache_accesses: u64,
    cache_misses: u64,
    btb_lookups: u64,
    btb_hits: u64,
    packets: u64,
    mispredicts: u64,
    bank_conflicts: u64,
    stream_records: u64,
}

/// The traced run: warm each layer of a fresh Lab under a timer, rerun the
/// sections on it, then time `simulate` and `measure_eir` alone. Returns
/// the exact counts `expected/paper_counts.txt` pins.
fn traced(outcome: &mut Outcome, untraced_wall: f64) -> Result<[(&'static str, u64); 15], String> {
    let lab = new_lab();
    let mut counts = Counts::default();

    // Layer warm-up, one thread, covering exactly the profiles, layouts and
    // streams the sections draw on: every benchmark's natural layout, and
    // the integer benchmarks' padded and reordered ones (Figures 12, 13).
    let (mut profile, mut reorder, mut layout, mut stream) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let int = lab.class_names(WorkloadClass::Int);
    let all: Vec<&'static str> = int
        .iter()
        .copied()
        .chain(lab.class_names(WorkloadClass::Fp))
        .collect();
    let warm_start = Instant::now();
    for &bench in &all {
        let t = Instant::now();
        lab.profile(bench);
        profile += t.elapsed();
        let t = Instant::now();
        lab.reordered(bench);
        reorder += t.elapsed();
        let variants: &[LayoutVariant] = if int.contains(&bench) {
            &LayoutVariant::ALL
        } else {
            &[LayoutVariant::Natural]
        };
        for m in MachineModel::paper_models() {
            for &variant in variants {
                let t = Instant::now();
                lab.layout(bench, variant, m.block_bytes);
                layout += t.elapsed();
                let t = Instant::now();
                let s = lab.test_stream(bench, variant, m.block_bytes);
                stream += t.elapsed();
                counts.stream_records += s.records().len() as u64;
            }
        }
    }
    let warm = warm_start.elapsed().as_secs_f64();

    // Sections on the warmed Lab, two worker threads.
    let cpu0 = cpu_seconds("self")?;
    let t = Instant::now();
    let outputs = run_sections(&lab);
    let sections_wall = t.elapsed().as_secs_f64();
    let cpu = cpu_seconds("self")? - cpu0;
    outcome.attempted += SECTIONS.len() as u64;
    outcome.failed += mismatches(&outputs);
    for ((_, metric), (_, d)) in SECTIONS.iter().zip(&outputs) {
        outcome.set(metric, d.as_secs_f64());
    }

    // Host time of the simulator alone: one thread, block streams, natural
    // layout, 15 benchmarks x 5 schemes x 3 machines.
    let (mut sim_time, mut eir_time) = (Duration::ZERO, Duration::ZERO);
    for &bench in &all {
        for m in MachineModel::paper_models() {
            let s = lab.test_stream(bench, LayoutVariant::Natural, m.block_bytes);
            for scheme in SchemeKind::ALL {
                let t = Instant::now();
                let r = std::hint::black_box(simulate(&m, scheme, &s));
                sim_time += t.elapsed();
                let t = Instant::now();
                let e = std::hint::black_box(measure_eir(&m, scheme, &s));
                eir_time += t.elapsed();
                counts.sim_cycles += r.cycles;
                counts.sim_retired += r.retired;
                counts.cache_accesses += r.icache.accesses;
                counts.cache_misses += r.icache.misses;
                counts.btb_lookups += r.btb.lookups;
                counts.btb_hits += r.btb.hits;
                counts.packets += r.fetch.packets;
                counts.mispredicts += r.fetch.mispredicts;
                counts.bank_conflicts += r.fetch.bank_conflicts;
                counts.eir_cycles += e.cycles;
                counts.eir_delivered += e.delivered;
            }
        }
    }
    let stats = lab.cache_stats();

    outcome.set("compiler.profile_s", profile.as_secs_f64());
    outcome.set("compiler.reorder_s", reorder.as_secs_f64());
    outcome.set("isa.layout_s", layout.as_secs_f64());
    outcome.set("workloads.stream_build_s", stream.as_secs_f64());
    outcome.set(
        "runner.cpu_utilization",
        cpu / (sections_wall * THREADS as f64),
    );
    outcome.set(
        "sim.ns_per_inst",
        sim_time.as_secs_f64() * 1e9 / counts.sim_retired as f64,
    );
    outcome.set(
        "sim.ns_per_cycle",
        sim_time.as_secs_f64() * 1e9 / counts.sim_cycles as f64,
    );
    outcome.set(
        "eir.ns_per_inst",
        eir_time.as_secs_f64() * 1e9 / counts.eir_delivered as f64,
    );
    let exact: [(&'static str, u64); 15] = [
        ("sim.cycles", counts.sim_cycles),
        ("sim.retired", counts.sim_retired),
        ("eir.cycles", counts.eir_cycles),
        ("cache.accesses", counts.cache_accesses),
        ("cache.misses", counts.cache_misses),
        ("bpred.btb_lookups", counts.btb_lookups),
        ("bpred.btb_hits", counts.btb_hits),
        ("unit.packets", counts.packets),
        ("unit.mispredicts", counts.mispredicts),
        ("unit.bank_conflicts", counts.bank_conflicts),
        ("workloads.stream_records", counts.stream_records),
        ("lab.stream_builds", stats.stream_builds),
        ("lab.stream_hits", stats.stream_hits),
        ("lab.layout_builds", stats.layout_builds),
        ("lab.profile_collections", stats.profile_collections),
    ];
    for (name, value) in exact {
        outcome.count(name, value);
    }
    outcome.count("lab.trace_generations", stats.trace_generations);
    outcome.count("lab.trace_hits", stats.trace_hits);
    outcome.set(
        "trace.overhead_ratio",
        (warm + sections_wall) / untraced_wall,
    );
    Ok(exact)
}

/// Rewrites the pinned report and counts under `expected/` from the code
/// as it is; the benchmark must be rebuilt to check against them.
pub fn pin() -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    let lab = new_lab();
    let outputs = run_sections(&lab);
    drop(lab);
    for ((name, _), (out, _)) in SECTIONS.iter().zip(&outputs) {
        let path = dir.join("paper").join(format!("{name}.txt"));
        std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let mut text = String::new();
    for (name, value) in traced(&mut Outcome::default(), 1.0)? {
        let _ = writeln!(text, "{name} {value}");
    }
    let path = dir.join("paper_counts.txt");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: pinned the report and counts under {}",
        dir.display()
    );
    Ok(())
}
