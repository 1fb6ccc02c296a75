//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release --bin report -- [--quick] [EXPERIMENT...]
//! ```
//!
//! With no experiment names, everything runs in paper order. Valid names:
//! `machines`, `fig3`, `table2`, `fig9`, `fig10`, `fig11`, `fig12`,
//! `table3`, `table4`, `fig13`.

use std::process::ExitCode;

use fetchmech::experiments::{
    Ablations, ExpConfig, ExtPredictors, Fig10, Fig11, Fig12, Fig13, Fig3, Fig9, Lab, Table2,
    Table3, Table4,
};
use fetchmech::pipeline::MachineModel;

const ALL: [&str; 12] = [
    "machines",
    "fig3",
    "table2",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table3",
    "table4",
    "fig13",
    "predictors",
    "ablations",
];

fn main() -> ExitCode {
    let mut quick = false;
    let mut wanted: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                eprintln!("usage: report [--quick] [{}]", ALL.join("|"));
                return ExitCode::SUCCESS;
            }
            name if ALL.contains(&name) => wanted.push(name.to_owned()),
            other => {
                eprintln!("unknown experiment {other:?}; valid: {}", ALL.join(", "));
                return ExitCode::FAILURE;
            }
        }
    }
    if wanted.is_empty() {
        wanted = ALL.iter().map(|s| (*s).to_owned()).collect();
    }
    let cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    let lab = Lab::new(cfg);
    eprintln!(
        "# fetchmech report ({} mode: {} insts/run, {} insts/profile-input, {} worker threads)",
        if quick { "quick" } else { "full" },
        cfg.trace_len,
        cfg.profile_len,
        lab.runner().threads()
    );
    for name in wanted {
        eprintln!("# running {name} ...");
        match name.as_str() {
            "machines" => {
                println!("Table 1: machine models");
                for m in MachineModel::paper_models() {
                    println!("  {m}");
                }
                println!("\nFigure 6/8 hardware costs (per machine's instructions-per-block):");
                for m in MachineModel::paper_models() {
                    println!("  {} (k = {}):", m.name, m.insts_per_block());
                    for s in fetchmech::all_structures(m.insts_per_block()) {
                        println!("    {s}");
                    }
                }
                println!();
            }
            "fig3" => println!("{}", Fig3::run(&lab)),
            "table2" => println!("{}", Table2::run(&lab)),
            "fig9" => println!("{}", Fig9::run(&lab)),
            "fig10" => println!("{}", Fig10::run(&lab)),
            "fig11" => println!("{}", Fig11::run(&lab)),
            "fig12" => println!("{}", Fig12::run(&lab)),
            "table3" => println!("{}", Table3::run(&lab)),
            "table4" => println!("{}", Table4::run(&lab)),
            "fig13" => println!("{}", Fig13::run(&lab)),
            "predictors" => println!("{}", ExtPredictors::run(&lab)),
            "ablations" => println!("{}", Ablations::run(&lab)),
            _ => unreachable!("validated above"),
        }
    }
    let stats = lab.cache_stats();
    eprintln!(
        "# shared caches: {} streams built / {} hits, {} traces generated / {} hits, \
         {} layouts built / {} hits, {} profiles collected, {} reorderings",
        stats.stream_builds,
        stats.stream_hits,
        stats.trace_generations,
        stats.trace_hits,
        stats.layout_builds,
        stats.layout_hits,
        stats.profile_collections,
        stats.reorder_builds
    );
    ExitCode::SUCCESS
}
