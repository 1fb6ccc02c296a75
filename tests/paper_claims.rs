//! The paper's headline qualitative claims, checked end-to-end on reduced
//! trace lengths. (The `report` binary regenerates the full tables, and CI
//! diffs them against `perfbench/expected/paper/`; these tests pin the
//! *shape* so regressions are caught by `cargo test`.)

use fetchmech::experiments::{ExpConfig, Fig10, Fig12, Fig3, Fig9, Lab, Table2, Table3, Table4};
use fetchmech::workloads::WorkloadClass;
use fetchmech::SchemeKind;

fn lab() -> Lab {
    Lab::new(ExpConfig::quick())
}

#[test]
fn claim_better_fetching_is_needed_at_high_issue_rates() {
    // Figure 3: the sequential-vs-perfect gap grows with issue rate for
    // integer code and is smallest for FP on P14.
    let fig = Fig3::run(&lab());
    let int = fig.class_rows(WorkloadClass::Int);
    assert!(int[0].headroom() < int[2].headroom());
    for r in &fig.rows {
        assert!(r.perfect > r.sequential);
    }
}

#[test]
fn claim_intra_block_branches_grow_with_block_size() {
    // Table 2: the phenomenon that motivates the collapsing buffer.
    let t = Table2::run(&lab());
    let grew = t.rows.iter().filter(|r| r.pct[2] > r.pct[0] + 5.0).count();
    assert!(grew >= 10, "only {grew}/15 benchmarks grew substantially");
    // Integer codes dominate at small blocks.
    let int_mean: f64 = t
        .rows
        .iter()
        .filter(|r| r.class == WorkloadClass::Int)
        .map(|r| r.pct[0])
        .sum::<f64>()
        / 9.0;
    let fp_wo_outliers: f64 = t
        .rows
        .iter()
        .filter(|r| r.class == WorkloadClass::Fp)
        .map(|r| r.pct[0])
        .sum::<f64>()
        / 6.0;
    assert!(
        int_mean > 0.5 * fp_wo_outliers,
        "int {int_mean} vs fp {fp_wo_outliers}"
    );
}

#[test]
fn claim_collapsing_buffer_is_the_most_robust_scheme() {
    // Figure 9 ordering plus Figure 10 scalability in one pass.
    let lab = lab();
    let fig9 = Fig9::run(&lab);
    for r in &fig9.rows {
        let coll = r.ipc_of(SchemeKind::CollapsingBuffer);
        for other in [
            SchemeKind::Sequential,
            SchemeKind::InterleavedSequential,
            SchemeKind::BankedSequential,
        ] {
            assert!(
                coll >= r.ipc_of(other) - 0.03,
                "{} {:?}: collapsing {} < {} {}",
                r.machine,
                r.class,
                coll,
                other,
                r.ipc_of(other)
            );
        }
    }
    let fig10 = Fig10::run(&lab);
    for class in [WorkloadClass::Int, WorkloadClass::Fp] {
        let series = fig10.series(SchemeKind::CollapsingBuffer, class);
        // "consistently aligns instructions in excess of 90% of the time,
        // over a wide range of issue rates" — allow a little slack for the
        // reduced test config.
        for (i, v) in series.iter().enumerate() {
            assert!(*v >= 85.0, "{class:?} machine #{i}: collapsing ratio {v}");
        }
    }
}

#[test]
fn claim_sequential_decays_with_issue_rate() {
    // Figure 10: the other schemes decrease in relative efficiency from P14
    // to P112.
    let fig = Fig10::run(&lab());
    for class in [WorkloadClass::Int, WorkloadClass::Fp] {
        let seq = fig.series(SchemeKind::Sequential, class);
        assert!(
            seq[2] < seq[0] - 5.0,
            "{class:?}: sequential ratio should decay, got {seq:?}"
        );
    }
}

#[test]
fn claim_reordering_significantly_enhances_all_schemes() {
    let lab = lab();
    let fig12 = Fig12::run(&lab);
    for r in &fig12.rows {
        assert!(r.reordered_of(SchemeKind::Sequential) > r.sequential_unordered);
        // "when collapsing buffer is used with reordering, it nearly matches
        // the performance of perfect(reordered)".
        assert!(
            r.reordered_of(SchemeKind::CollapsingBuffer)
                > 0.88 * r.reordered_of(SchemeKind::Perfect)
        );
    }
    let t3 = Table3::run(&lab);
    let mean: f64 = t3.rows.iter().map(|r| r.reduction_pct()).sum::<f64>() / t3.rows.len() as f64;
    assert!(
        mean > 15.0,
        "mean taken-branch reduction {mean:.1}% below the paper's ballpark"
    );
}

#[test]
fn claim_pad_trace_is_a_cheap_refinement_and_pad_all_is_not() {
    let t4 = Table4::run(&lab());
    for r in &t4.rows {
        // "Pad-trace introduces significantly less nops than pad-all."
        for i in 0..3 {
            assert!(
                r.pad_trace[i] < r.pad_all[i] * 0.6,
                "{}[{i}]: pad-trace {:.1}% vs pad-all {:.1}%",
                r.bench,
                r.pad_trace[i],
                r.pad_all[i]
            );
        }
        // "pad-all appears to be unjustified ... its benefit is more than
        // offset by code expansion" — expansion beyond 100% at 64 B.
        assert!(r.pad_all[2] > 100.0, "{}: {:?}", r.bench, r.pad_all);
    }
}
