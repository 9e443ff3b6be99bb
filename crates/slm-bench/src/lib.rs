//! Shared helpers for the benchmark harness.
//!
//! The benches in this crate have two jobs:
//!
//! 1. **Regenerate figure data** — each `fig*` bench first runs the
//!    corresponding experiment once at bench scale and prints the same
//!    series/summary the paper plots (captured in `bench_output.txt`).
//! 2. **Measure** — the timed loop then exercises the computational
//!    kernel behind the figure, so regressions in the simulation stack
//!    show up as bench deltas.

use serde::Serialize;
use slm_core::experiments::{run_cpa_with, CpaExperiment, CpaResult};

/// Whether `SLM_BENCH_QUICK` asks for the reduced CI budgets.
pub fn quick() -> bool {
    std::env::var("SLM_BENCH_QUICK").is_ok()
}

/// Writes `record` as pretty JSON to `file` at the workspace root and
/// returns the path written.
///
/// # Panics
///
/// When the workspace root is not writable.
pub fn write_bench_json(file: &str, record: &impl Serialize) -> String {
    let json =
        serde_json::to_string_pretty(record).expect("bench record serialization is infallible");
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json + "\n").expect("workspace root is writable");
    path
}

/// Runs a CPA experiment and prints the figure-style summary.
pub fn run_and_report(label: &str, exp: &CpaExperiment) -> CpaResult {
    let start = std::time::Instant::now();
    let r = run_cpa_with(exp, |_| {}).expect("fabric builds");
    let ok = r.recovered_key_byte == Some(r.correct_key_byte);
    println!(
        "[{label}] traces={} recovered={} mtd={:?} bits_of_interest={} selected_bit={:?} elapsed={:.1?}",
        r.traces,
        ok,
        r.mtd,
        r.bits_of_interest.len(),
        r.selected_bit,
        start.elapsed()
    );
    for p in &r.progress {
        println!(
            "[{label}] progress traces={} correct_peak={:+.4} best_wrong={:+.4}",
            p.traces,
            p.peak_corr[r.correct_key_byte as usize],
            p.peak_corr[r.correct_key_byte as usize] - p.margin(r.correct_key_byte),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use slm_core::experiments::SensorSource;
    use slm_fabric::BenignCircuit;

    #[test]
    fn report_helper_runs() {
        let r = run_and_report(
            "smoke",
            &CpaExperiment {
                circuit: BenignCircuit::DualC6288,
                source: SensorSource::TdcAll,
                traces: 300,
                checkpoints: 3,
                pilot_traces: 20,
                seed: 1,
            },
        );
        assert_eq!(r.traces, 300);
    }
}
