//! One bench group per paper figure. Each group prints the figure's
//! series/summary once (the reproduction record) and then times the
//! underlying kernel.
//!
//! Scale note: the paper's campaigns run to 500 k traces on silicon; the
//! bench-scale runs here use smaller budgets whose *shape* (who wins, by
//! how much, MTD ordering) matches — see EXPERIMENTS.md for the mapping.

use criterion::{criterion_group, criterion_main, Criterion};
use slm_bench::{quick, run_and_report};
use slm_core::experiments::{
    activity_study, atpg_stimulus_study, floorplan_views, ro_response, stealth_audit, timing_audit,
    CpaExperiment, SensorSource,
};
use slm_core::report;
use slm_fabric::{BenignCircuit, FabricConfig, MultiTenantFabric};
use std::hint::black_box;
use std::sync::OnceLock;

/// Trace budget helper: full bench scale unless SLM_BENCH_QUICK is set.
fn budget(full: u64) -> u64 {
    if quick() {
        (full / 50).max(200)
    } else {
        full
    }
}

fn fig03_04_floorplans(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        for circuit in [BenignCircuit::Alu192, BenignCircuit::DualC6288] {
            let v = floorplan_views(circuit, 49, 7).unwrap();
            println!(
                "[fig03/04] {} benign_density={:.3} tdc_density={:.3} sensitive={}",
                v.name, v.benign_density, v.tdc_density, v.sensitive_cells
            );
        }
    });
    c.bench_function("fig03_04_floorplan_place_and_render", |b| {
        b.iter(|| floorplan_views(black_box(BenignCircuit::Alu192), 49, 7).unwrap())
    });
}

fn fig05_alu_raw_ro(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let r = ro_response(BenignCircuit::Alu192, 240, 1).unwrap();
        let vals: Vec<f64> = r.raw_values.iter().map(|&v| (v & 0xffff) as f64).collect();
        print!(
            "{}",
            report::series_table(
                "fig05: raw ALU word (low bits) per sample",
                "sample",
                "raw",
                &vals
            )
        );
        println!("[fig05] sensitive_bits={}", r.sensitive_bits.len());
    });
    c.bench_function("fig05_alu_ro_response_240_samples", |b| {
        b.iter(|| ro_response(black_box(BenignCircuit::Alu192), 240, 1).unwrap())
    });
}

fn fig06_tdc_vs_alu(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let r = ro_response(BenignCircuit::Alu192, 240, 2).unwrap();
        println!("[fig06] sample tdc hw_alu ro_enabled");
        for i in 0..r.tdc.len() {
            println!(
                "[fig06] {} {} {} {}",
                i, r.tdc[i], r.hw_sensitive[i], r.ro_enabled[i]
            );
        }
    });
    c.bench_function("fig06_dual_sensor_ro_burst", |b| {
        b.iter(|| ro_response(black_box(BenignCircuit::Alu192), 120, 2).unwrap())
    });
}

fn fig07_08_alu_census(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let s = activity_study(BenignCircuit::Alu192, 3000, 3).unwrap();
        println!(
            "[fig07] alu total={} ro_sensitive={} aes={} intersection={} aes_only={} unaffected={}",
            s.census.total,
            s.census.ro_sensitive.len(),
            s.census.aes_sensitive.len(),
            s.census.intersection.len(),
            s.census.aes_only.len(),
            s.census.unaffected
        );
        println!("[fig08] endpoint var_ro var_aes");
        for (i, vro, vaes) in &s.variance.rows {
            println!("[fig08] {i} {vro:.5} {vaes:.5}");
        }
        println!(
            "[fig08] best_aes_endpoint={:?}",
            s.variance.best_aes_endpoint
        );
    });
    c.bench_function("fig07_08_alu_activity_study_600", |b| {
        b.iter(|| activity_study(black_box(BenignCircuit::Alu192), 600, 3).unwrap())
    });
}

fn fig09_cpa_tdc(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        run_and_report(
            "fig09",
            &CpaExperiment {
                circuit: BenignCircuit::Alu192,
                source: SensorSource::TdcAll,
                traces: budget(20_000),
                checkpoints: 20,
                pilot_traces: 100,
                seed: 9,
            },
        );
    });
    bench_trace_kernel(c, "fig09_tdc_trace_kernel", SensorSource::TdcAll);
}

fn fig10_cpa_alu(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        run_and_report(
            "fig10",
            &CpaExperiment {
                circuit: BenignCircuit::Alu192,
                source: SensorSource::BenignHammingWeight,
                traces: budget(400_000),
                checkpoints: 40,
                pilot_traces: 500,
                seed: 10,
            },
        );
    });
    bench_trace_kernel(
        c,
        "fig10_alu_hw_trace_kernel",
        SensorSource::BenignHammingWeight,
    );
}

fn fig11_cpa_tdc_bit32(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        run_and_report(
            "fig11",
            &CpaExperiment {
                circuit: BenignCircuit::Alu192,
                source: SensorSource::TdcSingleBit(None),
                traces: budget(20_000),
                checkpoints: 20,
                pilot_traces: 100,
                seed: 11,
            },
        );
    });
    bench_trace_kernel(
        c,
        "fig11_tdc_bit_trace_kernel",
        SensorSource::TdcSingleBit(None),
    );
}

fn fig12_cpa_alu_bit_best(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        run_and_report(
            "fig12",
            &CpaExperiment {
                circuit: BenignCircuit::Alu192,
                source: SensorSource::BenignSingleBit(None),
                traces: budget(400_000),
                checkpoints: 40,
                pilot_traces: 500,
                seed: 12,
            },
        );
    });
    bench_trace_kernel(
        c,
        "fig12_alu_single_bit_trace_kernel",
        SensorSource::BenignSingleBit(None),
    );
}

fn fig13_cpa_alu_alt_bit(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        // The paper repeats fig12 with an alternate endpoint (bit 6 of
        // its ALU). We take the second-best pilot endpoint.
        let pilot = slm_core::experiments::aes_pilot_activity(BenignCircuit::Alu192, 3000, 13)
            .expect("fabric builds");
        let ranked = pilot.by_variance();
        let alt = ranked.get(1).copied().unwrap_or(ranked[0]);
        println!("[fig13] alternate endpoint chosen: {alt}");
        run_and_report(
            "fig13",
            &CpaExperiment {
                circuit: BenignCircuit::Alu192,
                source: SensorSource::BenignSingleBit(Some(alt)),
                traces: budget(400_000),
                checkpoints: 40,
                pilot_traces: 500,
                seed: 13,
            },
        );
    });
    c.bench_function("fig13_pilot_variance_ranking", |b| {
        b.iter(|| {
            slm_core::experiments::aes_pilot_activity(black_box(BenignCircuit::Alu192), 300, 13)
                .unwrap()
                .by_variance()
        })
    });
}

fn fig14_c6288_raw_ro(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let r = ro_response(BenignCircuit::DualC6288, 240, 14).unwrap();
        let vals: Vec<f64> = r.toggle_counts.iter().map(|&v| f64::from(v)).collect();
        print!(
            "{}",
            report::series_table(
                "fig14: toggling C6288 bits per sample",
                "sample",
                "toggles",
                &vals
            )
        );
        println!("[fig14] sensitive_bits={} of 64", r.sensitive_bits.len());
    });
    c.bench_function("fig14_c6288_ro_response_240_samples", |b| {
        b.iter(|| ro_response(black_box(BenignCircuit::DualC6288), 240, 14).unwrap())
    });
}

fn fig15_16_c6288_census(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let s = activity_study(BenignCircuit::DualC6288, 3000, 15).unwrap();
        println!(
            "[fig15] c6288 total={} ro_sensitive={} aes={} intersection={} aes_only={} unaffected={}",
            s.census.total,
            s.census.ro_sensitive.len(),
            s.census.aes_sensitive.len(),
            s.census.intersection.len(),
            s.census.aes_only.len(),
            s.census.unaffected
        );
        println!("[fig16] endpoint var_ro var_aes");
        for (i, vro, vaes) in &s.variance.rows {
            println!("[fig16] {i} {vro:.5} {vaes:.5}");
        }
        println!("[fig16] best_aes_endpoint={:?}", s.variance.best_aes_endpoint);
    });
    c.bench_function("fig15_16_c6288_activity_study_600", |b| {
        b.iter(|| activity_study(black_box(BenignCircuit::DualC6288), 600, 15).unwrap())
    });
}

fn fig17_cpa_c6288(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        run_and_report(
            "fig17",
            &CpaExperiment {
                circuit: BenignCircuit::DualC6288,
                source: SensorSource::BenignHammingWeight,
                traces: budget(800_000),
                checkpoints: 40,
                pilot_traces: 500,
                seed: 17,
            },
        );
    });
    c.bench_function("fig17_c6288_hw_trace_kernel", |b| {
        let config = FabricConfig {
            benign: BenignCircuit::DualC6288,
            ..FabricConfig::default()
        };
        let mut fabric = MultiTenantFabric::new(&config).unwrap();
        let window = fabric.last_round_window();
        let endpoints: Vec<usize> = (0..32).collect();
        b.iter(|| {
            let pt = fabric.random_plaintext();
            fabric.encrypt_windowed(black_box(pt), window.clone(), &endpoints)
        })
    });
}

fn fig18_cpa_c6288_bit_best(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        run_and_report(
            "fig18",
            &CpaExperiment {
                circuit: BenignCircuit::DualC6288,
                source: SensorSource::BenignSingleBit(None),
                traces: budget(500_000),
                checkpoints: 40,
                pilot_traces: 500,
                seed: 18,
            },
        );
    });
    c.bench_function("fig18_c6288_single_bit_kernel", |b| {
        let config = FabricConfig {
            benign: BenignCircuit::DualC6288,
            ..FabricConfig::default()
        };
        let mut fabric = MultiTenantFabric::new(&config).unwrap();
        let window = fabric.last_round_window();
        let endpoints = vec![28usize];
        b.iter(|| {
            let pt = fabric.random_plaintext();
            fabric.encrypt_windowed(black_box(pt), window.clone(), &endpoints)
        })
    });
}

fn stealth_and_timing(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let audit = stealth_audit().unwrap();
        for (name, report, is_attack) in &audit.rows {
            println!(
                "[stealth] {} attack={} clean={} findings={}",
                name,
                is_attack,
                report.is_clean(),
                report.findings.len()
            );
        }
        println!("[stealth] demonstrated={}", audit.stealth_demonstrated());
        let t = timing_audit(5.2).unwrap();
        for row in &t.rows {
            println!(
                "[timing] {} fmax={:.1}MHz ok@50={} ok@300={} strict_fires={}",
                row.name,
                row.fmax_mhz,
                row.meets_synth_clock,
                row.meets_overclock,
                row.strict_check_fires
            );
        }
    });
    c.bench_function("stealth_checker_full_zoo", |b| {
        b.iter(|| stealth_audit().unwrap())
    });
    c.bench_function("strict_timing_audit", |b| {
        b.iter(|| timing_audit(5.2).unwrap())
    });
}

fn atpg_stimuli(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let s = atpg_stimulus_study(16, 40, 3).unwrap();
        println!(
            "[atpg] hand={:.0}ps found={:.0}ps ratio={:.2} evals={}",
            s.hand_settle_ps, s.found.score, s.ratio, s.found.evaluations
        );
    });
    c.bench_function("atpg_search_12bit_adder", |b| {
        b.iter(|| atpg_stimulus_study(black_box(12), 10, 3).unwrap())
    });
}

/// Shared kernel measurement: one windowed capture through the ALU
/// fabric with the endpoints a given source would use.
fn bench_trace_kernel(c: &mut Criterion, name: &str, source: SensorSource) {
    let config = FabricConfig {
        benign: BenignCircuit::Alu192,
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config).unwrap();
    let window = fabric.last_round_window();
    let endpoints: Vec<usize> = match source {
        SensorSource::TdcAll | SensorSource::TdcSingleBit(_) => Vec::new(),
        SensorSource::BenignHammingWeight => (0..64).collect(),
        SensorSource::BenignSingleBit(_) => vec![21],
    };
    c.bench_function(name, |b| {
        b.iter(|| {
            let pt = fabric.random_plaintext();
            fabric.encrypt_windowed(black_box(pt), window.clone(), &endpoints)
        })
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets =
        fig03_04_floorplans,
        fig05_alu_raw_ro,
        fig06_tdc_vs_alu,
        fig07_08_alu_census,
        fig09_cpa_tdc,
        fig10_cpa_alu,
        fig11_cpa_tdc_bit32,
        fig12_cpa_alu_bit_best,
        fig13_cpa_alu_alt_bit,
        fig14_c6288_raw_ro,
        fig15_16_c6288_census,
        fig17_cpa_c6288,
        fig18_cpa_c6288_bit_best,
        stealth_and_timing,
        atpg_stimuli,
}
criterion_main!(figures);
