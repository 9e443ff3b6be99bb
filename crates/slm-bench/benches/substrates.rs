//! Throughput benches for every substrate the reproduction builds —
//! the performance envelope that makes the 10^5-trace campaigns of the
//! paper's figures feasible in simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use slm_aes::{Aes32Rtl, LeakageModel};
use slm_cpa::{CpaAttack, LastRoundModel};
use slm_fabric::{BenignCircuit, FabricConfig, MultiTenantFabric};
use slm_netlist::generators::{alu, c6288, ripple_carry_adder};
use slm_netlist::{bench as bench_fmt, words};
use slm_pdn::noise::Rng64;
use slm_pdn::{MultiRegionPdn, Pdn, PdnConfig};
use slm_sensors::{BenignSensor, BenignSensorConfig, TdcConfig, TdcSensor};
use slm_timing::{simulate_transition, DelayModel};
use std::hint::black_box;

fn netlist_eval(c: &mut Criterion) {
    let nl = c6288().unwrap();
    let mut ins = words::to_bits(0x9d77, 16);
    ins.extend(words::to_bits(0xf7d6, 16));
    let mut group = c.benchmark_group("netlist");
    group.throughput(Throughput::Elements(nl.len() as u64));
    group.bench_function("c6288_functional_eval", |b| {
        b.iter(|| nl.eval(black_box(&ins)).unwrap())
    });
    let ins64: Vec<u64> = ins.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
    group.throughput(Throughput::Elements(64 * nl.len() as u64));
    group.bench_function("c6288_parallel_eval_64x", |b| {
        b.iter(|| nl.eval_parallel(black_box(&ins64)).unwrap())
    });
    group.finish();
}

fn bench_format(c: &mut Criterion) {
    let nl = c6288().unwrap();
    let text = bench_fmt::write(&nl);
    c.bench_function("bench_format_parse_c6288", |b| {
        b.iter(|| bench_fmt::parse(black_box(&text), "c6288").unwrap())
    });
    c.bench_function("bench_format_write_c6288", |b| {
        b.iter(|| bench_fmt::write(black_box(&nl)))
    });
}

fn timing_analysis(c: &mut Criterion) {
    let nl = alu(192).unwrap();
    let model = DelayModel::default();
    c.bench_function("annotate_alu192", |b| {
        b.iter(|| model.annotate(black_box(&nl)))
    });
    let ann = model.annotate(&nl);
    c.bench_function("sta_alu192", |b| b.iter(|| ann.sta().unwrap()));
    let built = BenignCircuit::Alu192.build().unwrap();
    c.bench_function("event_sim_alu192_carry_stimulus", |b| {
        b.iter(|| simulate_transition(&ann, black_box(&built.reset), &built.measure).unwrap())
    });
}

fn pdn_and_sensors(c: &mut Criterion) {
    let mut group = c.benchmark_group("electrical");
    group.throughput(Throughput::Elements(1));
    group.bench_function("pdn_step", |b| {
        let mut pdn = Pdn::new(PdnConfig::default());
        let mut i = 0.0f64;
        b.iter(|| {
            i = (i + 0.37) % 3.0;
            pdn.step(black_box(i), 3.33e-9)
        })
    });
    // The two-region kernel every fabric tick runs: attacker and victim
    // rails at the default victim coupling.
    group.bench_function("multi_region_pdn_step", |b| {
        let k = FabricConfig::default().victim_coupling;
        let mut pdn = MultiRegionPdn::uniform(PdnConfig::default(), 2, k);
        let mut i = 0.0f64;
        b.iter(|| {
            i = (i + 0.37) % 3.0;
            pdn.step(black_box(&[1.5, i]), 3.33e-9)[0]
        })
    });
    group.bench_function("tdc_sample", |b| {
        let mut tdc = TdcSensor::new(TdcConfig::paper_150mhz(1));
        b.iter(|| tdc.sample(black_box(0.99)))
    });
    group.bench_function("benign_sensor_sample_193_endpoints", |b| {
        let built = BenignCircuit::Alu192.build().unwrap();
        let ann = DelayModel::default()
            .annotate_for_period(&built.netlist, 5.2, 1.0)
            .unwrap();
        let waves = simulate_transition(&ann, &built.reset, &built.measure)
            .unwrap()
            .into_output_waves();
        let mut sensor = BenignSensor::new(waves, BenignSensorConfig::overclocked_300mhz(2));
        b.iter(|| sensor.sample(black_box(0.995)))
    });
    group.finish();
}

fn aes_rtl(c: &mut Criterion) {
    let rtl = Aes32Rtl::new([7u8; 16]);
    let model = LeakageModel::default();
    let mut rng = Rng64::new(3);
    let mut group = c.benchmark_group("aes");
    group.throughput(Throughput::Elements(1));
    group.bench_function("encrypt_with_power", |b| {
        let mut i = 0u8;
        b.iter(|| {
            i = i.wrapping_add(1);
            rtl.encrypt_with_power(black_box([i; 16]), &model, &mut rng)
        })
    });
    group.finish();
}

fn fabric_capture(c: &mut Criterion) {
    let config = FabricConfig::default();
    let mut fabric = MultiTenantFabric::new(&config).unwrap();
    let window = fabric.last_round_window();
    let mut group = c.benchmark_group("fabric");
    group.throughput(Throughput::Elements(1));
    group.bench_function("encrypt_and_capture_full", |b| {
        b.iter(|| {
            let pt = fabric.random_plaintext();
            fabric.encrypt_and_capture(black_box(pt))
        })
    });
    group.bench_function("encrypt_windowed_last_round", |b| {
        let endpoints: Vec<usize> = (80..140).collect();
        b.iter(|| {
            let pt = fabric.random_plaintext();
            fabric.encrypt_windowed(black_box(pt), window.clone(), &endpoints)
        })
    });
    group.finish();
}

fn cpa_attack(c: &mut Criterion) {
    let model = LastRoundModel::paper_target();
    let mut group = c.benchmark_group("cpa");
    group.throughput(Throughput::Elements(1));
    group.bench_function("add_trace_7_points", |b| {
        let mut attack = CpaAttack::new(model, 7);
        let mut rng = Rng64::new(4);
        b.iter(|| {
            let mut ct = [0u8; 16];
            rng.fill_bytes(&mut ct);
            let pts: Vec<f64> = (0..7).map(|_| rng.normal()).collect();
            attack.add_trace(black_box(&ct), &pts);
        })
    });
    group.bench_function("correlations_256x7_from_bins", |b| {
        let mut attack = CpaAttack::new(model, 7);
        let mut rng = Rng64::new(5);
        for _ in 0..10_000 {
            let mut ct = [0u8; 16];
            rng.fill_bytes(&mut ct);
            let pts: Vec<f64> = (0..7).map(|_| rng.normal()).collect();
            attack.add_trace(&ct, &pts);
        }
        b.iter_batched(
            || attack.clone(),
            |a| a.correlations(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn transport_and_store(c: &mut Criterion) {
    use slm_cpa::store::TraceWriter;
    use slm_fabric::RemoteSession;
    let mut group = c.benchmark_group("transport");
    group.throughput(Throughput::Elements(1));
    group.bench_function("remote_session_round_trip", |b| {
        let config = FabricConfig {
            benign: BenignCircuit::DualC6288,
            ..FabricConfig::default()
        };
        let mut session = RemoteSession::new(&config, (0..16).collect()).unwrap();
        let mut i = 0u8;
        b.iter(|| {
            i = i.wrapping_add(1);
            session.host_encrypt(black_box([i; 16])).unwrap()
        })
    });
    group.bench_function("trace_store_write_7_points", |b| {
        let mut rng = Rng64::new(11);
        let mut writer = TraceWriter::new(Vec::new(), 7).unwrap();
        b.iter(|| {
            let mut ct = [0u8; 16];
            rng.fill_bytes(&mut ct);
            let pts: Vec<f64> = (0..7).map(|_| rng.normal()).collect();
            writer.write_trace(black_box(&ct), &pts).unwrap();
        })
    });
    group.finish();
}

fn adder_scaling(c: &mut Criterion) {
    // How event-sim cost scales with the carry-chain length — the
    // substrate property behind "any big circuit is a usable sensor".
    let mut group = c.benchmark_group("event_sim_scaling");
    for n in [32usize, 64, 128, 192] {
        let nl = ripple_carry_adder(n).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let mut reset = words::to_bits(0, n);
        reset.extend(words::to_bits(0, n));
        let mut measure = vec![true; n];
        measure.extend(words::to_bits(1, n));
        group.throughput(Throughput::Elements(nl.len() as u64));
        group.bench_function(format!("rca{n}"), |b| {
            b.iter(|| simulate_transition(&ann, black_box(&reset), &measure).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(20);
    targets = netlist_eval, bench_format, timing_analysis, pdn_and_sensors,
              aes_rtl, fabric_capture, cpa_attack, transport_and_store,
              adder_scaling,
}
criterion_main!(substrates);
