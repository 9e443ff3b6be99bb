//! Layer replays for traced runs.
//!
//! Most of a trace's time is spent inside
//! `MultiTenantFabric::encrypt_windowed`, where spans would cost more
//! than the work they measure. Each layer is instead timed in
//! isolation: the benchmark replays that layer's public function on the
//! workload's own `FabricConfig` (or the workload's own tenant
//! submissions) with the time-budgeted timer of [`crate::stats`], one
//! span per replay. Every workload captures with the `TdcAll` source,
//! so the absorb replay feeds TDC depths.

use crate::report::Metrics;
use crate::stats::{summarize, time_interleaved, time_per_op, wall_s, Clock, Summary};
use crate::trace::Tracer;
use slm_aes::{soft, Aes32Rtl};
use slm_checker::{check_timing, PassManager, ScanCache};
use slm_cloud::{AdmissionGate, TenantSubmission};
use slm_core::experiments::{run_cpa_with, CpaExperiment, DefenseArm};
use slm_cpa::store::{write_stream_checkpoint, CheckpointLedger, StreamCheckpoint};
use slm_cpa::{CpaAttack, DfaAttack, DfaModel, LastRoundModel, TraceBatch};
use slm_fabric::{DetectorConfig, FabricConfig, FabricPrototype, MultiTenantFabric};
use slm_pdn::noise::Rng64;
use slm_pdn::MultiRegionPdn;
use slm_sensors::TdcSensor;
use slm_timing::DelayModel;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Compute replays are read from the thread's CPU clock.
const CPU: Clock = crate::sys::thread_cpu_s;

/// Time spent on the interleaved per-trace layer replays.
const TRACE_BUDGET: Duration = Duration::from_millis(600);
/// Time spent on each sub-microsecond kernel replay.
const KERNEL_BUDGET: Duration = Duration::from_millis(120);
/// Time spent on each millisecond-scale replay.
const SLOW_BUDGET: Duration = Duration::from_millis(250);

/// Traces per absorb batch, matching the campaign kernel's chunk size.
const ABSORB_BATCH: usize = 32;

/// Ticks per AES cycle and the idle cycles the fabric wraps around
/// every encryption (two lead-in, two lead-out).
const TICKS_PER_AES_CYCLE: usize = 3;
const IDLE_CYCLES: usize = 4;

/// The streaming workload's detector operating point, shared with the
/// defense-overhead replay.
pub const STREAM_DETECTOR: DetectorConfig = DetectorConfig {
    window_ticks: 4098,
    alarm_threshold: 0.05,
};

/// The defended-stream arm applied to `config`: a 1.5 A PRNG fence with
/// stimulus alternation 0.3.
pub fn defended(config: &FabricConfig, defense_seed: u64) -> FabricConfig {
    let mut c = config.clone();
    c.stimulus_alternation = 0.3;
    c.defense = DefenseArm::PrngFence(1.5).deployment(STREAM_DETECTOR, defense_seed);
    c
}

/// What a workload hands the replays.
pub struct LayerInputs<'a> {
    /// The capture configuration the workload's traces run on.
    pub config: FabricConfig,
    /// Ledger commits per workload operation (0 when not journalled).
    pub commits_per_op: u64,
    /// The admission traffic of the workload.
    pub submissions: &'a [TenantSubmission],
    /// The per-tenant campaign the service runs for this workload.
    pub tenant_campaign: CpaExperiment,
    /// Scratch directory for the ledger replay.
    pub scratch: &'a Path,
}

/// Per-trace layer costs, kept for the self-time estimates.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    pub capture_ns: f64,
    pub full_capture_ns: f64,
    pub absorb_ns: f64,
    pub build_us: f64,
    pub eval_ms: f64,
    pub ledger_commit_ms: f64,
    pub cloud_campaign_ms: f64,
}

/// A fabric built from `config` and a closure capturing one windowed
/// trace on it, as the campaign kernels do.
fn windowed_capture(config: &FabricConfig) -> impl FnMut() {
    let mut fabric = MultiTenantFabric::new(config).expect("fabric builds");
    let window = fabric.last_round_window();
    move || {
        let pt = fabric.random_plaintext();
        black_box(fabric.encrypt_windowed(pt, window.clone(), &[]));
    }
}

/// Runs every layer replay and writes its metrics into `m`.
pub fn replay(inp: &LayerInputs<'_>, tracer: &Tracer, m: &mut Metrics) -> LayerCosts {
    let cfg = &inp.config;
    let mut notes = Vec::new();
    let mut note = |name: &str, s: &Summary, unit: &str| {
        notes.push(format!(
            "{name}: median {:.4} {unit} [q1 {:.4}, q3 {:.4}], n={}",
            s.median, s.q1, s.q3, s.n
        ));
    };

    // ---- per-trace layers ---------------------------------------------
    // AES, a PDN step, a TDC sample, a windowed capture on this config
    // and on its defended (or undefended) twin, and a batch absorb are
    // timed in alternation, so their medians describe the same host
    // state and can be summed against the capture.
    let aes = Aes32Rtl::new(cfg.aes_key);
    let mut rng = Rng64::new(cfg.seed);
    let power = aes.encrypt_with_power([0u8; 16], &cfg.leakage, &mut rng).1;
    let mut counter = 0u64;
    let mut aes_op = || {
        counter += 1;
        let mut pt = [0u8; 16];
        pt[..8].copy_from_slice(&counter.to_le_bytes());
        black_box(aes.encrypt_with_power(pt, &cfg.leakage, &mut rng));
    };

    let steps_per_trace = (power.len() + IDLE_CYCLES) * TICKS_PER_AES_CYCLE;
    let coupling = match cfg.defense.as_ref().and_then(|d| d.ldo) {
        Some(ldo) => cfg.victim_coupling * ldo.residual,
        None => cfg.victim_coupling,
    };
    let mut pdn = MultiRegionPdn::new(cfg.pdn, 2, vec![vec![1.0, coupling], vec![coupling, 1.0]]);
    let attacker_a = cfg.background_current_a + cfg.ro.current_a();
    let dt = 1.0 / 300.0e6;
    let mut tick = 0usize;
    let defended_pdn = cfg.defense.is_some();
    let mut step_op = || {
        tick += 1;
        let victim_a = power[(tick / TICKS_PER_AES_CYCLE) % power.len()];
        if defended_pdn {
            pdn.set_injected(1, 0.75);
        }
        black_box(pdn.step(&[attacker_a, victim_a], dt)[0]);
    };

    let v0 = cfg.pdn.v_nominal;
    let volts: Vec<f64> = (0..64).map(|i| v0 - 0.002 * f64::from(i % 16)).collect();
    let mut tdc = TdcSensor::new(cfg.tdc);
    let mut vi = 0usize;
    let mut tdc_op = || {
        vi = (vi + 1) % volts.len();
        black_box(tdc.sample(volts[vi]));
    };

    let fabric = MultiTenantFabric::new(cfg).expect("fabric builds");
    let window = fabric.last_round_window();
    assert_eq!(
        steps_per_trace / 2,
        fabric.samples_per_encryption(),
        "the fabric's idle-cycle layout changed; update IDLE_CYCLES"
    );

    // The workload's own defense when it has one, else the streaming
    // workload's fence applied to this configuration.
    let twin = if cfg.defense.is_some() {
        let mut bare = cfg.clone();
        bare.defense = None;
        bare.stimulus_alternation = 0.0;
        bare
    } else {
        defended(cfg, slm_par::mix_seed(cfg.seed, 0xdef))
    };
    let mut capture_op = windowed_capture(cfg);
    let mut twin_op = windowed_capture(&twin);

    let mut cap = MultiTenantFabric::new(cfg).expect("fabric builds");
    let mut batch = TraceBatch::with_capacity(window.len(), ABSORB_BATCH);
    let mut pts = Vec::new();
    for _ in 0..ABSORB_BATCH {
        let pt = cap.random_plaintext();
        let rec = cap.encrypt_windowed(pt, window.clone(), &[]);
        pts.clear();
        pts.extend(rec.tdc.iter().map(|&d| f64::from(d)));
        batch.push(rec.ciphertext, &pts);
    }
    let mut attack = CpaAttack::new(LastRoundModel::paper_target(), window.len());
    let mut absorb_op = || {
        attack.add_batch(&batch).expect("batch geometry matches");
    };

    let [aes_s, step_s, tdc_s, capture, twin_capture, absorb]: [Summary; 6] = {
        let _span = tracer.span("replay.per_trace_layers", 0);
        time_interleaved(
            TRACE_BUDGET,
            CPU,
            &mut [
                &mut aes_op,
                &mut step_op,
                &mut tdc_op,
                &mut capture_op,
                &mut twin_op,
                &mut absorb_op,
            ],
        )
        .try_into()
        .expect("one summary per operation")
    };
    let absorb_ns = absorb.median / ABSORB_BATCH as f64;
    let (defended_capture, bare_capture) = if cfg.defense.is_some() {
        (capture, twin_capture)
    } else {
        (twin_capture, capture)
    };
    let defense_overhead = defended_capture.median - bare_capture.median;
    note("aes.encrypt_ns", &aes_s, "ns");
    note("pdn.step_ns", &step_s, "ns");
    note("sensors.tdc_sample_ns", &tdc_s, "ns");
    note("fabric.capture_ns", &capture, "ns");
    note(
        "fabric.capture_ns (defended/undefended twin)",
        &twin_capture,
        "ns",
    );
    note("cpa.absorb_ns (per batch of 32)", &absorb, "ns");
    m.put("aes.encrypt_ns", aes_s.median, "ns");
    m.put("pdn.step_ns", step_s.median, "ns");
    m.put("pdn.steps_per_trace", steps_per_trace as f64, "count");
    m.put("sensors.tdc_sample_ns", tdc_s.median, "ns");
    m.put("fabric.capture_ns", capture.median, "ns");
    m.put("defense.capture_overhead_ns", defense_overhead, "ns");
    m.put("cpa.absorb_ns", absorb_ns, "ns");

    // Fabric self time and the layer-sum reconciliation: the isolated
    // parts of a trace (AES, PDN steps, TDC samples, the defense hooks
    // when deployed, absorb) against the measured capture + absorb.
    let defense_ns = if cfg.defense.is_some() {
        defense_overhead
    } else {
        0.0
    };
    let parts = aes_s.median
        + steps_per_trace as f64 * step_s.median
        + window.len() as f64 * tdc_s.median
        + defense_ns;
    m.put("fabric.self_ns", capture.median - parts, "ns");
    m.put(
        "fabric.layer_sum_ratio",
        (parts + absorb_ns) / (capture.median + absorb_ns),
        "ratio",
    );

    // ---- slm-sensors, slm-fabric: per-campaign costs --------------------
    let mut sensor = fabric.sensor().clone();
    let benign_s = {
        let _span = tracer.span("replay.sensors.BenignSensor::sample", 0);
        time_per_op(KERNEL_BUDGET, CPU, || {
            vi = (vi + 1) % volts.len();
            sensor.sample(volts[vi])
        })
    };
    note("sensors.benign_sample_ns", &benign_s, "ns");
    m.put("sensors.benign_sample_ns", benign_s.median, "ns");

    let full = {
        let _span = tracer.span("replay.fabric.encrypt_and_capture", 0);
        let mut fabric = MultiTenantFabric::new(cfg).expect("fabric builds");
        time_per_op(SLOW_BUDGET, CPU, || {
            let pt = fabric.random_plaintext();
            fabric.encrypt_and_capture(pt)
        })
    };
    note("fabric.full_capture_ns", &full, "ns");
    m.put("fabric.full_capture_ns", full.median, "ns");

    let build = {
        let _span = tracer.span("replay.fabric.MultiTenantFabric::new", 0);
        time_per_op(KERNEL_BUDGET, CPU, || {
            MultiTenantFabric::new(cfg).expect("fabric builds")
        })
    };
    note("fabric.build_us", &build, "ns");
    m.put("fabric.build_us", build.median / 1e3, "us");

    let proto = {
        let _span = tracer.span("replay.fabric.FabricPrototype::build", 0);
        time_per_op(SLOW_BUDGET, CPU, || {
            FabricPrototype::build(cfg).expect("prototype builds")
        })
    };
    note("fabric.prototype_ms", &proto, "ns");
    m.put("fabric.prototype_ms", proto.median / 1e6, "ms");

    // ---- slm-cpa: per-campaign costs ------------------------------------
    let eval = {
        let _span = tracer.span("replay.cpa.CpaAttack::peak_correlations", 0);
        time_per_op(KERNEL_BUDGET, CPU, || attack.peak_correlations())
    };
    note("cpa.eval_ms", &eval, "ns");
    m.put("cpa.eval_ms", eval.median / 1e6, "ms");

    let checkpoint = StreamCheckpoint {
        fingerprint: cfg.seed,
        windows: 1,
        traces: attack.traces(),
        slots: vec![attack.checkpoint()],
        progress: vec![Vec::new()],
    };
    let mut payload = Vec::new();
    write_stream_checkpoint(&mut payload, &checkpoint).expect("in-memory write");
    let ledger_dir = inp.scratch.join("ledger-replay");
    let ledger = CheckpointLedger::open(&ledger_dir).expect("ledger opens");
    let commit = {
        let _span = tracer.span("replay.cpa.CheckpointLedger::commit", 0);
        time_per_op(SLOW_BUDGET, wall_s, || {
            ledger.commit(&payload).expect("ledger commit")
        })
    };
    drop(ledger);
    let _ = std::fs::remove_dir_all(&ledger_dir);
    note("cpa.ledger_commit_ms", &commit, "ns");
    m.put("cpa.ledger_commit_ms", commit.median / 1e6, "ms");
    m.put("cpa.ledger_commits", inp.commits_per_op as f64, "count");
    m.put("cpa.ledger_bytes", payload.len() as f64, "bytes");

    let model = DfaModel::SingleByte { max_fault_bits: 2 };
    let pairs: Vec<([u8; 16], [u8; 16])> = (0..256u32)
        .map(|i| {
            let mut pt = [0u8; 16];
            pt[..4].copy_from_slice(&i.wrapping_mul(0x9e37_79b9).to_le_bytes());
            let mut mask = [0u8; 16];
            mask[(i % 16) as usize] = 1 << (i % 8);
            (
                soft::encrypt(&cfg.aes_key, &pt),
                soft::encrypt_with_state_faults(&cfg.aes_key, &pt, &[(9, mask)]),
            )
        })
        .collect();
    let mut dfa = DfaAttack::new(model);
    let mut pi = 0usize;
    let dfa_s = {
        let _span = tracer.span("replay.cpa.DfaAttack::add_pair", 0);
        time_per_op(KERNEL_BUDGET, CPU, || {
            pi = (pi + 1) % pairs.len();
            dfa.add_pair(&pairs[pi].0, &pairs[pi].1)
        })
    };
    note("cpa.dfa_pair_ns", &dfa_s, "ns");
    m.put("cpa.dfa_pair_ns", dfa_s.median, "ns");

    // ---- slm-core ------------------------------------------------------
    let tenant = inp.tenant_campaign;
    let tenant_defense = cfg.defense.clone();
    let campaign = {
        let _span = tracer.span("replay.core.run_cpa_with", 0);
        time_per_op(SLOW_BUDGET, CPU, || {
            run_cpa_with(&tenant, |fc| fc.defense = tenant_defense.clone()).expect("campaign")
        })
    };
    note("core.cloud_campaign_ms", &campaign, "ns");
    m.put("core.cloud_campaign_ms", campaign.median / 1e6, "ms");

    // ---- slm-netlist / slm-timing / slm-checker --------------------------
    let subs = inp.submissions;
    let hash = {
        let _span = tracer.span("replay.netlist.Netlist::content_hash", 0);
        time_per_op(KERNEL_BUDGET, CPU, || {
            subs.iter()
                .fold(0u64, |acc, s| acc ^ s.netlist.content_hash())
        })
    };
    m.put(
        "netlist.content_hash_us",
        hash.median / 1e3 / subs.len() as f64,
        "us",
    );

    let contracted: Vec<(&TenantSubmission, f64)> = subs
        .iter()
        .filter_map(|s| s.contract.clock_mhz.map(|mhz| (s, mhz)))
        .collect();
    // Submissions without a requested clock skip the timing check.
    let annotate_us = if contracted.is_empty() {
        0.0
    } else {
        let _span = tracer.span("replay.timing.annotate+check_timing", 0);
        let s = time_per_op(KERNEL_BUDGET, CPU, || {
            for (s, mhz) in &contracted {
                let ann = DelayModel::default().annotate(&s.netlist);
                black_box(check_timing(&ann, *mhz));
            }
        });
        s.median / 1e3 / contracted.len() as f64
    };
    m.put("timing.annotate_us", annotate_us, "us");

    // One cold scan per distinct scan key, cycled until the budget is
    // spent; each scan gets a fresh cache.
    let gate = AdmissionGate::new(ScanCache::in_memory());
    let mut keys = Vec::new();
    let distinct: Vec<&TenantSubmission> = subs
        .iter()
        .filter(|s| {
            let k = gate.dedup_key(s);
            let fresh = !keys.contains(&k);
            keys.push(k);
            fresh
        })
        .collect();
    let pm = PassManager::full();
    let mut cold = Vec::new();
    {
        let _span = tracer.span("replay.checker.PassManager::run_cached.cold", 0);
        let start = Instant::now();
        while start.elapsed() < SLOW_BUDGET || cold.len() < 2 * distinct.len() {
            for s in &distinct {
                let config = gate.config_for(s);
                let t = CPU();
                black_box(pm.run_cached(&s.netlist, &config, &ScanCache::in_memory()));
                cold.push((CPU() - t) * 1e6);
            }
        }
    }
    let cold_s = summarize(&mut cold);
    m.put("checker.cold_scan_p50_us", cold_s.median, "us");
    m.put(
        "checker.cold_scan_p99_us",
        crate::stats::quantile(&cold, 0.99),
        "us",
    );
    note("checker.cold_scan_us", &cold_s, "us");

    for line in notes {
        m.note(line);
    }
    LayerCosts {
        capture_ns: capture.median,
        full_capture_ns: full.median,
        absorb_ns,
        build_us: build.median / 1e3,
        eval_ms: eval.median / 1e6,
        ledger_commit_ms: commit.median / 1e6,
        cloud_campaign_ms: campaign.median / 1e6,
    }
}
