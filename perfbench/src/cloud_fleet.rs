//! `cloud-fleet`: a seeded tenant fleet through `CloudService::run`,
//! plus a closed loop (one caller) of `AdmissionGate::decide` over the
//! same submissions.
//!
//! The fleet's make-up is fixed; the seed picks its order, the names of
//! the never-seen netlists and every campaign seed. Its core is the
//! repository's service bench (`crates/slm-bench/benches/service.rs`):
//! 48 CPA tenants resubmitting three popular netlists
//! (`c17`, a 16-bit Kogge-Stone and a 24-bit ripple-carry adder), each
//! running 4 Alu192 campaigns of 16 traces under a 32-trace per-round
//! cap, fed to a service that takes 4 submissions a round and runs at
//! most 8 campaigns a round. The duplicate share is that bench's, not
//! a measured one. To it come the submissions the workload adds:
//!
//! * 6 CPA tenants with never-seen netlists, one each from `c17`,
//!   `ripple_carry_adder`, `kogge_stone_adder`, `alu(96)`, `alu192` and
//!   `c6288`, renamed so their content hash is new (cache writes,
//!   which the service bench has none of);
//! * every malicious zoo specimen with its declared clocks (the
//!   `carry_sensor` among them), all of which must be denied, in place
//!   of the service bench's single ring oscillator;
//! * a victim and `eve`, paired under an isolate-flagged co-residency
//!   policy, `eve` mounting the stealthy 3.0 A PDN aggressor with
//!   last-round DFA, which must recover the full key.
//!
//! The one assumption beyond the service bench: the tenants on the
//! popular netlists, the victim and `eve` declare a 100 MHz clock (all
//! three designs meet it), so their decisions run the timing check, as
//! the service does for any tenant that requests a clock. The
//! never-seen tenants request none: `alu192` and the 32-bit
//! ripple-carry adder miss 100 MHz and would be denied.
//!
//! Each fleet run gets a fresh service, and each admission pass a fresh
//! gate, so every run does the same work and must produce the same
//! report. Scan caches are in memory, the service's default: on a
//! shared 2-core VM the disk tier's file writes made cold scans up to
//! twice as slow and swung the admission p99 between 3 and 9 ms from
//! run to run.

use crate::common::{build_prototype, digest, tenant_campaign};
use crate::layers::{self, LayerInputs};
use crate::stats::{quantile, summarize};
use crate::sys::{thread_cpu_s, Stopwatch};
use crate::{median, median_of, note_walls, trace_overhead, Ctx, Outcome};
use slm_checker::ScanCache;
use slm_cloud::{
    AdmissionGate, AdmissionVerdict, CampaignKind, CampaignOutcome, ClockContract, CloudService,
    CoResidencyPolicy, SensorSource, ServiceConfig, ServiceReport, TenantQuota, TenantStatus,
    TenantSubmission, WorkloadSpec,
};
use slm_core::experiments::{run_fault_campaign, FaultCampaign};
use slm_cpa::DfaModel;
use slm_fabric::{AggressorSpec, BenignCircuit, FabricConfig};
use slm_netlist::generators::{self, zoo};
use slm_netlist::Netlist;
use std::hint::black_box;

/// The service bench's fleet: tenants over the popular netlists and
/// each CPA tenant's campaigns and traces per campaign.
const POPULAR_TENANTS: usize = 48;
const TENANT_CAMPAIGNS: u32 = 4;
const TENANT_TRACES: u64 = 16;
/// Captures of the fault pairing: enough for the stealthy aggressor's
/// DFA to recover the whole key.
const FAULT_CAPTURES: u64 = 2_000;
/// The clock the popular designs' contracts declare (all meet it).
const CONTRACT_MHZ: f64 = 100.0;
/// Fewest timed admission decisions per run.
const MIN_ADMISSION_SAMPLES: usize = 1_000;

/// A fleet with what its service run must deliver.
struct Fleet {
    subs: Vec<TenantSubmission>,
    /// Per submission: whether admission must deny it.
    deny: Vec<bool>,
    campaigns: u64,
    config: ServiceConfig,
}

fn renamed(name: String, nl: &Netlist) -> Netlist {
    Netlist::disjoint_union(&name, &[nl]).expect("renaming a netlist cannot fail")
}

/// A CPA tenant as the service bench submits one, with `contract`.
fn cpa_tenant(name: String, netlist: Netlist, contract: ClockContract) -> TenantSubmission {
    TenantSubmission::new(name, netlist)
        .with_contract(contract)
        .with_workload(WorkloadSpec {
            circuit: BenignCircuit::Alu192,
            kind: CampaignKind::Cpa {
                source: SensorSource::TdcAll,
            },
            traces: TENANT_TRACES,
            campaigns: TENANT_CAMPAIGNS,
            defense: None,
        })
        .with_quota(TenantQuota {
            max_traces_per_round: TENANT_TRACES * 2,
            ..TenantQuota::default()
        })
}

fn fleet(seed: u64, workers: usize) -> Fleet {
    let popular = [
        generators::c17(),
        generators::kogge_stone_adder(16).expect("ksa16"),
        generators::ripple_carry_adder(24).expect("rca24"),
    ];
    let fresh = [
        generators::c17(),
        generators::ripple_carry_adder(32).expect("rca32"),
        generators::kogge_stone_adder(32).expect("ksa32"),
        generators::alu(96).expect("alu96"),
        generators::alu192().expect("alu192"),
        generators::c6288().expect("c6288"),
    ];
    let contract = ClockContract {
        declared_clocks: Vec::new(),
        clock_mhz: Some(CONTRACT_MHZ),
    };
    // (submission, must be denied)
    let mut subs: Vec<(TenantSubmission, bool)> = Vec::new();
    for i in 0..POPULAR_TENANTS {
        let netlist = popular[i % popular.len()].clone();
        subs.push((
            cpa_tenant(format!("tenant{i:03}"), netlist, contract.clone()),
            false,
        ));
    }
    for (i, nl) in fresh.iter().enumerate() {
        let name = format!("fresh-{seed:016x}-{i}");
        let netlist = renamed(name.clone(), nl);
        subs.push((cpa_tenant(name, netlist, ClockContract::default()), false));
    }
    for entry in zoo().into_iter().filter(|e| e.malicious) {
        subs.push((
            TenantSubmission::new(entry.name, entry.netlist).with_contract(ClockContract {
                declared_clocks: entry
                    .declared_clocks
                    .iter()
                    .map(|c| c.to_string())
                    .collect(),
                clock_mhz: None,
            }),
            true,
        ));
    }
    subs.push((
        cpa_tenant("victim".into(), popular[1].clone(), contract.clone()),
        false,
    ));
    subs.push((
        TenantSubmission::new("eve", popular[0].clone())
            .with_contract(contract)
            .with_workload(WorkloadSpec {
                circuit: BenignCircuit::DualC6288,
                kind: CampaignKind::Fault {
                    aggressor: AggressorSpec::stealthy(3.0),
                    model: DfaModel::SingleByte { max_fault_bits: 2 },
                },
                traces: FAULT_CAPTURES,
                campaigns: 1,
                defense: None,
            }),
        false,
    ));
    // Seeded order: sort by a per-position key.
    let mut keyed: Vec<(u64, (TenantSubmission, bool))> = subs
        .into_iter()
        .enumerate()
        .map(|(i, s)| (slm_par::mix_seed(seed, i as u64), s))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let (subs, deny): (Vec<_>, Vec<_>) = keyed.into_iter().map(|(_, s)| s).unzip();
    let campaigns = subs
        .iter()
        .zip(&deny)
        .filter(|(_, d)| !**d)
        .map(|(s, _)| u64::from(s.workload.campaigns))
        .sum();
    // The service bench's arrival and scheduling limits.
    let config = ServiceConfig {
        policy: CoResidencyPolicy::isolate_flagged().allow("victim", "eve"),
        intake_per_round: 4,
        admission_queue_depth: 4,
        max_campaigns_per_round: 8,
        wait_queue_depth: subs.len(),
        workers,
        seed: slm_par::mix_seed(seed, 0xc10d),
        ..ServiceConfig::default()
    };
    Fleet {
        subs,
        deny,
        campaigns,
        config,
    }
}

/// Checks a service report against the fleet; returns the number of
/// traces its campaigns captured.
fn check_report(ctx: &mut Ctx, fleet: &Fleet, report: &ServiceReport, run: usize) -> u64 {
    let mut traces = 0u64;
    let mut key = false;
    let mut statuses_ok = report.tenants.len() == fleet.subs.len();
    for (rec, deny) in report.tenants.iter().zip(&fleet.deny) {
        let want = if *deny {
            TenantStatus::Denied
        } else {
            TenantStatus::Completed
        };
        statuses_ok &= rec.status == want;
        for o in &rec.outcomes {
            match o {
                CampaignOutcome::Cpa { traces: t, .. } => traces += t,
                CampaignOutcome::Fault {
                    captures,
                    key_recovered,
                    ..
                } => {
                    traces += captures;
                    key |= *key_recovered;
                }
            }
        }
    }
    let delivered = report.campaigns_delivered == fleet.campaigns;
    ctx.checks.check(delivered && statuses_ok && key, || {
        format!(
            "fleet run {run}: delivered {}/{} statuses_ok={statuses_ok} fault_key={key}",
            report.campaigns_delivered, fleet.campaigns
        )
    });
    traces
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let workers = ctx.workers;
    let seed = ctx.seed;
    let protos = [BenignCircuit::Alu192, BenignCircuit::DualC6288].map(|benign| FabricConfig {
        benign,
        ..FabricConfig::default()
    });
    let (fleet, setup) = ctx.setup(|first| {
        for config in &protos {
            black_box(build_prototype(config, first));
        }
        let fleet = fleet(seed, workers);
        black_box(CloudService::new(fleet.config.clone()));
        fleet
    });
    out.e2e.put("setup_s", setup.median, "s");

    let fleet_run = |ctx: &mut Ctx, i: usize| -> (ServiceReport, crate::sys::OpTime) {
        let service = CloudService::new(fleet.config.clone());
        let subs = fleet.subs.clone();
        let t = Stopwatch::start();
        let report = {
            let _span = ctx.tracer.span("cloud.CloudService::run", i as u64);
            service.run(subs).expect("service drains")
        };
        (report, t.stop())
    };
    // One admission pass: every submission decided in order by a fresh
    // gate over a fresh cache; returns per-decision µs of the caller
    // thread's CPU clock (see `WarmAdmission`).
    let admission_pass = |ctx: &mut Ctx, p: usize| -> Vec<f64> {
        let gate = AdmissionGate::new(ScanCache::in_memory());
        let mut lat = Vec::with_capacity(fleet.subs.len());
        let mut denials = Vec::with_capacity(fleet.subs.len());
        {
            let _pass = ctx.tracer.span("bench.admission_pass", p as u64);
            for (j, sub) in fleet.subs.iter().enumerate() {
                let _span = ctx.tracer.span("cloud.AdmissionGate::decide", j as u64);
                let t = thread_cpu_s();
                let d = black_box(gate.decide(sub));
                lat.push((thread_cpu_s() - t) * 1e6);
                denials.push(d.verdict == AdmissionVerdict::Denied);
            }
        }
        for (j, (denied, deny)) in denials.iter().zip(&fleet.deny).enumerate() {
            ctx.checks.check(denied == deny, || {
                format!(
                    "admission pass {p}: {} denied={denied}",
                    fleet.subs[j].tenant
                )
            });
        }
        lat
    };

    // Warm-up run: fills the worker pool, and its report is the
    // reference every later run must reproduce.
    let (reference, _) = fleet_run(ctx, usize::MAX);
    let traces_per_run = check_report(ctx, &fleet, &reference, 0);
    let reference_digest = digest(&[&reference]);

    let mut latencies = Vec::new();
    let mut pass_totals_us = Vec::new();
    let min_ops = MIN_ADMISSION_SAMPLES.div_ceil(fleet.subs.len());
    let (untraced, traced, cpu_per_wall) = ctx.measure(min_ops, |ctx, i, _| {
        let (report, wall) = fleet_run(ctx, i);
        check_report(ctx, &fleet, &report, i + 1);
        let same = digest(&[&report]) == reference_digest;
        ctx.checks.check(same, || {
            format!("fleet run {} report differs from the first", i + 1)
        });
        let lat = admission_pass(ctx, i);
        pass_totals_us.push(lat.iter().sum::<f64>());
        latencies.extend(lat);
        wall
    });
    let walls = if ctx.traced { &traced } else { &untraced };
    out.e2e.put(
        "traces_per_s",
        median_of(walls, |w| traces_per_run as f64 / w),
        "1/s",
    );
    out.e2e.put(
        "campaigns_per_s",
        median_of(walls, |w| fleet.campaigns as f64 / w),
        "1/s",
    );
    let s = summarize(&mut latencies);
    out.e2e.put("admission_p50_us", s.median, "us");
    out.e2e
        .put("admission_p99_us", quantile(&latencies, 0.99), "us");
    out.info
        .push(("admission_samples".into(), latencies.len().to_string()));
    note_walls(&mut out, walls);
    out.info
        .push(("fleet_submissions".into(), fleet.subs.len().to_string()));
    out.summary = format!(
        "delivered={} denied={} rounds={} report={reference_digest}",
        reference.campaigns_delivered, reference.denied, reference.rounds
    );

    if ctx.traced {
        let m = &mut out.layers;
        trace_overhead(m, &untraced, &traced, cpu_per_wall);
        m.put("cloud.rounds", reference.rounds as f64, "count");
        m.put(
            "cloud.delivered",
            reference.campaigns_delivered as f64,
            "count",
        );
        m.put("cloud.denied", reference.denied as f64, "count");
        m.put("cloud.shed", reference.shed as f64, "count");
        m.put(
            "checker.cache_hit_ratio",
            reference.cache_hit_rate(),
            "ratio",
        );
        let tenant_seed = fleet.config.seed;
        let config = FabricConfig {
            benign: BenignCircuit::Alu192,
            seed: tenant_seed,
            ..FabricConfig::default()
        };
        let costs = layers::replay(
            &LayerInputs {
                config,
                commits_per_op: 0,
                submissions: &fleet.subs,
                tenant_campaign: tenant_campaign(BenignCircuit::Alu192, tenant_seed),
                scratch: &ctx.scratch,
            },
            &ctx.tracer,
            m,
        );
        // The fault pairing's campaign, as the service runs it.
        let fault = FaultCampaign {
            config: FabricConfig {
                benign: BenignCircuit::DualC6288,
                seed: tenant_seed,
                aggressor: Some(AggressorSpec::stealthy(3.0)),
                ..FabricConfig::default()
            },
            model: DfaModel::SingleByte { max_fault_bits: 2 },
            captures: FAULT_CAPTURES,
            shard_captures: FAULT_CAPTURES,
            workers: 1,
        };
        let fault_s = crate::stats::time_per_op(
            std::time::Duration::from_millis(200),
            crate::sys::thread_cpu_s,
            || {
                let _span = ctx.tracer.span("replay.core.run_fault_campaign", 0);
                run_fault_campaign(&fault).expect("fault campaign runs")
            },
        );
        m.note(format!(
            "core.fault_campaign_ms: median {:.4} ms, n={}",
            fault_s.median / 1e6,
            fault_s.n
        ));
        // Layer busy time of one fleet run, spread over the workers:
        // every campaign plus one admission pass.
        let cpa_campaigns = fleet.campaigns - 1;
        let busy_s = cpa_campaigns as f64 * costs.cloud_campaign_ms * 1e-3
            + fault_s.median * 1e-9
            + median(&pass_totals_us, |x| x) * 1e-6;
        let wall = median_of(&traced, |w| w);
        m.put("core.self_s", wall - busy_s / workers as f64, "s");
    }
    out
}
