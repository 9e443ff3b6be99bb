//! Sustained-traffic benchmark of the `slm-cloud` fabric service.
//!
//! The preamble study feeds `BENCH_service.json` at the workspace
//! root: a fleet of CPA tenants (plus one denied specimen, so the
//! admission path exercises its denial branch under load) is pushed
//! through a full service run and we record the sustained campaign
//! throughput, the wall-clock admission-gate latency distribution
//! (p50/p99 over per-submission `decide()` calls), and the scan-cache
//! hit rate the duplicate-heavy fleet achieves.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use slm_bench::quick;
use slm_checker::ScanCache;
use slm_cloud::{
    AdmissionGate, CampaignKind, CloudService, SensorSource, ServiceConfig, TenantQuota,
    TenantStatus, TenantSubmission, WorkloadSpec,
};
use slm_netlist::generators;
use std::hint::black_box;
use std::sync::OnceLock;

#[derive(Debug, Serialize)]
struct ServiceBench {
    bench: String,
    quick: bool,
    tenants: usize,
    campaigns_delivered: u64,
    rounds: u64,
    elapsed_seconds: f64,
    sustained_campaigns_per_sec: f64,
    admission_samples: usize,
    admission_p50_us: f64,
    admission_p99_us: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
}

/// The traffic mix: many tenants resubmitting a handful of distinct
/// netlists (the duplicate-heavy shape real campaign fleets have), a
/// structural specimen the gate must deny, and per-round rate caps so
/// the run stretches over multiple scheduling rounds.
fn fleet(tenants: usize, campaigns: u32, traces: u64) -> Vec<TenantSubmission> {
    let designs = [
        generators::c17(),
        generators::kogge_stone_adder(16).expect("ksa"),
        generators::ripple_carry_adder(24).expect("rca"),
    ];
    let workload = WorkloadSpec {
        kind: CampaignKind::Cpa {
            source: SensorSource::TdcAll,
        },
        traces,
        campaigns,
        ..WorkloadSpec::default()
    };
    let mut subs: Vec<TenantSubmission> = (0..tenants)
        .map(|i| {
            TenantSubmission::new(format!("tenant{i:03}"), designs[i % designs.len()].clone())
                .with_workload(workload)
                .with_quota(TenantQuota {
                    max_traces_per_round: traces * 2,
                    ..TenantQuota::default()
                })
        })
        .collect();
    subs.push(TenantSubmission::new(
        "specimen",
        generators::ring_oscillator(8).expect("ro"),
    ));
    subs
}

fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn service_study() -> ServiceBench {
    let (tenants, campaigns, traces) = if quick() { (12, 2, 8) } else { (48, 4, 16) };
    let subs = fleet(tenants, campaigns, traces);

    // Admission-gate latency: time each `decide()` against a shared
    // warm-capable cache, exactly as the service's intake does.
    let gate = AdmissionGate::new(ScanCache::in_memory());
    let mut lat_us: Vec<f64> = subs
        .iter()
        .map(|sub| {
            let t = std::time::Instant::now();
            black_box(gate.decide(sub));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let admission_p50_us = percentile_us(&lat_us, 0.50);
    let admission_p99_us = percentile_us(&lat_us, 0.99);

    // Sustained throughput: one full service run, wall-clocked. Small
    // intake batches model a steady arrival stream (rather than one
    // bulk drop), which is also what lets later rounds replay
    // duplicate scans from the warmed cache.
    let service = CloudService::new(ServiceConfig {
        intake_per_round: 4,
        admission_queue_depth: 4,
        // Every admitted tenant waits for a region rather than being
        // shed: throughput under contention is the point of the study.
        wait_queue_depth: tenants + 1,
        max_campaigns_per_round: 8,
        workers: 0,
        ..ServiceConfig::default()
    });
    let t = std::time::Instant::now();
    let report = service.run(subs).expect("service drains");
    let elapsed_seconds = t.elapsed().as_secs_f64();

    let expected = tenants as u64 * campaigns as u64;
    assert_eq!(report.campaigns_delivered, expected);
    assert_eq!(report.denied, 1, "the specimen must be denied");
    for rec in &report.tenants {
        assert!(
            matches!(rec.status, TenantStatus::Completed | TenantStatus::Denied),
            "{} did not drain: {:?}",
            rec.tenant,
            rec.status
        );
    }
    assert!(
        report.cache_hit_rate() > 0.5,
        "duplicate-heavy fleet must mostly hit the scan cache, got {:.2}",
        report.cache_hit_rate()
    );
    let sustained = report.campaigns_delivered as f64 / elapsed_seconds.max(f64::EPSILON);
    println!(
        "[service] {} tenants, {} campaigns in {elapsed_seconds:.3}s \
         ({sustained:.0} campaigns/s, admission p50 {admission_p50_us:.0}us \
         p99 {admission_p99_us:.0}us, cache {:.0}% hit)",
        tenants,
        report.campaigns_delivered,
        100.0 * report.cache_hit_rate(),
    );
    ServiceBench {
        bench: "service".to_string(),
        quick: quick(),
        tenants,
        campaigns_delivered: report.campaigns_delivered,
        rounds: report.rounds,
        elapsed_seconds,
        sustained_campaigns_per_sec: sustained,
        admission_samples: lat_us.len(),
        admission_p50_us,
        admission_p99_us,
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
        cache_hit_rate: report.cache_hit_rate(),
    }
}

fn service_traffic(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let record = service_study();
        let path = slm_bench::write_bench_json("BENCH_service.json", &record);
        println!("[service] wrote {path}");
    });

    // Timed kernels: the admission decision for a mid-size benign
    // design (cold cache each iteration would dominate, so this is the
    // warm path the service actually runs at traffic), and one small
    // end-to-end service drain.
    let gate = AdmissionGate::new(ScanCache::in_memory());
    let sub = TenantSubmission::new("alice", generators::alu(96).expect("alu"));
    let _ = gate.decide(&sub);
    c.bench_function("service_admission_warm_alu96", |b| {
        b.iter(|| gate.decide(black_box(&sub)))
    });

    c.bench_function("service_drain_4xc17", |b| {
        b.iter(|| {
            let service = CloudService::new(ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            });
            let subs: Vec<TenantSubmission> = (0..4)
                .map(|i| {
                    TenantSubmission::new(format!("t{i}"), generators::c17()).with_workload(
                        WorkloadSpec {
                            kind: CampaignKind::Cpa {
                                source: SensorSource::TdcAll,
                            },
                            traces: 8,
                            campaigns: 1,
                            ..WorkloadSpec::default()
                        },
                    )
                })
                .collect();
            service.run(black_box(subs)).expect("service drains")
        })
    });
}

criterion_group!(benches, service_traffic);
criterion_main!(benches);
