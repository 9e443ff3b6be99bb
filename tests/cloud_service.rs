//! End-to-end tests of the `slm-cloud` multi-tenant fabric service:
//! the zoo is denied at admission with diagnostics while benign
//! designs place and complete, a hundred-plus concurrent campaigns
//! drain under tight quotas and queue backpressure without deadlock,
//! and the whole service — report *and* deterministic metrics — is
//! bit-identical at 1/2/4/8 workers (property-tested).

use proptest::prelude::*;
use slm_cloud::{
    CampaignKind, CampaignOutcome, ClockContract, CloudService, SensorSource, ServiceConfig,
    TenantQuota, TenantStatus, TenantSubmission, WorkloadSpec,
};
use slm_netlist::generators::{self, zoo};
use slm_obs::Obs;

/// A small CPA workload that keeps campaign runtime in the
/// milliseconds while still exercising the full capture pipeline.
fn tiny_workload(campaigns: u32, traces: u64) -> WorkloadSpec {
    WorkloadSpec {
        kind: CampaignKind::Cpa {
            source: SensorSource::TdcAll,
        },
        traces,
        campaigns,
        ..WorkloadSpec::default()
    }
}

#[test]
fn zoo_is_denied_at_admission_and_benign_tenants_complete() {
    let service = CloudService::new(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let subs: Vec<TenantSubmission> = zoo()
        .into_iter()
        .map(|entry| {
            TenantSubmission::new(entry.name, entry.netlist)
                .with_contract(ClockContract {
                    declared_clocks: entry
                        .declared_clocks
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    clock_mhz: None,
                })
                .with_workload(tiny_workload(1, 16))
        })
        .collect();
    let report = service.run(subs).unwrap();

    for entry in zoo() {
        let rec = report.tenant(entry.name).unwrap();
        if entry.malicious {
            assert_eq!(
                rec.status,
                TenantStatus::Denied,
                "{} must be denied at admission",
                entry.name
            );
            assert!(
                !rec.diagnostics.is_empty(),
                "{} denial must carry diagnostics",
                entry.name
            );
            assert!(rec.placement.is_none(), "{} must never place", entry.name);
        } else {
            assert_eq!(
                rec.status,
                TenantStatus::Completed,
                "benign {} must be admitted, placed and completed",
                entry.name
            );
            assert!(rec.placement.is_some());
            assert_eq!(rec.campaigns_delivered, 1);
        }
    }
    let malicious = zoo().iter().filter(|e| e.malicious).count() as u64;
    assert_eq!(report.denied, malicious);
    assert_eq!(report.admitted, zoo().len() as u64 - malicious);
}

#[test]
fn hundred_concurrent_campaigns_drain_under_quota_and_backpressure() {
    // Tight queues force intake deferral and rate caps force
    // multi-round residency: the classic deadlock shapes. 30 tenants x
    // 4 campaigns = 120 campaigns must all still be delivered.
    let config = ServiceConfig {
        admission_queue_depth: 4,
        intake_per_round: 4,
        wait_queue_depth: 30, // bounded, but nothing shed in this test
        max_campaigns_per_round: 12,
        workers: 0,
        ..ServiceConfig::default()
    };
    let service = CloudService::new(config);
    let nl = generators::c17();
    let subs: Vec<TenantSubmission> = (0..30)
        .map(|i| {
            TenantSubmission::new(format!("tenant{i:02}"), nl.clone())
                .with_workload(tiny_workload(4, 8))
                .with_quota(TenantQuota {
                    max_traces_per_round: 16, // at most 2 campaigns/round
                    ..TenantQuota::default()
                })
        })
        .collect();
    let report = service.run(subs).unwrap();
    assert_eq!(report.campaigns_delivered, 120);
    assert!(report.campaigns_delivered >= 100);
    for rec in &report.tenants {
        assert_eq!(
            rec.status,
            TenantStatus::Completed,
            "{} stalled: {rec:?}",
            rec.tenant
        );
        assert_eq!(rec.campaigns_delivered, 4);
        assert_eq!(rec.outcomes.len(), 4);
    }
    // One netlist, thirty submissions: the scan cache and the batch
    // dedup must have absorbed the duplicate scans.
    assert!(report.cache_misses > 0);
    assert!(
        report.rounds >= 2,
        "rate caps must stretch the run over rounds"
    );
}

/// The submission mix used by the determinism property: a benign CPA
/// fleet, a denied specimen, and a fault-injection tenant, under
/// small queues so deferral/backpressure paths execute too.
fn determinism_mix(fleet: usize) -> Vec<TenantSubmission> {
    let mut subs: Vec<TenantSubmission> = (0..fleet)
        .map(|i| {
            TenantSubmission::new(format!("cpa{i}"), generators::c17())
                .with_workload(tiny_workload(2, 8))
        })
        .collect();
    subs.push(TenantSubmission::new(
        "mallory",
        generators::ring_oscillator(8).unwrap(),
    ));
    subs.push(
        TenantSubmission::new("eve", generators::c17()).with_workload(WorkloadSpec {
            kind: CampaignKind::Fault {
                aggressor: slm_fabric::AggressorSpec::stealthy(3.0),
                model: slm_cpa::DfaModel::SingleByte { max_fault_bits: 2 },
            },
            traces: 60,
            campaigns: 1,
            ..WorkloadSpec::default()
        }),
    );
    subs
}

fn run_mix(
    seed: u64,
    fleet: usize,
    workers: usize,
) -> (slm_cloud::ServiceReport, slm_obs::MetricsFrame) {
    let config = ServiceConfig {
        admission_queue_depth: 3,
        intake_per_round: 3,
        max_campaigns_per_round: 4,
        seed,
        workers,
        ..ServiceConfig::default()
    };
    let service = CloudService::new(config);
    let obs = Obs::memory();
    let report = service
        .run_recorded(determinism_mix(fleet), &obs)
        .expect("service drains");
    (report, obs.snapshot().deterministic())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same submissions + seed => bit-identical report and
    /// worker-invariant deterministic metrics at 1, 2, 4 and 8
    /// workers. This is the service-level analogue of the campaign
    /// stack's shard-order-invariance properties.
    #[test]
    fn service_is_bit_identical_at_1_2_4_8_workers(
        seed in 0u64..1_000,
        fleet in 2usize..5,
    ) {
        let (reference, reference_frame) = run_mix(seed, fleet, 1);
        prop_assert!(reference.campaigns_delivered > 0);
        prop_assert_eq!(reference.denied, 1);
        for workers in [2usize, 4, 8] {
            let (report, frame) = run_mix(seed, fleet, workers);
            prop_assert_eq!(&reference, &report, "report diverged at {} workers", workers);
            prop_assert_eq!(
                &reference_frame,
                &frame,
                "deterministic metrics diverged at {} workers",
                workers
            );
        }
    }
}

#[test]
fn recorded_metrics_cover_every_stage() {
    let service = CloudService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let obs = Obs::memory();
    let subs = vec![
        TenantSubmission::new("alice", generators::alu(192).unwrap())
            .with_workload(tiny_workload(2, 8)),
        TenantSubmission::new("mallory", generators::ring_oscillator(8).unwrap()),
    ];
    let report = service.run_recorded(subs, &obs).unwrap();
    let frame = obs.snapshot();
    assert_eq!(frame.counter("cloud.submitted"), 2);
    assert_eq!(frame.counter("cloud.admitted"), 1);
    assert_eq!(frame.counter("cloud.admission.denied"), 1);
    assert_eq!(frame.counter("cloud.campaigns.delivered"), 2);
    assert_eq!(frame.counter("cloud.completed"), 1);
    assert!(frame.gauge("cloud.queue.admission.depth").is_some());
    assert!(frame.gauge("cloud.queue.wait.depth").is_some());
    assert!(frame.gauge("cloud.regions.free").is_some());
    let latency = frame
        .histogram("cloud.admission.latency_rounds")
        .expect("latency histogram");
    assert_eq!(latency.count, 2, "one observation per gated submission");
    assert!(frame.span("cloud.round").is_some());
    assert!(frame.span("cloud.admission.scan").is_some());
    assert!(frame.span("cloud.scheduler.place").is_some());
    assert!(frame.span("cloud.campaign").is_some());
    assert_eq!(report.campaigns_delivered, 2);
}

#[test]
fn recorded_service_run_carries_campaign_metrics() {
    // Each campaign records into its task's frame, folded into the
    // service's: the absorb counter covers exactly the traces of the
    // delivered CPA campaigns, and the fault shards their captures.
    let (report, frame) = run_mix(5, 3, 2);
    let (mut cpa_traces, mut fault_captures) = (0, 0);
    for outcome in report.tenants.iter().flat_map(|t| &t.outcomes) {
        match outcome {
            CampaignOutcome::Cpa { traces, .. } => cpa_traces += traces,
            CampaignOutcome::Fault { captures, .. } => fault_captures += captures,
        }
    }
    assert!(cpa_traces > 0 && fault_captures > 0);
    assert_eq!(frame.counter("cpa.traces_absorbed"), cpa_traces);
    assert_eq!(frame.counter("fault.captures"), fault_captures);
}

#[test]
fn fault_workload_tenant_faults_the_victim_through_the_service() {
    // The stealthy co-residency scenario end to end: eve's netlist is
    // structurally benign (admission passes), but her workload mounts
    // the calibrated PDN aggressor at runtime and the DFA recovers key
    // material from the faulted ciphertexts.
    let service = CloudService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let sub = TenantSubmission::new("eve", generators::c17()).with_workload(WorkloadSpec {
        kind: CampaignKind::Fault {
            aggressor: slm_fabric::AggressorSpec::stealthy(3.0),
            model: slm_cpa::DfaModel::SingleByte { max_fault_bits: 2 },
        },
        circuit: slm_fabric::BenignCircuit::DualC6288,
        traces: 300,
        campaigns: 1,
        defense: None,
    });
    let report = service.run(vec![sub]).unwrap();
    let eve = report.tenant("eve").unwrap();
    assert_eq!(eve.status, TenantStatus::Completed);
    match &eve.outcomes[0] {
        slm_cloud::CampaignOutcome::Fault {
            captures, faulted, ..
        } => {
            assert_eq!(*captures, 300);
            assert!(*faulted > 0, "calibrated aggressor must fault the victim");
        }
        other => panic!("expected a fault outcome, got {other:?}"),
    }
}
