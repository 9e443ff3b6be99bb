//! `cpa-campaign`: the paper's headline attack. Sharded last-round CPA
//! on the DualC6288 benign sensor read through the TDC (`TdcAll`),
//! undefended, with a fixed trace budget and a warm prototype cache.
//!
//! Each operation is one `run_cpa_parallel` campaign at machine
//! parallelism, cycling through the seed pool (see
//! [`crate::common::run_capture`]). Checks: every campaign recovers the
//! key byte, every repeat of a seed returns the identical `CpaResult`,
//! and the first seed's result is identical at 1 worker.

use crate::common::{digest, run_capture, seed_pool, Capture};
use crate::layers::LayerCosts;
use crate::sys::Stopwatch;
use crate::{Ctx, Outcome};
use slm_cloud::{CampaignKind, WorkloadSpec};
use slm_core::experiments::{run_cpa_parallel, CpaExperiment, ParallelCpa, SensorSource};
use slm_fabric::{BenignCircuit, FabricConfig};

/// Traces per campaign: past the key-recovery point of every seed
/// tried (the slowest of 80 disclosed at 6k).
const TRACES: u64 = 16_000;
const CHECKPOINTS: usize = 16;
const PILOT_TRACES: usize = 40;

fn experiment(seed: u64, workers: usize) -> ParallelCpa {
    ParallelCpa::new(CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: TRACES,
        checkpoints: CHECKPOINTS,
        pilot_traces: PILOT_TRACES,
        seed,
    })
    .with_workers(workers)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let pool = seed_pool(ctx.seed);
    let workers = ctx.workers;
    let shards = experiment(pool[0], workers).plan().shard_count() as f64;
    let (mut out, results) = run_capture(
        ctx,
        Capture {
            traces: TRACES,
            config: FabricConfig {
                benign: BenignCircuit::DualC6288,
                seed: pool[0],
                ..FabricConfig::default()
            },
            pool: pool.clone(),
            workload: WorkloadSpec {
                circuit: BenignCircuit::DualC6288,
                kind: CampaignKind::Cpa {
                    source: SensorSource::TdcAll,
                },
                traces: 16,
                campaigns: 1,
                defense: None,
            },
            commits_per_op: 0,
            check: "recovered",
            campaign: |ctx: &Ctx, seed, id| {
                let t = Stopwatch::start();
                let r = {
                    let _span = ctx.tracer.span("core.run_cpa_parallel", id);
                    run_cpa_parallel(&experiment(seed, workers)).expect("campaign runs")
                };
                let time = t.stop();
                let recovered = r.recovered_key_byte == Some(r.correct_key_byte);
                (r, time, recovered)
            },
            // Captures and absorbs, the pilot, one fabric per shard plus
            // the pilot's and the evaluator's, and one evaluation per
            // checkpoint plus the final one.
            busy_s: |c: &LayerCosts| {
                (TRACES as f64 * (c.capture_ns + c.absorb_ns)
                    + PILOT_TRACES as f64 * c.full_capture_ns
                    + (shards + 2.0) * c.build_us * 1e3
                    + (CHECKPOINTS as f64 + 1.0) * c.eval_ms * 1e6)
                    * 1e-9
            },
        },
    );

    // Worker invariance: the first seed at one worker.
    let serial = run_cpa_parallel(&experiment(pool[0], 1)).expect("campaign runs");
    ctx.checks.check(results.first() == Some(&serial), || {
        "CpaResult differs between 1 worker and machine parallelism".into()
    });
    let mtds: Vec<Option<u64>> = results.iter().map(|r| r.mtd).collect();
    out.summary = format!("mtd={mtds:?} results={}", digest(&results));
    out
}
