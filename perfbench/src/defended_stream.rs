//! `defended-stream`: the streaming engine against a SHIELD-style
//! defense. `run_streaming_with` on the `PrngFence(1.5)` arm with
//! stimulus alternation 0.3 and the streaming bench's detector, a fixed
//! budget with no early stop, the default window and commit cadence,
//! and the checkpoint ledger in a fresh directory per campaign.
//!
//! The fence hooks roughly double a trace's cost, absorb goes record by
//! record, parallel width is tied to commit groups and every commit
//! writes the ledger, so this workload moves with changes the
//! undefended `cpa-campaign` never sees. With no early stop the work
//! per campaign is fixed whatever the outcome. Checks: the full budget
//! ran, no campaign resumed from a stale ledger, and every repeat of a
//! seed returns the identical result. The arm usually keeps the key
//! hidden at this budget but not always (some seeds disclose at the
//! last checkpoint), so disclosures are counted in the pinned output
//! summary rather than treated as failures.

use crate::common::{digest, run_capture, seed_pool, Capture};
use crate::layers::{self, LayerCosts, STREAM_DETECTOR};
use crate::sys::Stopwatch;
use crate::{Ctx, Outcome};
use slm_cloud::{CampaignKind, WorkloadSpec};
use slm_core::experiments::{
    run_streaming_with, CpaExperiment, DefenseArm, SensorSource, StreamingCpa,
};
use slm_fabric::{BenignCircuit, FabricConfig};

const TRACES: u64 = 4_000;
const CHECKPOINTS: usize = 4;
const PILOT_TRACES: usize = 100;
/// Fingerprint tag of the defended arm (checkpoints of differently
/// defended campaigns must not resume each other).
const ARM_TAG: u64 = 2;
const ARM: DefenseArm = DefenseArm::PrngFence(1.5);

fn experiment(seed: u64, workers: usize) -> StreamingCpa {
    StreamingCpa::new(CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: TRACES,
        checkpoints: CHECKPOINTS,
        pilot_traces: PILOT_TRACES,
        seed,
    })
    .with_workers(workers)
    .with_config_tag(ARM_TAG)
}

fn defense_seed(seed: u64) -> u64 {
    slm_par::mix_seed(seed, 0xdef)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let pool = seed_pool(ctx.seed);
    let workers = ctx.workers;
    let exp = experiment(pool[0], workers);
    let windows = exp.plan().shard_count() as u64;
    let commits = windows.div_ceil(exp.commit_every_windows);
    let (mut out, results) = run_capture(
        ctx,
        Capture {
            traces: TRACES,
            config: layers::defended(
                &FabricConfig {
                    benign: BenignCircuit::DualC6288,
                    seed: pool[0],
                    ..FabricConfig::default()
                },
                defense_seed(pool[0]),
            ),
            pool,
            workload: WorkloadSpec {
                circuit: BenignCircuit::DualC6288,
                kind: CampaignKind::Cpa {
                    source: SensorSource::TdcAll,
                },
                traces: 16,
                campaigns: 1,
                defense: Some(ARM),
            },
            commits_per_op: commits,
            check: "full_budget",
            campaign: |ctx: &Ctx, seed, id| {
                let dir = ctx.scratch.join(format!("ledger-{id}"));
                let deployment = ARM.deployment(STREAM_DETECTOR, defense_seed(seed));
                let t = Stopwatch::start();
                let r = {
                    let _span = ctx.tracer.span("core.run_streaming_with", id);
                    run_streaming_with(&experiment(seed, workers), &dir, |c| {
                        c.stimulus_alternation = 0.3;
                        c.defense = deployment;
                    })
                    .expect("streaming campaign runs")
                };
                let time = t.stop();
                let _ = std::fs::remove_dir_all(&dir);
                let full = r.traces == TRACES && !r.early_stopped && r.resumed_generation.is_none();
                (r.result, time, full)
            },
            // Captures and absorbs, the pilot, one fabric per window plus
            // the pilot's, and a progress evaluation plus a ledger commit
            // per commit group.
            busy_s: |c: &LayerCosts| {
                (TRACES as f64 * (c.capture_ns + c.absorb_ns)
                    + PILOT_TRACES as f64 * c.full_capture_ns
                    + (windows as f64 + 1.0) * c.build_us * 1e3
                    + commits as f64 * (c.eval_ms + c.ledger_commit_ms) * 1e6)
                    * 1e-9
            },
        },
    );
    out.summary = format!(
        "disclosed={} results={}",
        results.iter().filter(|r| r.mtd.is_some()).count(),
        digest(&results)
    );
    out
}
