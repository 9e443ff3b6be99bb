//! Sharded parallel CPA campaigns.
//!
//! The serial [`CpaExperiment::run`] captures every trace on
//! one fabric whose electrical state threads through the whole
//! campaign; that stream cannot be split without changing the traces.
//! A sharded campaign instead splits the *budget* into deterministic
//! shards ([`ShardPlan`]), each captured on its own fabric re-seeded
//! per shard ([`FabricConfig::for_shard`]), so shard `i` produces the
//! same traces whichever worker runs it. It is the campaign planner of
//! the [streaming engine](super::streaming) without a ledger: shards are
//! its lanes, folded in shard order, which makes the whole result
//! bit-identical at any worker count. The serial reference for a sharded
//! campaign is therefore `workers = 1` over the same plan, not the
//! single-fabric [`CpaExperiment::run`] stream.

use super::cpa::{CpaExperiment, CpaResult};
use super::streaming::{run_planner, StreamOutcome, StreamingCpa, StreamingError};
use serde::{Deserialize, Serialize};
use slm_fabric::{FabricConfig, FabricError, ShardPlan};
use slm_obs::Obs;

/// A sharded, multi-threaded CPA campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelCpa {
    /// The campaign parameters (budget, source, seed, checkpoints).
    pub base: CpaExperiment,
    /// Traces per shard. The shard layout depends only on this and the
    /// budget — never on `workers` — so changing the thread count can
    /// never change the result. Smaller shards balance better across
    /// workers; larger shards amortize fabric construction.
    pub shard_traces: u64,
    /// Worker threads capturing shards (0 = machine parallelism).
    pub workers: usize,
}

impl ParallelCpa {
    /// Wraps a campaign with a shard size of one sixteenth of the
    /// budget (at least 1) — enough shards to keep 8 workers busy with
    /// dynamic balancing — and machine parallelism. The size rounds
    /// *up* (`div_ceil`), so the plan never grows a seventeenth,
    /// degenerately small trailing shard the way floor division did for
    /// budgets that aren't multiples of 16.
    pub fn new(base: CpaExperiment) -> Self {
        ParallelCpa {
            base,
            shard_traces: base.traces.div_ceil(16).max(1),
            workers: 0,
        }
    }

    /// Sets the worker count (0 = machine parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The shard layout this campaign will execute.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.base.traces, self.shard_traces)
    }

    /// Runs the campaign on a worker pool. `tweak` applies once to the
    /// base configuration, before the pilot and before shard
    /// re-seeding. Each shard records into a forked sibling of `obs`;
    /// the shard frames fold back in shard index order, so the merged
    /// metrics — like the result — are bit-identical at any worker
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates fabric construction failures.
    pub fn run(
        &self,
        tweak: impl FnOnce(&mut FabricConfig),
        obs: &Obs,
    ) -> Result<CpaResult, FabricError> {
        // The streaming planner without a ledger: shards are its lanes,
        // each shard its own commit group.
        let lanes = StreamingCpa {
            base: self.base,
            window_traces: self.shard_traces,
            commit_every_windows: 1,
            workers: self.workers,
            early_stop: None,
            config_tag: 0,
        };
        match run_planner(&lanes, tweak, None, obs) {
            Ok(StreamOutcome::Complete(done)) => Ok(done.result),
            Err(StreamingError::Fabric(e)) => Err(e),
            _ => unreachable!("without a ledger the planner neither kills nor touches the store"),
        }
    }
}

/// [`ParallelCpa::run`] without a tweak or recording. Kept with this
/// signature for the benchmark harness, which calls it.
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn run_cpa_parallel(exp: &ParallelCpa) -> Result<CpaResult, FabricError> {
    exp.run(|_| {}, &Obs::null())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SensorSource;
    use slm_fabric::BenignCircuit;

    #[test]
    fn parallel_campaign_is_worker_count_invariant() {
        // The whole CpaResult — progress curve, MTD, peaks — must be
        // bit-identical (PartialEq on every f64) at any worker count.
        let run = |workers: usize| {
            let exp = ParallelCpa {
                base: CpaExperiment {
                    circuit: BenignCircuit::DualC6288,
                    source: SensorSource::TdcAll,
                    traces: 600,
                    checkpoints: 3,
                    pilot_traces: 40,
                    seed: 77,
                },
                shard_traces: 175,
                workers,
            };
            run_cpa_parallel(&exp).unwrap()
        };
        let serial = run(1);
        let wide = run(3);
        assert_eq!(serial, wide);
        assert_eq!(serial.traces, 600);
        // 600/3 = 200-trace checkpoints plus the final partial shard
        // boundary at 600 (= a checkpoint) ⇒ 3 progress points.
        assert_eq!(serial.progress.len(), 3);
        assert_eq!(serial.progress.last().unwrap().traces, 600);
    }

    #[test]
    fn parallel_tdc_campaign_recovers_key() {
        let exp = ParallelCpa {
            base: CpaExperiment {
                circuit: BenignCircuit::DualC6288,
                source: SensorSource::TdcAll,
                traces: 4_000,
                checkpoints: 8,
                pilot_traces: 100,
                seed: 7,
            },
            shard_traces: 500,
            workers: 0,
        };
        let r = run_cpa_parallel(&exp).unwrap();
        assert_eq!(r.recovered_key_byte, Some(r.correct_key_byte));
        let mtd = r.mtd.expect("TDC should disclose the key");
        assert!(mtd <= 4_000, "MTD {mtd} should be within budget");
        assert_eq!(r.final_peaks.len(), 256);
    }

    #[test]
    fn recorded_parallel_metrics_are_worker_count_invariant() {
        let run = |workers: usize| {
            let exp = ParallelCpa {
                base: CpaExperiment {
                    circuit: BenignCircuit::DualC6288,
                    source: SensorSource::TdcAll,
                    traces: 300,
                    checkpoints: 3,
                    pilot_traces: 20,
                    seed: 13,
                },
                shard_traces: 75,
                workers,
            };
            let obs = Obs::memory();
            let result = exp.run(|_| {}, &obs).unwrap();
            (result, obs.snapshot())
        };
        let (r1, f1) = run(1);
        let (r4, f4) = run(4);
        assert_eq!(r1, r4);
        // Wall-clock span durations differ; everything else — counters,
        // gauges, histograms, span counts — must be bit-identical.
        assert_eq!(f1.deterministic(), f4.deterministic());
        assert_eq!(f1.counter("cpa.traces_absorbed"), 300);
        assert_eq!(f1.spans["cpa.shard"].count, 4);
        assert_eq!(f1.spans["cpa.pilot"].count, 1);
        assert_eq!(f1.counter("cpa.merge_events"), 4);
        assert_eq!(f1.counter("cpa.traces_merged"), 300);
        assert_eq!(f1.histograms["cpa.checkpoint_margin"].count, 3);
    }

    #[test]
    fn default_shard_size_covers_budget() {
        let base = CpaExperiment {
            circuit: BenignCircuit::Alu192,
            source: SensorSource::TdcAll,
            traces: 1000,
            checkpoints: 4,
            pilot_traces: 10,
            seed: 1,
        };
        let exp = ParallelCpa::new(base).with_workers(2);
        // div_ceil: 1000 traces split 16 ways is 63-trace shards, not
        // the 62 floor division gave (which grew a degenerate 17th
        // shard of 8 traces).
        assert_eq!(exp.shard_traces, 63);
        let plan = exp.plan();
        assert_eq!(plan.total, 1000);
        let shards = plan.shards();
        assert_eq!(shards.len(), 16);
        assert_eq!(shards.iter().map(|s| s.traces).sum::<u64>(), 1000);
        assert!(shards.iter().all(|s| s.traces > 0), "no empty shards");
    }
}
