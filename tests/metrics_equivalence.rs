//! Serial-vs-parallel metrics equivalence.
//!
//! The observability layer inherits the capture pool's merge
//! discipline: every shard records into a forked sibling recorder and
//! the frames fold back in shard index order. The property under test:
//! for the same campaign plan, the merged frame at 1, 2 and 4 workers
//! is identical in everything but wall-clock span durations — same
//! counters, same gauges, same histograms, same span counts.

use proptest::prelude::*;
use slm_core::experiments::{CpaExperiment, FaultCampaign, ParallelCpa, SensorSource};
use slm_cpa::DfaModel;
use slm_fabric::{AggressorSpec, BenignCircuit, FabricConfig};
use slm_obs::{MetricsFrame, Obs};

fn run(seed: u64, traces: u64, shard_traces: u64, workers: usize) -> MetricsFrame {
    let exp = ParallelCpa {
        base: CpaExperiment {
            circuit: BenignCircuit::Alu192,
            source: SensorSource::TdcAll,
            traces,
            checkpoints: 2,
            pilot_traces: 10,
            seed,
        },
        shard_traces,
        workers,
    };
    let obs = Obs::memory();
    exp.run(|_| {}, &obs).expect("fabric builds");
    obs.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn merged_metrics_are_identical_at_1_2_4_workers(
        seed in 0u64..1_000,
        traces in 40u64..90,
        shard_traces in 10u64..30,
    ) {
        let serial = run(seed, traces, shard_traces, 1);
        let two = run(seed, traces, shard_traces, 2);
        let four = run(seed, traces, shard_traces, 4);
        // Strip only wall-clock span durations; counters, gauges,
        // histograms and span *counts* must be bit-identical.
        let serial = serial.deterministic();
        prop_assert_eq!(&serial, &two.deterministic());
        prop_assert_eq!(&serial, &four.deterministic());
        // and the counters actually cover the campaign:
        prop_assert_eq!(serial.counter("cpa.traces_absorbed"), traces);
    }

    /// The fault-injection campaign inherits the same discipline: its
    /// shard frames (capture and DFA pair counters) fold back in shard
    /// order, so the merged frame is worker-count invariant too.
    #[test]
    fn fault_campaign_metrics_are_identical_at_1_2_4_workers(
        seed in 0u64..1_000,
        captures in 120u64..240,
        shard_captures in 30u64..70,
    ) {
        let run = |workers: usize| {
            let exp = FaultCampaign {
                config: FabricConfig {
                    benign: BenignCircuit::DualC6288,
                    seed,
                    aggressor: Some(AggressorSpec::stealthy(3.0)),
                    ..FabricConfig::default()
                },
                model: DfaModel::SingleByte { max_fault_bits: 2 },
                captures,
                shard_captures,
                workers,
            };
            let obs = Obs::memory();
            exp.run(&obs).expect("fabric builds");
            obs.snapshot()
        };
        let serial = run(1).deterministic();
        prop_assert_eq!(&serial, &run(2).deterministic());
        prop_assert_eq!(&serial, &run(4).deterministic());
        prop_assert_eq!(serial.counter("fault.captures"), captures);
        prop_assert!(serial.counter("fault.pairs_accepted") > 0);
    }
}
