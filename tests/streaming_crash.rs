//! Crash-safety properties of the streaming campaign engine.
//!
//! The contract under test: a streaming campaign killed at *arbitrary*
//! pipeline sites ([`CrashPlan`]) and resumed over the same ledger
//! directory produces a [`CpaResult`] bit-identical to the
//! uninterrupted run, at any worker count — and never retains more raw
//! traces than one window, regardless of the trace budget.

use slm_core::experiments::{
    run_streaming_with, CpaExperiment, CpaResult, CrashPlan, CrashSite, DefenseArm, EarlyStop,
    SensorSource, StreamOutcome, StreamingCpa, StreamingError,
};
use slm_cpa::store::{read_stream_checkpoint, write_stream_checkpoint, CheckpointLedger};
use slm_fabric::{BenignCircuit, DetectorConfig, FabricConfig};
use slm_obs::Obs;
use std::path::PathBuf;
use std::sync::OnceLock;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slm-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference campaign: 240 traces in four 60-trace windows, one
/// commit per window — four commit groups to aim kills at.
fn campaign() -> StreamingCpa {
    StreamingCpa::new(CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 240,
        checkpoints: 4,
        pilot_traces: 20,
        seed: 41,
    })
    .with_window(60)
    .with_commit_every(1)
    .with_workers(1)
}

/// The uninterrupted reference result, computed once.
fn reference() -> &'static CpaResult {
    static REF: OnceLock<CpaResult> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = scratch_dir("reference");
        let r = run_streaming_with(&campaign(), &dir, |_| {}).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        r.result
    })
}

/// Drives a faulted run to completion: re-invokes the engine over the
/// same ledger until the crash plan is exhausted and the run completes,
/// exactly as an operator restarting a dead process would.
fn run_until_complete(
    exp: &StreamingCpa,
    dir: &PathBuf,
    plan: &mut CrashPlan,
) -> (CpaResult, u64, u64) {
    let mut kills = 0u64;
    loop {
        match exp.run(dir, |_| {}, &Obs::null(), plan).unwrap() {
            StreamOutcome::Complete(r) => return (r.result, kills, r.recovered_generations),
            StreamOutcome::Killed { .. } => kills += 1,
        }
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    const SITES: [CrashSite; 4] = [
        CrashSite::AfterCapture,
        CrashSite::AfterFold,
        CrashSite::TornCommit,
        CrashSite::AfterCommit,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any single kill at any site of any commit group, resumed at
        /// 1 or 3 workers, reproduces the uninterrupted result bit for
        /// bit. (Torn first commits leave an all-corrupt ledger, which
        /// is an explicit error — covered separately below — so torn
        /// kills aim at groups ≥ 1 here.)
        #[test]
        fn kill_anywhere_resume_is_bit_identical(
            group in 0u64..4,
            site_idx in 0usize..4,
            workers_idx in 0usize..2,
        ) {
            let site = SITES[site_idx];
            let group = if site == CrashSite::TornCommit { group.max(1) } else { group };
            let workers = [1usize, 3][workers_idx];
            let dir = scratch_dir(&format!("prop-{group}-{site_idx}-{workers}"));
            let exp = campaign().with_workers(workers);
            let mut plan = CrashPlan::none().kill_at(group, site);
            let (result, kills, _) = run_until_complete(&exp, &dir, &mut plan);
            prop_assert_eq!(kills, 1);
            prop_assert_eq!(plan.fired(), 1);
            prop_assert_eq!(&result, reference());
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Two kills in one lifetime — die, resume, die again, resume —
        /// still land on the identical result.
        #[test]
        fn double_kill_chain_is_bit_identical(
            g1 in 0u64..2,
            g2 in 2u64..4,
            s1 in 0usize..2,
            s2 in 0usize..4,
        ) {
            let dir = scratch_dir(&format!("chain-{g1}-{g2}-{s1}-{s2}"));
            let exp = campaign();
            let mut plan = CrashPlan::none()
                .kill_at(g1, SITES[s1])
                .kill_at(g2, SITES[s2]);
            let (result, kills, _) = run_until_complete(&exp, &dir, &mut plan);
            prop_assert_eq!(kills, 2);
            prop_assert_eq!(&result, reference());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn bit_flip_in_newest_generation_falls_back_gracefully() {
    let dir = scratch_dir("bitflip");
    let exp = campaign();
    // Die right after the third commit, leaving generations 1..=3.
    let mut plan = CrashPlan::none().kill_at(2, CrashSite::AfterCommit);
    let killed = exp.run(&dir, |_| {}, &Obs::null(), &mut plan).unwrap();
    assert!(matches!(killed, StreamOutcome::Killed { .. }));
    // Corrupt the newest generation on disk with a single bit flip.
    let mut gens: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    gens.sort();
    let newest = gens.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(newest, &bytes).unwrap();
    // Resume: the flipped generation is skipped, generation 2 loads,
    // the recovery counter ticks, and the result is still identical.
    let obs = Obs::memory();
    let resumed = exp
        .run(&dir, |_| {}, &obs, &mut CrashPlan::none())
        .unwrap()
        .complete()
        .unwrap();
    assert_eq!(&resumed.result, reference());
    assert_eq!(resumed.recovered_generations, 1);
    assert_eq!(obs.snapshot().counter("stream.recovered_generations"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sealed_checkpoint_with_nan_peak_falls_back_to_previous_generation() {
    let dir = scratch_dir("nan-peak");
    let exp = campaign();
    // Die right after the second commit, leaving generations 1 and 2.
    let mut plan = CrashPlan::none().kill_at(1, CrashSite::AfterCommit);
    let killed = exp.run(&dir, |_| {}, &Obs::null(), &mut plan).unwrap();
    assert!(matches!(killed, StreamOutcome::Killed { .. }));
    // A correctly sealed generation 3 whose first progress point holds
    // a NaN peak: the seal cannot catch it, the reader must.
    let ledger = CheckpointLedger::open(&dir).unwrap();
    let mut cp = ledger
        .load_latest(|bytes| read_stream_checkpoint(bytes))
        .unwrap()
        .expect("two generations committed")
        .state;
    cp.progress[0][0].peak_corr[3] = f64::NAN;
    let mut bytes = Vec::new();
    write_stream_checkpoint(&mut bytes, &cp).unwrap();
    assert_eq!(ledger.commit(&bytes).unwrap(), 3);
    // The early-stop rule compares every resumed progress point; it
    // never fires here (margins stay below 2), so the result must be
    // the uninterrupted one, resumed from generation 2.
    let rule = EarlyStop {
        min_traces: 0,
        stable_commits: 2,
        min_margin: 2.0,
    };
    let resumed = run_streaming_with(&exp.with_early_stop(rule), &dir, |_| {}).unwrap();
    assert_eq!(resumed.resumed_generation, Some(2));
    assert_eq!(resumed.recovered_generations, 1);
    assert!(!resumed.early_stopped);
    assert_eq!(&resumed.result, reference());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_first_commit_errors_instead_of_silently_restarting() {
    let dir = scratch_dir("torn-first");
    let exp = campaign();
    let mut plan = CrashPlan::none().kill_at(0, CrashSite::TornCommit);
    exp.run(&dir, |_| {}, &Obs::null(), &mut plan).unwrap();
    // The only generation on disk is torn: every checkpoint is
    // unreadable, and restarting from zero must be an explicit
    // operator decision, not a silent default.
    match run_streaming_with(&exp, &dir, |_| {}).unwrap_err() {
        StreamingError::Io(e) => {
            let msg = e.to_string();
            assert!(msg.contains("no loadable checkpoint generation"), "{msg}");
        }
        other => panic!("expected Io error, got {other:?}"),
    }
    // The operator clears the ledger; the fresh run matches.
    std::fs::remove_dir_all(&dir).unwrap();
    let fresh = run_streaming_with(&exp, &dir, |_| {}).unwrap();
    assert_eq!(&fresh.result, reference());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tweak deploying `arm` with a fixed detector and seed.
fn defended(arm: DefenseArm) -> impl Fn(&mut FabricConfig) {
    move |config| {
        config.defense = arm.deployment(
            DetectorConfig {
                window_ticks: 4098,
                alarm_threshold: 0.05,
            },
            7,
        )
    }
}

#[test]
fn resume_under_another_defense_is_refused() {
    // Neither run tags its tweak (`config_tag` stays 0), yet a ledger
    // committed under the PRNG fence must not resume into an
    // LDO-defended campaign: merging would mix two fabrics' traces.
    let dir = scratch_dir("other-defense");
    let exp = campaign();
    let fence = DefenseArm::PrngFence(1.5);
    let mut plan = CrashPlan::none().kill_at(0, CrashSite::AfterCommit);
    let killed = exp
        .run(&dir, defended(fence), &Obs::null(), &mut plan)
        .unwrap();
    assert_eq!(
        killed,
        StreamOutcome::Killed {
            windows_committed: 1,
            traces_committed: 60
        }
    );
    match run_streaming_with(&exp, &dir, defended(DefenseArm::Ldo(0.25))) {
        Err(StreamingError::Incompatible(why)) => {
            assert!(why.contains("fingerprint"), "unhelpful error: {why}")
        }
        Err(other) => panic!("expected Incompatible, got {other:?}"),
        Ok(r) => panic!(
            "resumed generation {:?} into another defense",
            r.resumed_generation
        ),
    }
    // The same defense still resumes from the committed generation.
    let resumed = run_streaming_with(&exp, &dir, defended(fence)).unwrap();
    assert_eq!(resumed.resumed_generation, Some(1));
    assert_eq!(resumed.traces, 240);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn raw_trace_retention_is_bounded_by_window_not_budget() {
    let run = |traces: u64, tag: &str| {
        let dir = scratch_dir(tag);
        let exp = StreamingCpa::new(CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces,
            checkpoints: 4,
            pilot_traces: 20,
            seed: 42,
        })
        .with_window(50)
        .with_commit_every(4)
        .with_workers(2);
        let obs = Obs::memory();
        let r = exp
            .run(&dir, |_| {}, &obs, &mut CrashPlan::none())
            .unwrap()
            .complete()
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (r, obs.snapshot())
    };
    let (small, _) = run(200, "mem-small");
    let (large, frame) = run(1_000, "mem-large");
    // 5× the budget, identical peak retention: one window's traces.
    assert_eq!(small.peak_raw_traces, 50);
    assert_eq!(large.peak_raw_traces, 50);
    assert!(large.peak_raw_traces <= 50);
    assert_eq!(frame.gauges["stream.peak_raw_traces"].last, 50.0);
    assert_eq!(frame.counter("stream.windows_committed"), 20);
    assert_eq!(frame.counter("stream.commits"), 5);
    assert!(frame.counter("stream.bytes_journaled") > 0);
}

#[test]
fn multi_slot_single_bit_campaign_survives_kills() {
    // BenignSingleBit(None) runs up to eight accumulator slots in
    // parallel — the multi-slot stream-checkpoint path.
    let exp = StreamingCpa::new(CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::BenignSingleBit(None),
        traces: 180,
        checkpoints: 3,
        pilot_traces: 60,
        seed: 43,
    })
    .with_window(60)
    .with_commit_every(1)
    .with_workers(2);
    let clean_dir = scratch_dir("slots-clean");
    let clean = run_streaming_with(&exp, &clean_dir, |_| {}).unwrap();
    let dir = scratch_dir("slots-killed");
    let mut plan = CrashPlan::none()
        .kill_at(1, CrashSite::AfterCapture)
        .kill_at(2, CrashSite::TornCommit);
    let (result, kills, recovered) = run_until_complete(&exp, &dir, &mut plan);
    assert_eq!(kills, 2);
    assert_eq!(recovered, 1);
    assert_eq!(result, clean.result);
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_final_state_matches_parallel_runner() {
    // The streaming engine re-uses the parallel runner's shard lanes:
    // with window == shard size, both fold the exact same capture
    // streams, so the final merged accumulator state — peaks and
    // recovered byte — must agree bit for bit.
    let base = CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 300,
        checkpoints: 3,
        pilot_traces: 20,
        seed: 44,
    };
    let dir = scratch_dir("vs-parallel");
    let streamed = run_streaming_with(
        &StreamingCpa::new(base).with_window(75).with_workers(2),
        &dir,
        |_| {},
    )
    .unwrap();
    let parallel = slm_core::experiments::run_cpa_parallel(&slm_core::experiments::ParallelCpa {
        base,
        shard_traces: 75,
        workers: 2,
    })
    .unwrap();
    assert_eq!(streamed.result.final_peaks, parallel.final_peaks);
    assert_eq!(
        streamed.result.recovered_key_byte,
        parallel.recovered_key_byte
    );
    assert_eq!(streamed.result.correct_key_byte, parallel.correct_key_byte);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recorded run's deterministic metrics, minus the one wall-clock
/// gauge the engine reports (`stream.traces_per_sec`).
fn deterministic_frame(obs: &Obs) -> slm_obs::MetricsFrame {
    let mut frame = obs.snapshot().deterministic();
    frame.gauges.remove("stream.traces_per_sec");
    frame
}

#[test]
fn default_cadence_is_worker_invariant_with_capture_ahead() {
    // Committing every window no longer pins capture to one window at
    // a time: at 2 and 4 workers windows are captured ahead of the
    // commit cursor (and the pilot runs beside them), yet results and
    // deterministic metrics match the 1-worker run exactly.
    let run = |workers: usize| {
        let dir = scratch_dir(&format!("cadence-{workers}"));
        let obs = Obs::memory();
        let r = campaign()
            .with_workers(workers)
            .run(&dir, |_| {}, &obs, &mut CrashPlan::none())
            .unwrap()
            .complete()
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (r, deterministic_frame(&obs))
    };
    let (one, one_frame) = run(1);
    assert_eq!(&one.result, reference());
    assert_eq!(one_frame.counter("cpa.traces_absorbed"), 240);
    assert_eq!(one_frame.counter("stream.commits"), 4);
    for workers in [2, 4] {
        let (wide, wide_frame) = run(workers);
        assert_eq!(wide.result, one.result, "{workers} workers");
        assert_eq!(wide_frame, one_frame, "{workers} workers");
        assert_eq!(wide.peak_raw_traces, 60);
    }
}

#[test]
fn early_stop_discards_windows_captured_ahead() {
    // At 4 workers the look-ahead spans the whole 16-window plan, so
    // windows past the stop are captured and must be dropped unfolded:
    // the stop lands at the same trace count as at 1 worker, with the
    // same result and the same absorbed-trace count.
    let run = |workers: usize| {
        let dir = scratch_dir(&format!("early-{workers}"));
        let exp = StreamingCpa::new(CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 4_000,
            checkpoints: 4,
            pilot_traces: 20,
            seed: 45,
        })
        .with_workers(workers)
        .with_early_stop(EarlyStop {
            min_traces: 1_000,
            stable_commits: 2,
            min_margin: 0.01,
        });
        let obs = Obs::memory();
        let r = exp
            .run(&dir, |_| {}, &obs, &mut CrashPlan::none())
            .unwrap()
            .complete()
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (r, deterministic_frame(&obs))
    };
    let (one, one_frame) = run(1);
    assert!(one.early_stopped);
    assert!(one.traces < 4_000, "stopped at {}", one.traces);
    let (four, four_frame) = run(4);
    assert!(four.early_stopped);
    assert_eq!(four.traces, one.traces);
    assert_eq!(four.result, one.result);
    assert_eq!(four_frame.counter("cpa.traces_absorbed"), one.traces);
    assert_eq!(four_frame, one_frame);
}

#[test]
fn kill_with_successors_captured_ahead_resumes_bit_identically() {
    // At 4 workers the look-ahead covers all four windows, so when
    // group 1 dies — before its fold, or mid-commit — groups 2 and 3
    // are already captured (or in flight) and are lost with it.
    for site in [CrashSite::AfterCapture, CrashSite::TornCommit] {
        let dir = scratch_dir(&format!("ahead-{site:?}"));
        let exp = campaign().with_workers(4);
        let mut plan = CrashPlan::none().kill_at(1, site);
        let killed = exp.run(&dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        assert_eq!(
            killed,
            StreamOutcome::Killed {
                windows_committed: 1,
                traces_committed: 60
            }
        );
        let resumed = run_streaming_with(&exp, &dir, |_| {}).unwrap();
        assert_eq!(resumed.resumed_generation, Some(1));
        assert_eq!(&resumed.result, reference());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fully_committed_ledger_still_runs_the_overlapped_pilot() {
    // TdcAll overlaps its pilot with the first capture round. A resume
    // that finds every window committed captures nothing, but the
    // result still needs the pilot's bits of interest.
    let dir = scratch_dir("complete-resume");
    let exp = campaign().with_workers(2);
    let fresh = run_streaming_with(&exp, &dir, |_| {}).unwrap();
    assert!(!fresh.result.bits_of_interest.is_empty());
    let obs = Obs::memory();
    let again = exp
        .run(&dir, |_| {}, &obs, &mut CrashPlan::none())
        .unwrap()
        .complete()
        .unwrap();
    assert_eq!(again.resumed_generation, Some(4));
    assert_eq!(again.result, fresh.result);
    let frame = obs.snapshot();
    assert_eq!(frame.counter("cpa.traces_absorbed"), 0);
    assert_eq!(frame.spans["stream.pilot"].count, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
