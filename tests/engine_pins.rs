//! Bit-level pins of the CPA campaign engines.
//!
//! Every field of the [`CpaResult`] each engine returns — key bytes,
//! MTD, every progress peak, every final peak, the pilot's endpoint
//! choices — is digested through `f64::to_bits`, so any change to the
//! capture stream, the absorb order, the prefix-merge arithmetic or
//! the checkpoint grid shows up here. The other suites bound MTDs or
//! compare engines with each other; these digests pin the absolute
//! bits of the serial, sharded and streaming engines for all four
//! sensor sources (including the multi-slot single-bit selection), and
//! of the two extensions that capture through the campaign pilot:
//! full-key recovery and the TVLA study.

use slm_core::experiments::{
    full_key_recovery, run_cpa_parallel, run_cpa_with, run_streaming_with, tvla_study,
    CpaExperiment, CpaResult, ParallelCpa, SensorSource, StreamingCpa,
};
use slm_fabric::{BenignCircuit, FabricConfig, MultiTenantFabric};

const SOURCES: [SensorSource; 4] = [
    SensorSource::TdcAll,
    SensorSource::TdcSingleBit(None),
    SensorSource::BenignHammingWeight,
    SensorSource::BenignSingleBit(None),
];

fn experiment(source: SensorSource) -> CpaExperiment {
    CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source,
        traces: 300,
        // 75-trace checkpoints against 50-trace lanes: checkpoints fall
        // both inside lanes (75, 225) and on lane ends (150, 300).
        checkpoints: 4,
        pilot_traces: 100,
        seed: 41,
    }
}

/// FNV-1a over the little-endian words of every result field.
fn digest(r: &CpaResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    word(u64::from(r.correct_key_byte));
    word(r.recovered_key_byte.map_or(u64::MAX, u64::from));
    word(r.mtd.unwrap_or(u64::MAX));
    word(r.progress.len() as u64);
    for p in &r.progress {
        word(p.traces);
        word(p.peak_corr.len() as u64);
        for c in &p.peak_corr {
            word(c.to_bits());
        }
    }
    word(r.final_peaks.len() as u64);
    for c in &r.final_peaks {
        word(c.to_bits());
    }
    word(r.bits_of_interest.len() as u64);
    for &b in &r.bits_of_interest {
        word(b as u64);
    }
    word(r.selected_bit.map_or(u64::MAX, |b| b as u64));
    word(r.traces);
    h
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(slm_par::fnv1a(&[]), |h, w| {
        slm_par::fnv1a_extend(h, &w.to_le_bytes())
    })
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("slm-engine-pins-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Digests one engine over every source and compares against `pinned`,
/// printing the whole actual table on a mismatch.
fn check(engine: &str, run: impl Fn(CpaExperiment) -> CpaResult, pinned: [u64; 4]) {
    let actual: Vec<u64> = SOURCES
        .iter()
        .map(|&s| digest(&run(experiment(s))))
        .collect();
    assert_eq!(
        actual, pinned,
        "{engine} digests moved; actual per source {SOURCES:?}: {actual:x?}"
    );
}

#[test]
fn multi_slot_source_selects_among_several_endpoints() {
    // The BenignSingleBit(None) pin only covers the multi-slot path if
    // the pilot offers more than one candidate endpoint. The bits of
    // interest are the endpoints that toggled (each then has non-zero
    // variance, so each is a candidate) unless none did, in which case
    // the pilot falls back to every endpoint and a single slot.
    let exp = experiment(SensorSource::BenignSingleBit(None));
    let all = MultiTenantFabric::new(&FabricConfig {
        benign: exp.circuit,
        seed: exp.seed,
        ..FabricConfig::default()
    })
    .unwrap()
    .endpoints();
    let r = run_cpa_with(&exp, |_| {}).unwrap();
    let toggled = r.bits_of_interest.len();
    assert!(1 < toggled && toggled < all, "{toggled} of {all} endpoints");
    assert!(r.bits_of_interest.contains(&r.selected_bit.unwrap()));
}

#[test]
fn serial_engine_bits_are_pinned() {
    check(
        "CpaExperiment::run",
        |e| run_cpa_with(&e, |_| {}).unwrap(),
        SERIAL,
    );
}

#[test]
fn sharded_engine_bits_are_pinned_at_1_and_2_workers() {
    for workers in [1, 2] {
        check(
            &format!("ParallelCpa::run({workers} workers)"),
            |base| {
                run_cpa_parallel(&ParallelCpa {
                    base,
                    shard_traces: 50,
                    workers,
                })
                .unwrap()
            },
            SHARDED,
        );
    }
}

#[test]
fn streaming_engine_bits_are_pinned_at_commit_every_1_and_2() {
    for (commit_every, pinned) in [(1, STREAMING_COMMIT_1), (2, STREAMING_COMMIT_2)] {
        check(
            &format!("StreamingCpa::run(commit_every {commit_every})"),
            |base| {
                let dir = scratch_dir(&format!("{:?}-{commit_every}", base.source));
                let exp = StreamingCpa::new(base)
                    .with_window(50)
                    .with_commit_every(commit_every)
                    .with_workers(2);
                let r = run_streaming_with(&exp, &dir, |_| {}).unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                r.result
            },
            pinned,
        );
    }
}

#[test]
fn full_key_recovery_bits_are_pinned() {
    let actual: Vec<u64> = SOURCES
        .iter()
        .map(|&source| {
            let r = full_key_recovery(BenignCircuit::DualC6288, source, 300, 100, 41).unwrap();
            let keys = [
                r.true_round_key,
                r.recovered_round_key,
                r.recovered_master_key,
            ];
            fnv_words(
                keys.iter()
                    .flatten()
                    .map(|&b| u64::from(b))
                    .chain([u64::from(r.master_key_correct), r.correct_bytes as u64])
                    .chain([r.ranks.len() as u64])
                    .chain(r.ranks.iter().map(|&k| k as u64))
                    .chain([r.traces]),
            )
        })
        .collect();
    assert_eq!(
        actual, FULL_KEY,
        "full_key_recovery digests moved; actual per source {SOURCES:?}: {actual:x?}"
    );
}

#[test]
fn tvla_study_bits_are_pinned() {
    let r = tvla_study(BenignCircuit::DualC6288, 300, 100, 41).unwrap();
    let actual = fnv_words([
        r.tdc_max_t.to_bits(),
        r.benign_max_t.to_bits(),
        u64::from(r.tdc_leaks),
        u64::from(r.benign_leaks),
        r.traces_per_class,
    ]);
    assert_eq!(actual, TVLA, "tvla_study digest moved: {actual:#018x}");
}

const SERIAL: [u64; 4] = [
    0xe13338f8da0a2609,
    0x51cd5a21c587a614,
    0x8cc7920700a8dad3,
    0x01fe90720a47fe5c,
];
const SHARDED: [u64; 4] = [
    0x8468afd64fb8550d,
    0x0d130e4b84e84274,
    0x3183acb6347c7647,
    0xe10e0d1c0b3db47b,
];
const STREAMING_COMMIT_1: [u64; 4] = [
    0x0ce09fcf2be7dfda,
    0xdbf1d52de11debce,
    0x3e5591bf5c8bb461,
    0x2498de15caad9278,
];
const STREAMING_COMMIT_2: [u64; 4] = [
    0x45ec242034a7e76b,
    0xf1d3af92ec5cbdde,
    0x78dcb9b0e9e1e6b7,
    0x18507cf8754f49de,
];
const FULL_KEY: [u64; 4] = [
    0xe6690dd29fa7ba0d,
    0xe6690dd29fa7ba0d,
    0x45c8baaf97125a53,
    0x0e76fb88adaca266,
];
const TVLA: u64 = 0xdd819c814c43eaf8;
