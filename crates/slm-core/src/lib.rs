//! Top-level reproduction library for *"Stealthy Logic Misuse for Power
//! Analysis Attacks in Multi-Tenant FPGAs"* (DATE 2021, extended
//! version).
//!
//! This crate orchestrates the substrate crates into the paper's
//! experiments. Every evaluation figure has a runner in
//! [`experiments`]; DESIGN.md maps figure ↔ module ↔ bench target, and
//! EXPERIMENTS.md records paper-reported vs. reproduced values.
//!
//! | Paper figure | Runner |
//! |---|---|
//! | Figs. 3/4 (floorplans) | [`experiments::floorplan_views`] |
//! | Figs. 5/14 (raw toggling bits under ROs) | [`experiments::ro_response`] |
//! | Fig. 6 (TDC vs post-processed ALU) | [`experiments::ro_response`] |
//! | Figs. 7/15 (sensitive-bit census) | [`experiments::bit_census`] |
//! | Figs. 8/16 (per-bit variance) | [`experiments::bit_variance`] |
//! | Figs. 9–13, 17, 18 (CPA) | [`experiments::CpaExperiment::run`] |
//! | Stealth discussion (Sec. VI) | [`experiments::stealth_audit`] |
//! | Structural-evasion matrix (Sec. VI) | [`experiments::stealth_matrix`] |
//! | Strict-timing discussion (Sec. VI) | [`experiments::timing_audit`] |
//! | ATPG extension (Sec. VI) | [`experiments::atpg_stimulus_study`] |
//!
//! Extensions beyond the paper (see EXPERIMENTS.md):
//! [`experiments::full_key_recovery`] (16-byte key + schedule
//! inversion), [`experiments::tvla_study`] (leakage assessment),
//! [`experiments::fence_study`] / [`experiments::masking_study`] /
//! [`experiments::placement_study`] (countermeasures), and
//! [`experiments::architecture_study`] (which circuits make good
//! sensors).
//!
//! # Quickstart
//!
//! ```
//! use slm_core::experiments::{CpaExperiment, SensorSource};
//! use slm_fabric::BenignCircuit;
//! use slm_obs::Obs;
//!
//! // A miniature TDC-referenced key recovery (full-scale runs live in
//! // the benches/examples).
//! let exp = CpaExperiment {
//!     circuit: BenignCircuit::DualC6288,
//!     source: SensorSource::TdcAll,
//!     traces: 3_000,
//!     checkpoints: 6,
//!     pilot_traces: 200,
//!     seed: 42,
//! };
//! // No fabric tweak; `Obs::memory()` would record the campaign's metrics.
//! let result = exp.run(|_| {}, &Obs::null()).unwrap();
//! assert_eq!(result.recovered_key_byte, Some(result.correct_key_byte));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::{
    atpg_stimulus_study, bit_census, bit_variance, floorplan_views, ro_response, stealth_audit,
    stealth_matrix, timing_audit, CensusResult, CpaExperiment, CpaResult, DefenseArm,
    DefenseMatrix, DefenseMatrixExperiment, RoResponse, SensorSource, StealthAudit, StealthMatrix,
    TimingAudit, VarianceResult,
};
