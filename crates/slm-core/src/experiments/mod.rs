//! Experiment runners, one per paper figure (see the crate root for the
//! figure ↔ runner table).

mod arch_study;
mod audits;
mod cpa;
mod defense_matrix;
mod extensions;
mod fault_matrix;
mod parallel;
mod preliminary;
mod stealth_matrix;
mod streaming;
mod transport_study;

pub use arch_study::{architecture_study, ArchRow, ArchStudy};
pub use audits::{
    atpg_stimulus_study, floorplan_views, stealth_audit, timing_audit, AtpgStudy, FloorplanView,
    StealthAudit, TimingAudit, TimingVerdict,
};
pub use cpa::{aes_pilot_activity, run_cpa_with, CpaExperiment, CpaResult, SensorSource};
pub use defense_matrix::{
    DefenseArm, DefenseMatrix, DefenseMatrixExperiment, DetectorEval, DetectorReading, MatrixCell,
};
pub use extensions::{
    fence_study, full_key_recovery, masking_study, placement_study, tdc_dominates, tvla_study,
    FenceStudy, FullKeyResult, MaskingStudy, PlacementRow, TvlaResult,
};
pub use fault_matrix::{
    run_fault_campaign, AggressorDetectorReading, FaultCampaign, FaultCampaignOutcome, FaultMatrix,
    FaultMatrixCell, FaultMatrixExperiment,
};
pub use parallel::{run_cpa_parallel, ParallelCpa};
pub use preliminary::{
    activity_study, bit_census, bit_variance, ro_response, ActivityStudy, CensusResult, RoResponse,
    VarianceResult,
};
pub use stealth_matrix::{
    stealth_matrix, MatrixRow, StealthMatrix, OVERCLOCK_MHZ, SYNTH_CRITICAL_NS,
};
pub use streaming::{
    run_streaming_with, CrashPlan, CrashSite, EarlyStop, StreamOutcome, StreamingCpa,
    StreamingError, StreamingResult,
};
pub use transport_study::{
    transport_fault_study, TransportFaultRow, TransportFaultStudy, TransportFaultStudyResult,
};
