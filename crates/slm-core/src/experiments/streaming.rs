//! Crash-safe streaming CPA campaigns, and the one campaign planner.
//!
//! Million-trace campaigns (the cloud-FPGA case study's 10⁵–10⁷-trace
//! defended runs) cannot hold their raw traces in memory and cannot
//! afford to lose hours of capture to a process death. The streaming
//! engine runs the budget as bounded-memory *windows*: capture a window
//! on its own re-seeded fabric ([`FabricConfig::for_shard`]) through the
//! campaign kernel, fold it into the mergeable accumulators, drop the
//! raw traces. Every `commit_every_windows` windows the engine seals the
//! accumulator state — plus the progress curves and a campaign-parameter
//! fingerprint — into a [`StreamCheckpoint`] and commits it to an atomic
//! generation ledger ([`CheckpointLedger`]: write-to-temp, checksum,
//! rename).
//!
//! Capture runs ahead of the commit cursor on the worker pool, and the
//! planner folds, evaluates and commits strictly in window order. For
//! sources that need no pilot statistics the pilot runs beside the
//! first captures instead of in front of them. The sharded in-memory
//! campaign ([`ParallelCpa::run`](super::parallel::ParallelCpa::run)) is
//! the same planner without a ledger.
//!
//! # Exact-once window accounting
//!
//! A window is the unit of durability. Because window `i`'s capture
//! stream depends only on the campaign seed and `i` — never on which
//! worker ran it, wall-clock time, or what happened to earlier windows
//! in this process — a window that dies mid-capture or mid-fold is
//! simply re-captured from its seed lane on resume, bit-identically.
//! A committed window is never re-captured: resume starts at the first
//! window past the last committed generation. The resume path verifies
//! the checkpoint's window/trace accounting against the current shard
//! plan's prefix, so a checkpoint can never be silently merged into a
//! campaign whose window layout it does not prefix.
//!
//! # Crash injection
//!
//! [`CrashPlan`] injects simulated process deaths at the boundaries of
//! the capture → fold → commit pipeline ([`CrashSite`]), including a
//! *torn commit* that persists a truncated generation before dying —
//! the on-disk faults (bit flips, truncation, stale temp files) are
//! exercised directly against the store layer. The kill/resume
//! property tests assert that a run killed at arbitrary sites and
//! resumed produces a [`CpaResult`] bit-identical to the uninterrupted
//! run, at any worker count.

use super::cpa::{
    assemble_result, best_slot, capture_lane, pilot_independent, pilot_setup, push_progress,
    record_fabric_telemetry, CampaignSetup, CpaExperiment, CpaResult, Lane, Names, ABSORB_BATCH,
    CPA, STREAM,
};
use serde::{Deserialize, Serialize};
use slm_cpa::store::{
    read_stream_checkpoint, write_stream_checkpoint, CheckpointLedger, StreamCheckpoint,
};
use slm_cpa::{leader_margin, CpaAttack, ProgressPoint};
use slm_fabric::{FabricConfig, FabricError, MultiTenantFabric};
use slm_obs::{MetricsFrame, Obs};
use slm_par::{ShardPlan, ShardSpec};
use std::ops::ControlFlow;
use std::path::Path;

/// A streaming, checkpointed CPA campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingCpa {
    /// The campaign parameters (budget, source, seed).
    pub base: CpaExperiment,
    /// Traces per window — the unit of capture, fold and re-capture on
    /// resume, and the bound on retained raw traces. Like the parallel
    /// runner's shard size, the window layout depends only on this and
    /// the budget, never on `workers`.
    pub window_traces: u64,
    /// Windows folded between ledger commits. Commit cadence is
    /// defined in windows — never derived from the worker count — so
    /// the progress curve and checkpoint stream are worker-invariant.
    /// It does not bound parallel width: windows are captured ahead of
    /// the commit cursor, at least `workers` per round in whole commit
    /// groups, and folded and committed in order.
    pub commit_every_windows: u64,
    /// Worker threads capturing windows (0 = machine parallelism).
    pub workers: usize,
    /// Optional online-MTD early stop, evaluated at every commit.
    pub early_stop: Option<EarlyStop>,
    /// Caller-chosen tag folded into the campaign fingerprint. The
    /// engine also fingerprints the fabric configuration a tweak
    /// produces, so a checkpoint from a differently-defended campaign
    /// is refused on resume without a tag; the field stays because the
    /// benchmark harness calls [`StreamingCpa::with_config_tag`].
    pub config_tag: u64,
}

impl StreamingCpa {
    /// Wraps a campaign with a window of one sixteenth of the budget
    /// (clamped to 1..=4096 traces), commits at every window, machine
    /// parallelism, and no early stop. Committing every window still
    /// uses every worker: each capture round takes one window per
    /// worker ahead of the commit cursor.
    pub fn new(base: CpaExperiment) -> Self {
        StreamingCpa {
            base,
            window_traces: (base.traces / 16).clamp(1, 4096),
            commit_every_windows: 1,
            workers: 0,
            early_stop: None,
            config_tag: 0,
        }
    }

    /// Sets the window size in traces (minimum 1).
    pub fn with_window(mut self, window_traces: u64) -> Self {
        self.window_traces = window_traces.max(1);
        self
    }

    /// Sets the commit cadence in windows (minimum 1).
    pub fn with_commit_every(mut self, windows: u64) -> Self {
        self.commit_every_windows = windows.max(1);
        self
    }

    /// Sets the worker count (0 = machine parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables the online-MTD early stop.
    pub fn with_early_stop(mut self, rule: EarlyStop) -> Self {
        self.early_stop = Some(rule);
        self
    }

    /// Tags the campaign fingerprint (see [`StreamingCpa::config_tag`]).
    pub fn with_config_tag(mut self, tag: u64) -> Self {
        self.config_tag = tag;
        self
    }

    /// The window layout this campaign will execute.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.base.traces, self.window_traces)
    }

    /// The campaign-parameter fingerprint. [`StreamingCpa::run`] mixes
    /// in the fabric configuration after the tweak and stores the
    /// result in every checkpoint.
    ///
    /// Covers everything that determines the capture stream and the
    /// checkpoint cadence: circuit, sensor source, pilot size, seed,
    /// window size, commit cadence and the caller's `config_tag`. It
    /// deliberately excludes the trace budget (a resumed campaign may
    /// extend its budget), the worker count (results are
    /// worker-invariant) and the early-stop rule (a stop policy, not a
    /// capture parameter).
    pub fn fingerprint(&self) -> u64 {
        slm_par::fnv1a(
            format!(
                "{:?}|{:?}|pilot={}|seed={}|window={}|commit={}|tag={}",
                self.base.circuit,
                self.base.source,
                self.base.pilot_traces,
                self.base.seed,
                self.window_traces,
                self.commit_every_windows,
                self.config_tag,
            )
            .as_bytes(),
        )
    }

    /// Runs (or resumes) the campaign against the checkpoint ledger in
    /// `dir`, dying at the `crash` plan's kill sites
    /// ([`CrashPlan::none`] for none). `tweak` applies before the pilot
    /// and before window re-seeding. Records `stream.*`
    /// counters/gauges (windows committed, commits, resumes, recovered
    /// generations, bytes journaled, peak retained raw traces,
    /// traces/sec) on top of the usual `cpa.*` stream into `obs`.
    ///
    /// # Errors
    ///
    /// Fabric construction, ledger I/O, or an incompatible checkpoint.
    pub fn run(
        &self,
        dir: impl AsRef<Path>,
        tweak: impl FnOnce(&mut FabricConfig),
        obs: &Obs,
        crash: &mut CrashPlan,
    ) -> Result<StreamOutcome, StreamingError> {
        run_planner(self, tweak, Some((dir.as_ref(), crash)), obs)
    }
}

/// Online-MTD early stop, evaluated over the persisted progress curves
/// at every commit — so a killed and resumed campaign makes the same
/// stop decision at the same commit as the uninterrupted run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyStop {
    /// Never stop before this many traces.
    pub min_traces: u64,
    /// The same candidate must lead for this many consecutive commits.
    pub stable_commits: usize,
    /// ... each with at least this leader margin.
    pub min_margin: f64,
}

impl EarlyStop {
    /// Whether the rule fires on these progress curves (the slot with
    /// the best final leader margin decides, matching the slot
    /// selection in [`assemble_result`]).
    fn satisfied(&self, progress_per: &[Vec<ProgressPoint>]) -> bool {
        let curve = &progress_per[best_slot(
            progress_per
                .iter()
                .map(|c| c.last().map_or(0.0, |p| leader_margin(&p.peak_corr))),
        )];
        let Some(last) = curve.last() else {
            return false;
        };
        if last.traces < self.min_traces || curve.len() < self.stable_commits.max(1) {
            return false;
        }
        let leader = leading_candidate(&last.peak_corr);
        curve[curve.len() - self.stable_commits.max(1)..]
            .iter()
            .all(|p| {
                leading_candidate(&p.peak_corr) == leader
                    && leader_margin(&p.peak_corr) >= self.min_margin
            })
    }
}

/// Index of the highest peak — the leading key candidate.
fn leading_candidate(peaks: &[f64]) -> usize {
    peaks
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("peaks are finite"))
        .map_or(0, |(i, _)| i)
}

/// Outcome of a completed streaming campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamingResult {
    /// The campaign result, bit-identical to the same campaign run
    /// uninterrupted at any worker count.
    pub result: CpaResult,
    /// Windows captured, folded and committed.
    pub windows: u64,
    /// Traces those windows contributed (less than the budget when the
    /// early stop fired).
    pub traces: u64,
    /// Whether the online-MTD early stop ended the campaign.
    pub early_stopped: bool,
    /// The ledger generation this run resumed from, if any.
    pub resumed_generation: Option<u64>,
    /// Newer generations that were torn/corrupt and skipped during
    /// resume — non-zero means the ledger degraded gracefully.
    pub recovered_generations: u64,
    /// Peak raw traces retained in memory by any window of this
    /// process — bounded by `window_traces` regardless of budget.
    pub peak_raw_traces: u64,
}

/// Outcome of a fault-injected streaming run.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOutcome {
    /// The campaign ran to its budget (or early stop).
    Complete(StreamingResult),
    /// A [`CrashPlan`] kill site fired: the process "died" with this
    /// much work durably committed. Resume by running again over the
    /// same ledger directory.
    Killed {
        /// Windows committed before the kill.
        windows_committed: u64,
        /// Traces committed before the kill.
        traces_committed: u64,
    },
}

impl StreamOutcome {
    /// The finished campaign, or `None` if a [`CrashPlan`] kill fired.
    pub fn complete(self) -> Option<StreamingResult> {
        match self {
            StreamOutcome::Complete(r) => Some(r),
            StreamOutcome::Killed { .. } => None,
        }
    }
}

/// Where in the window pipeline a [`CrashPlan`] kill fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// After the commit group's windows are captured, before folding.
    AfterCapture,
    /// After folding into the merged accumulators, before the commit.
    AfterFold,
    /// Mid-commit: a truncated generation reaches the ledger directory
    /// under its final name, then the process dies — the torn-write
    /// case the generation ledger must fall back past.
    TornCommit,
    /// Immediately after a successful commit.
    AfterCommit,
}

/// A deterministic schedule of simulated process deaths, in the spirit
/// of the fault-study `WireFaultPlan`: each entry kills the run the first
/// time the named commit group reaches the named site. Kills fire in
/// list order; a consumed plan (all kills fired) lets the run complete,
/// so one plan can drive a whole kill/resume/kill/resume chain.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPlan {
    kills: Vec<(u64, CrashSite)>,
    fired: usize,
}

impl CrashPlan {
    /// No injected crashes.
    pub fn none() -> Self {
        CrashPlan {
            kills: Vec::new(),
            fired: 0,
        }
    }

    /// Adds a kill the first time commit group `group` reaches `site`.
    pub fn kill_at(mut self, group: u64, site: CrashSite) -> Self {
        self.kills.push((group, site));
        self
    }

    /// How many scheduled kills have fired.
    pub fn fired(&self) -> usize {
        self.fired
    }

    /// Consumes the next scheduled kill if it matches this site.
    fn should_kill(&mut self, group: u64, site: CrashSite) -> bool {
        if self.kills.get(self.fired) == Some(&(group, site)) {
            self.fired += 1;
            true
        } else {
            false
        }
    }
}

/// Why a streaming campaign could not run.
#[derive(Debug)]
pub enum StreamingError {
    /// Fabric construction failed.
    Fabric(FabricError),
    /// The checkpoint ledger could not be read or written.
    Io(std::io::Error),
    /// A resume checkpoint exists but belongs to a different campaign
    /// (fingerprint, slot geometry or window accounting mismatch).
    /// Refusing is the safe default: merging it would silently corrupt
    /// the result.
    Incompatible(String),
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingError::Fabric(e) => write!(f, "fabric error: {e}"),
            StreamingError::Io(e) => write!(f, "checkpoint store error: {e}"),
            StreamingError::Incompatible(why) => {
                write!(f, "checkpoint incompatible with this campaign: {why}")
            }
        }
    }
}

impl std::error::Error for StreamingError {}

impl From<FabricError> for StreamingError {
    fn from(e: FabricError) -> Self {
        StreamingError::Fabric(e)
    }
}

impl From<std::io::Error> for StreamingError {
    fn from(e: std::io::Error) -> Self {
        StreamingError::Io(e)
    }
}

/// [`StreamingCpa::run`] without recording or injected crashes. Kept
/// with this signature for the benchmark harness, which calls it.
///
/// # Errors
///
/// Fabric construction, ledger I/O, or an incompatible checkpoint.
pub fn run_streaming_with(
    exp: &StreamingCpa,
    dir: impl AsRef<Path>,
    tweak: impl FnOnce(&mut FabricConfig),
) -> Result<StreamingResult, StreamingError> {
    Ok(exp
        .run(dir, tweak, &Obs::null(), &mut CrashPlan::none())?
        .complete()
        .expect("an empty crash plan never kills"))
}

/// A unit of work on the capture pipeline: the overlapped pilot or one
/// lane.
enum Task {
    Pilot(Box<Result<(CampaignSetup, MetricsFrame), FabricError>>),
    Lane(Result<LanePartial, FabricError>),
}

/// One captured lane, travelling from a worker back to the fold: its
/// accumulators, their snapshots at the checkpoints inside the lane,
/// the raw traces it held at once, and its private metrics frame.
struct LanePartial {
    snapshots: Vec<(u64, Vec<CpaAttack>)>,
    attacks: Vec<CpaAttack>,
    retained: u64,
    frame: MetricsFrame,
}

/// Captures one lane (a shard or a window) on its own fabric, re-seeded
/// from lane `index` ([`FabricConfig::for_shard`]), through the campaign
/// kernel. Records into a private fork of `obs`, whose frame travels
/// with the partial and is folded in lane order.
fn run_lane(
    setup: &CampaignSetup,
    config: &FabricConfig,
    index: usize,
    lane: &Lane,
    names: &Names,
    obs: &Obs,
) -> Result<LanePartial, FabricError> {
    let lane_obs = obs.fork();
    let mut snapshots = Vec::new();
    let (fabric, (attacks, retained)) = {
        let _span = lane_obs.span(names.lane);
        let mut fabric = {
            let _build_span = lane_obs.span(names.build);
            MultiTenantFabric::new(&config.for_shard(index))?
        };
        let state = capture_lane(setup, &mut fabric, lane, names, &lane_obs, |t, at| {
            snapshots.push((t, at.to_vec()))
        });
        (fabric, state)
    };
    record_fabric_telemetry(&fabric, &lane_obs);
    Ok(LanePartial {
        snapshots,
        attacks,
        retained,
        frame: lane_obs.snapshot(),
    })
}

/// Capture rounds the window pipeline may run ahead of the commit
/// cursor. A round is one window per worker rounded up to whole commit
/// groups; more than one round lets workers keep capturing while a
/// slow task (the overlapped pilot) holds the cursor back.
const LOOKAHEAD_ROUNDS: u64 = 2;

/// Why the window pipeline stopped before its last window.
enum Halt {
    EarlyStop,
    /// A [`CrashPlan`] kill: always a [`StreamOutcome::Killed`].
    Killed(StreamOutcome),
}

/// The one campaign planner. Splits the budget into lanes
/// ([`StreamingCpa::plan`]), captures them on the worker pool through
/// [`run_lane`], and folds the partials strictly in lane order, so
/// results and merged metrics are worker-count invariant.
///
/// With a ledger `sink` this is the streaming engine: `stream.*` names,
/// whole-window lanes, resume, a progress point and a sealed commit per
/// commit group, [`CrashPlan`] kills, early stop and bounded look-ahead.
/// Without one it is the sharded in-memory campaign
/// ([`ParallelCpa::run`](super::parallel::ParallelCpa::run)): `cpa.*`
/// names, one-lane commit groups, unbounded look-ahead, and progress
/// points on the `checkpoints` trace grid. A checkpoint inside a lane
/// is evaluated on the prefix merge of the earlier lanes and the lane's
/// snapshot; one at a lane's end on the merged state after the fold.
pub(crate) fn run_planner(
    exp: &StreamingCpa,
    tweak: impl FnOnce(&mut FabricConfig),
    sink: Option<(&Path, &mut CrashPlan)>,
    obs: &Obs,
) -> Result<StreamOutcome, StreamingError> {
    let started = std::time::Instant::now();
    let base = &exp.base;
    let streaming = sink.is_some();
    let (names, checkpoint_every) = if streaming {
        (&STREAM, u64::MAX)
    } else {
        (&CPA, base.checkpoint_every())
    };
    let commit_every = exp.commit_every_windows.max(1);
    let config = base.fabric_config(tweak);
    // The tweak is opaque, so the stored fingerprint also covers the
    // configuration it produced (every part of `FabricConfig` derives
    // `Debug` over plain values, so the rendering is stable).
    let fingerprint = slm_par::fnv1a_extend(exp.fingerprint(), format!("{config:?}").as_bytes());
    // The pilot is not streamed: it is cheap, deterministic, and reruns
    // identically on every resume, so its decisions never need to be
    // persisted. Sources that need no pilot statistics start capturing
    // from a zero-trace pilot's setup (geometry, model, ground truth)
    // and run the real pilot as task 0 of the lane pipeline
    // (`full_setup` stays `None` until it has), into a fork of `obs`
    // absorbed before any lane frame; the others run it up front. Both
    // arms make identical capture decisions.
    let run_pilot = || {
        let pilot_obs = obs.fork();
        let setup = {
            let _pilot_span = pilot_obs.span(names.pilot);
            pilot_setup(base, &config)
        };
        setup.map(|(_fabric, setup)| (setup, pilot_obs.snapshot()))
    };
    let (setup, mut full_setup) = if pilot_independent(base.source) {
        let no_pilot = CpaExperiment {
            pilot_traces: 0,
            ..*base
        };
        (pilot_setup(&no_pilot, &config)?.1, None)
    } else {
        let _pilot_span = obs.span(names.pilot);
        let (_fabric, setup) = pilot_setup(base, &config)?;
        (setup.clone(), Some(setup))
    };

    let plan = exp.plan();
    let windows = plan.shards();
    let total_windows = windows.len() as u64;
    let mut merged = setup.attacks();
    let mut progress_per: Vec<Vec<ProgressPoint>> = vec![Vec::new(); setup.single_bit_slots];
    let mut windows_done = 0u64;
    let mut traces_done = 0u64;
    let mut resumed_generation = None;
    let mut recovered_generations = 0u64;
    let mut no_crash = CrashPlan::none();
    let (ledger, crash) = match sink {
        None => (None, &mut no_crash),
        Some((dir, crash)) => {
            let ledger = CheckpointLedger::open(dir)?;
            // ---- resume -------------------------------------------------
            if let Some(recovery) = ledger.load_latest(|bytes| read_stream_checkpoint(bytes))? {
                let cp = recovery.state;
                check_resumable(exp, fingerprint, &cp, &setup, &windows)?;
                windows_done = cp.windows;
                traces_done = cp.traces;
                progress_per = cp.progress;
                merged = cp
                    .slots
                    .into_iter()
                    .map(CpaAttack::resume)
                    .collect::<std::io::Result<_>>()?;
                resumed_generation = Some(recovery.generation);
                recovered_generations = recovery.skipped.len() as u64;
                obs.incr("stream.resumes");
                obs.add("stream.recovered_generations", recovered_generations);
            }
            (Some(ledger), crash)
        }
    };

    // ---- lane pipeline --------------------------------------------------
    // Workers capture lanes ahead of the commit cursor while this thread
    // folds, evaluates and commits each commit group strictly in lane
    // order as soon as the group's lanes are in. A streaming look-ahead
    // spans `LOOKAHEAD_ROUNDS` rounds of at least one window per worker,
    // rounded up to whole commit groups. Lanes captured ahead of a kill
    // or an early stop are dropped unfolded, metrics frames included, so
    // results and merged metrics stay worker-invariant.
    let workers = slm_par::resolve_workers(exp.workers) as u64;
    let round = workers.div_ceil(commit_every) * commit_every;
    let mut peak_raw = 0u64;
    let mut captured_this_run = 0u64;
    let mut early_stopped = exp
        .early_stop
        .is_some_and(|rule| rule.satisfied(&progress_per));
    let pending = if early_stopped {
        &windows[..0]
    } else {
        &windows[windows_done as usize..]
    };
    let lead = usize::from(full_setup.is_none() && !pending.is_empty());
    let lookahead = if streaming {
        (LOOKAHEAD_ROUNDS * round) as usize + lead
    } else {
        usize::MAX
    };
    let capture = |spec: &ShardSpec| {
        let lane = Lane {
            start: spec.start,
            traces: spec.traces,
            chunk: if streaming { spec.traces } else { ABSORB_BATCH },
            checkpoint_every,
        };
        run_lane(&setup, &config, spec.index, &lane, names, obs)
    };
    let mut group: Vec<LanePartial> = Vec::with_capacity(commit_every as usize);
    // Takes one captured lane; once its commit group is complete, folds,
    // evaluates and commits the group. `Some` ends the run (kill or
    // early stop).
    let mut absorb_lane = |partial: LanePartial| -> Result<Option<Halt>, StreamingError> {
        group.push(partial);
        let group_index = windows_done / commit_every;
        let group_end = ((group_index + 1) * commit_every).min(total_windows);
        if windows_done + (group.len() as u64) < group_end {
            return Ok(None);
        }
        let committed = Halt::Killed(StreamOutcome::Killed {
            windows_committed: windows_done,
            traces_committed: traces_done,
        });
        if crash.should_kill(group_index, CrashSite::AfterCapture) {
            return Ok(Some(committed));
        }

        for (partial, spec) in group.drain(..).zip(&windows[windows_done as usize..]) {
            obs.absorb(&partial.frame);
            peak_raw = peak_raw.max(partial.retained);
            // Prefix merge: the campaign state at a checkpoint inside
            // the lane is every earlier lane plus the lane's snapshot.
            for (global, snapshot) in &partial.snapshots {
                let mut at = merged.clone();
                for (acc, snap) in at.iter_mut().zip(snapshot) {
                    acc.merge(snap);
                }
                push_progress(&mut progress_per, *global, &at, names, obs);
            }
            for (acc, part) in merged.iter_mut().zip(&partial.attacks) {
                acc.merge_recorded(part, obs);
            }
            traces_done += spec.traces;
            captured_this_run += spec.traces;
        }
        let group_windows = group_end - windows_done;
        windows_done = group_end;
        if crash.should_kill(group_index, CrashSite::AfterFold) {
            return Ok(Some(committed));
        }
        if streaming || traces_done % checkpoint_every == 0 || traces_done == plan.total {
            push_progress(&mut progress_per, traces_done, &merged, names, obs);
        }
        let Some(ledger) = &ledger else {
            return Ok(None);
        };

        // Commit: early-stop evaluation, sealed commit to the
        // generation ledger.
        early_stopped = exp
            .early_stop
            .is_some_and(|rule| rule.satisfied(&progress_per));
        let cp = StreamCheckpoint {
            fingerprint,
            windows: windows_done,
            traces: traces_done,
            slots: merged.iter().map(CpaAttack::checkpoint).collect(),
            progress: progress_per.clone(),
        };
        let mut bytes = Vec::new();
        write_stream_checkpoint(&mut bytes, &cp)?;
        if crash.should_kill(group_index, CrashSite::TornCommit) {
            ledger.commit(&bytes[..bytes.len() / 2])?;
            return Ok(Some(committed));
        }
        ledger.commit(&bytes)?;
        obs.add("stream.windows_committed", group_windows);
        obs.incr("stream.commits");
        obs.add("stream.bytes_journaled", bytes.len() as u64);
        if crash.should_kill(group_index, CrashSite::AfterCommit) {
            return Ok(Some(Halt::Killed(StreamOutcome::Killed {
                windows_committed: windows_done,
                traces_committed: traces_done,
            })));
        }
        Ok(early_stopped.then_some(Halt::EarlyStop))
    };
    let halt = slm_par::par_pipeline(
        exp.workers,
        lead + pending.len(),
        lookahead,
        |i| match i.checked_sub(lead) {
            None => Task::Pilot(Box::new(run_pilot())),
            Some(w) => Task::Lane(capture(&pending[w])),
        },
        |_, task| {
            let step = match task {
                Task::Pilot(outcome) => {
                    (*outcome)
                        .map_err(StreamingError::from)
                        .map(|(setup, frame)| {
                            // The pilot's frame folds before any lane
                            // frame, matching the up-front pilot's order.
                            obs.absorb(&frame);
                            full_setup = Some(setup);
                            None
                        })
                }
                Task::Lane(partial) => partial
                    .map_err(StreamingError::from)
                    .and_then(&mut absorb_lane),
            };
            match step {
                Ok(None) => ControlFlow::Continue(()),
                Ok(Some(halt)) => ControlFlow::Break(Ok(halt)),
                Err(e) => ControlFlow::Break(Err(e)),
            }
        },
    );
    if let Some(Halt::Killed(outcome)) = halt.transpose()? {
        return Ok(outcome);
    }

    // A resume with nothing left to capture still owes the result the
    // pilot's decisions (`bits_of_interest`).
    let full_setup = match full_setup {
        Some(setup) => setup,
        None => {
            let (setup, frame) = run_pilot()?;
            obs.absorb(&frame);
            setup
        }
    };
    if streaming {
        if early_stopped {
            obs.incr("stream.early_stop");
        }
        obs.gauge("stream.peak_raw_traces", peak_raw as f64);
        let secs = started.elapsed().as_secs_f64();
        if obs.enabled() && secs > 0.0 && captured_this_run > 0 {
            obs.gauge("stream.traces_per_sec", captured_this_run as f64 / secs);
        }
    }

    let result = assemble_result(&full_setup, &merged, progress_per, exp.workers, traces_done);
    Ok(StreamOutcome::Complete(StreamingResult {
        result,
        windows: windows_done,
        traces: traces_done,
        early_stopped,
        resumed_generation,
        recovered_generations,
        peak_raw_traces: peak_raw,
    }))
}

/// Refuses a resume checkpoint that belongs to a different campaign:
/// another fingerprint (`fingerprint` is this run's), slot geometry, or
/// window accounting.
fn check_resumable(
    exp: &StreamingCpa,
    fingerprint: u64,
    cp: &StreamCheckpoint,
    setup: &CampaignSetup,
    windows: &[ShardSpec],
) -> Result<(), StreamingError> {
    let incompatible = |why: String| Err(StreamingError::Incompatible(why));
    if cp.fingerprint != fingerprint {
        return incompatible(format!(
            "checkpoint fingerprint {:#018x} != campaign fingerprint {:#018x} \
             (different circuit/source/seed/window/commit/tag/fabric config)",
            cp.fingerprint, fingerprint
        ));
    }
    if cp.slots.len() != setup.single_bit_slots {
        return incompatible(format!(
            "checkpoint has {} accumulator slots, pilot derived {}",
            cp.slots.len(),
            setup.single_bit_slots
        ));
    }
    for (i, slot) in cp.slots.iter().enumerate() {
        if slot.points != setup.points
            || slot.model.ct_byte != setup.model.ct_byte
            || slot.model.bit != setup.model.bit
        {
            return incompatible(format!(
                "slot {i} geometry ({} points, ct_byte {}, bit {}) does not match \
                 the pilot ({} points, ct_byte {}, bit {})",
                slot.points,
                slot.model.ct_byte,
                slot.model.bit,
                setup.points,
                setup.model.ct_byte,
                setup.model.bit
            ));
        }
    }
    // Exact-once accounting: the committed windows must be a prefix of
    // the current plan, trace for trace. (A budget extension keeps the
    // prefix intact only if the old budget was a whole number of
    // windows — otherwise the old final partial window would silently
    // change its capture stream, which this check refuses.)
    if cp.windows as usize > windows.len() {
        return incompatible(format!(
            "checkpoint committed {} windows but this budget only has {}",
            cp.windows,
            windows.len()
        ));
    }
    let prefix: u64 = windows[..cp.windows as usize]
        .iter()
        .map(|w| w.traces)
        .sum();
    if prefix != cp.traces {
        return incompatible(format!(
            "checkpoint claims {} traces over {} windows; this plan's prefix \
             holds {prefix} — window layouts differ",
            cp.traces, cp.windows
        ));
    }
    // The committed windows must also sit on this plan's commit grid:
    // the old run's final (budget-truncated) commit group is only a
    // valid resume point if no further windows follow it — otherwise
    // the extended run would emit a progress point a from-scratch run
    // of the same budget would not, breaking bit-identical equivalence.
    let commit_every = exp.commit_every_windows.max(1);
    if cp.windows % commit_every != 0 && (cp.windows as usize) < windows.len() {
        return incompatible(format!(
            "checkpoint's {} committed windows are not a multiple of the \
             commit cadence ({commit_every}); extend the budget in whole \
             commit groups",
            cp.windows
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SensorSource;
    use slm_fabric::BenignCircuit;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slm-streaming-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_exp(seed: u64) -> StreamingCpa {
        StreamingCpa::new(CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 300,
            checkpoints: 3,
            pilot_traces: 20,
            seed,
        })
        .with_window(60)
        .with_commit_every(2)
        .with_workers(1)
    }

    #[test]
    fn streaming_matches_itself_across_worker_counts() {
        let d1 = scratch_dir("wc1");
        let d3 = scratch_dir("wc3");
        let r1 = run_streaming_with(&small_exp(21), &d1, |_| {}).unwrap();
        let r3 = run_streaming_with(&small_exp(21).with_workers(3), &d3, |_| {}).unwrap();
        assert_eq!(r1.result, r3.result);
        assert_eq!(r1.windows, 5);
        assert_eq!(r1.traces, 300);
        assert!(!r1.early_stopped);
        assert_eq!(r1.resumed_generation, None);
        // 5 windows at commit-every-2 ⇒ commits after windows 2, 4, 5.
        assert_eq!(r1.result.progress.len(), 3);
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d3);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let clean_dir = scratch_dir("clean");
        let clean = run_streaming_with(&small_exp(22), &clean_dir, |_| {}).unwrap();

        let dir = scratch_dir("killed");
        let exp = small_exp(22);
        let mut plan = CrashPlan::none()
            .kill_at(0, CrashSite::AfterCommit)
            .kill_at(1, CrashSite::AfterFold);
        let k1 = exp.run(&dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        assert_eq!(
            k1,
            StreamOutcome::Killed {
                windows_committed: 2,
                traces_committed: 120
            }
        );
        let k2 = exp.run(&dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        // Second kill fires after the fold of group 1, before its
        // commit — so only group 0's commit is durable.
        assert_eq!(
            k2,
            StreamOutcome::Killed {
                windows_committed: 2,
                traces_committed: 120
            }
        );
        let resumed = run_streaming_with(&exp, &dir, |_| {}).unwrap();
        assert_eq!(resumed.result, clean.result);
        assert_eq!(resumed.resumed_generation, Some(1));
        assert_eq!(resumed.recovered_generations, 0);
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_commit_degrades_to_previous_generation() {
        let clean_dir = scratch_dir("torn-clean");
        let clean = run_streaming_with(&small_exp(23), &clean_dir, |_| {}).unwrap();

        let dir = scratch_dir("torn");
        let exp = small_exp(23);
        let mut plan = CrashPlan::none().kill_at(1, CrashSite::TornCommit);
        let killed = exp.run(&dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        assert_eq!(
            killed,
            StreamOutcome::Killed {
                windows_committed: 2,
                traces_committed: 120
            }
        );
        let obs = Obs::memory();
        let resumed = exp
            .run(&dir, |_| {}, &obs, &mut CrashPlan::none())
            .unwrap()
            .complete()
            .unwrap();
        assert_eq!(resumed.result, clean.result);
        // Generation 2 is torn; resume fell back to generation 1.
        assert_eq!(resumed.resumed_generation, Some(1));
        assert_eq!(resumed.recovered_generations, 1);
        let frame = obs.snapshot();
        assert_eq!(frame.counter("stream.resumes"), 1);
        assert_eq!(frame.counter("stream.recovered_generations"), 1);
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_checkpoint_is_refused() {
        let dir = scratch_dir("foreign");
        let exp = small_exp(24);
        let mut plan = CrashPlan::none().kill_at(0, CrashSite::AfterCommit);
        exp.run(&dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        // Same directory, different seed ⇒ different fingerprint.
        let err = run_streaming_with(&small_exp(25), &dir, |_| {}).unwrap_err();
        match err {
            StreamingError::Incompatible(why) => {
                assert!(why.contains("fingerprint"), "unhelpful error: {why}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn early_stop_ends_campaign_under_budget() {
        let dir = scratch_dir("early");
        let exp = StreamingCpa::new(CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 4_000,
            checkpoints: 4,
            pilot_traces: 100,
            seed: 7,
        })
        .with_window(500)
        .with_commit_every(1)
        .with_workers(2)
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
        assert!(r.early_stopped);
        assert!(
            r.traces < 4_000,
            "TDC converges well before 4k; stopped at {}",
            r.traces
        );
        assert_eq!(r.result.recovered_key_byte, Some(r.result.correct_key_byte));
        assert_eq!(r.result.traces, r.traces);
        assert_eq!(obs.snapshot().counter("stream.early_stop"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_campaign_parameters() {
        let base = small_exp(30);
        assert_eq!(base.fingerprint(), small_exp(30).fingerprint());
        assert_ne!(base.fingerprint(), small_exp(31).fingerprint());
        assert_ne!(
            base.fingerprint(),
            small_exp(30).with_window(61).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            small_exp(30).with_commit_every(3).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            small_exp(30).with_config_tag(1).fingerprint()
        );
        // Budget, workers and early stop are deliberately excluded.
        let mut extended = small_exp(30);
        extended.base.traces = 600;
        assert_eq!(base.fingerprint(), extended.fingerprint());
        assert_eq!(
            base.fingerprint(),
            small_exp(30).with_workers(8).fingerprint()
        );
    }

    #[test]
    fn budget_extension_resumes_from_completed_run() {
        let dir = scratch_dir("extend");
        // 240 traces = 4 windows = 2 whole commit groups, so the
        // completed run sits on the extended plan's commit grid.
        let mut exp = small_exp(26);
        exp.base.traces = 240;
        let first = run_streaming_with(&exp, &dir, |_| {}).unwrap();
        assert_eq!(first.traces, 240);
        let mut extended = exp;
        extended.base.traces = 480;
        let obs = Obs::memory();
        let second = extended
            .run(&dir, |_| {}, &obs, &mut CrashPlan::none())
            .unwrap()
            .complete()
            .unwrap();
        assert_eq!(second.resumed_generation, Some(2));
        assert_eq!(second.traces, 480);
        assert_eq!(second.windows, 8);
        // Only the 4 new windows were captured in this process.
        assert_eq!(obs.snapshot().counter("cpa.traces_absorbed"), 240);
        // The extended run's result equals a from-scratch 480-trace run.
        let fresh_dir = scratch_dir("extend-fresh");
        let fresh = run_streaming_with(&extended, &fresh_dir, |_| {}).unwrap();
        assert_eq!(second.result, fresh.result);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }

    #[test]
    fn off_grid_budget_extension_is_refused() {
        let dir = scratch_dir("offgrid");
        // 300 traces = 5 windows: the final commit group is truncated
        // (windows 4..5), so it is not a resume point for a larger
        // budget whose group 2 would span windows 4..6.
        let exp = small_exp(27);
        run_streaming_with(&exp, &dir, |_| {}).unwrap();
        let mut extended = exp;
        extended.base.traces = 480;
        match run_streaming_with(&extended, &dir, |_| {}).unwrap_err() {
            StreamingError::Incompatible(why) => {
                assert!(why.contains("commit"), "unhelpful error: {why}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
