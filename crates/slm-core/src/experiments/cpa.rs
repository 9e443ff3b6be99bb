//! The CPA key-recovery experiments (paper Figs. 9–13, 17, 18).

use serde::{Deserialize, Serialize};
use slm_cpa::{
    common_mode_polarity, leader_margin, measurements_to_disclosure, BitActivity, CpaAttack,
    LastRoundModel, PostProcessor, ProgressPoint, TraceBatch,
};
use slm_fabric::{AesActivity, BenignCircuit, FabricConfig, FabricError, MultiTenantFabric};
use slm_obs::Obs;

/// Traces staged per accumulator flush in the campaign loops. Chunks
/// never cross a checkpoint boundary, and batch absorption is
/// bit-identical to one-at-a-time absorption
/// ([`CpaAttack::add_batch`]), so the value only affects throughput.
pub(crate) const ABSORB_BATCH: u64 = 32;

/// Which sensor feeds the attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensorSource {
    /// TDC thermometer depth (Fig. 9).
    TdcAll,
    /// One thermometer tap of the TDC (Fig. 11; the paper uses the
    /// highest-variance tap, bit 32, next to the idle level). `None`
    /// selects the tap at the pilot-phase median depth — the tap that
    /// dithers most at the operating point.
    TdcSingleBit(Option<usize>),
    /// Hamming weight of the benign circuit's *bits of interest*
    /// (Figs. 10, 17).
    BenignHammingWeight,
    /// One benign-circuit path endpoint (Figs. 12, 13, 18). `Some(i)`
    /// forces endpoint `i`; `None` records the top eight pilot-phase
    /// endpoints by variance, attacks each in parallel, and keeps the
    /// one whose leading candidate separates best — the offline
    /// selection the paper describes ("this particular bit … lead to a
    /// slightly better result").
    BenignSingleBit(Option<usize>),
}

/// Parameters of one CPA campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpaExperiment {
    /// The benign circuit sharing the fabric with the victim.
    pub circuit: BenignCircuit,
    /// Which sensor output the attacker records.
    pub source: SensorSource,
    /// Number of attack traces.
    pub traces: u64,
    /// Number of evenly spaced progress checkpoints.
    pub checkpoints: usize,
    /// Traces of the pilot phase that identifies the bits of interest.
    pub pilot_traces: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl CpaExperiment {
    /// The fabric this campaign attacks: its circuit and seed on the
    /// default fabric, then `tweak` (a defense, fence or placement).
    pub(crate) fn fabric_config(&self, tweak: impl FnOnce(&mut FabricConfig)) -> FabricConfig {
        let mut config = FabricConfig {
            benign: self.circuit,
            seed: self.seed,
            ..FabricConfig::default()
        };
        tweak(&mut config);
        config
    }

    /// Spacing of the global progress checkpoints, in traces.
    pub(crate) fn checkpoint_every(&self) -> u64 {
        (self.traces / self.checkpoints.max(1) as u64).max(1)
    }

    /// Runs the campaign on the default fabric after `tweak` (a
    /// defense, fence or placement; `|_| {}` for none), recording into
    /// `obs`: `cpa.*` counters, per-checkpoint leader margins and PDN
    /// droop telemetry. With [`Obs::null`] nothing is recorded, and
    /// recording never changes the result.
    ///
    /// Pipeline (matching the paper's workflow): a pilot phase captures
    /// full endpoint vectors while the victim encrypts, from which the
    /// fluctuating *bits of interest* and the highest-variance endpoint
    /// are derived; the main phase then captures only the final-round
    /// window (and only the needed endpoints), post-processes each
    /// capture to scalar points, and feeds a streaming last-round CPA.
    /// The main phase is one lane over the whole budget on the pilot's
    /// own fabric, so it continues the pilot's noise and plaintext
    /// streams.
    ///
    /// # Errors
    ///
    /// Propagates fabric construction failures.
    pub fn run(
        &self,
        tweak: impl FnOnce(&mut FabricConfig),
        obs: &Obs,
    ) -> Result<CpaResult, FabricError> {
        let config = self.fabric_config(tweak);
        let (mut fabric, setup) = {
            let _pilot_span = obs.span(CPA.pilot);
            pilot_setup(self, &config)?
        };
        let mut progress_per = vec![Vec::with_capacity(self.checkpoints); setup.single_bit_slots];
        let lane = Lane {
            start: 0,
            traces: self.traces,
            chunk: ABSORB_BATCH,
            checkpoint_every: self.checkpoint_every(),
        };
        let (attacks, _) = capture_lane(&setup, &mut fabric, &lane, &CPA, obs, |t, at| {
            push_progress(&mut progress_per, t, at, &CPA, obs)
        });
        if self.traces > 0 {
            push_progress(&mut progress_per, self.traces, &attacks, &CPA, obs);
        }
        record_fabric_telemetry(&fabric, obs);
        Ok(assemble_result(
            &setup,
            &attacks,
            progress_per,
            1,
            self.traces,
        ))
    }
}

/// [`CpaExperiment::run`] without recording. Kept with this signature
/// for the benchmark harness, which calls it.
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn run_cpa_with(
    exp: &CpaExperiment,
    tweak: impl FnOnce(&mut FabricConfig),
) -> Result<CpaResult, FabricError> {
    exp.run(tweak, &Obs::null())
}

/// Outcome of one CPA campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpaResult {
    /// Ground-truth last-round key byte under attack.
    pub correct_key_byte: u8,
    /// The leading candidate at the end, if it strictly leads.
    pub recovered_key_byte: Option<u8>,
    /// Traces needed until the correct key led for good, if it did.
    pub mtd: Option<u64>,
    /// Correlation-progress checkpoints (the paper's "(b)" panels).
    pub progress: Vec<ProgressPoint>,
    /// Final peak |r| per candidate (the paper's "(a)" panels).
    pub final_peaks: Vec<f64>,
    /// Endpoints identified as fluctuating during the pilot phase.
    pub bits_of_interest: Vec<usize>,
    /// The endpoint used for single-bit attacks.
    pub selected_bit: Option<usize>,
    /// Total traces processed.
    pub traces: u64,
}

/// Everything the pilot phase decides about a campaign: the hypothesis
/// model, the ground truth, the derived endpoint selections and the
/// trace post-processing. Every lane of a campaign captures with the
/// same setup, so all engines make identical offline decisions.
#[derive(Debug, Clone)]
pub(crate) struct CampaignSetup {
    pub source: SensorSource,
    pub model: LastRoundModel,
    pub correct_key_byte: u8,
    pub bits_of_interest: Vec<usize>,
    pub candidate_bits: Vec<usize>,
    pub selected_bit: Option<usize>,
    pub window: std::ops::Range<usize>,
    pub points: usize,
    pub endpoints: Vec<usize>,
    pub single_bit_slots: usize,
    pub processor: Option<PostProcessor>,
}

impl CampaignSetup {
    /// Fresh accumulators, one per attack slot.
    pub fn attacks(&self) -> Vec<CpaAttack> {
        (0..self.single_bit_slots)
            .map(|_| CpaAttack::new(self.model, self.points))
            .collect()
    }
}

/// Runs the pilot phase on a fresh fabric built from `config` and
/// derives the campaign setup. The fabric is returned with its noise
/// and plaintext streams advanced past the pilot, so the serial
/// campaign, full-key recovery and the TVLA study keep capturing on it.
pub(crate) fn pilot_setup(
    exp: &CpaExperiment,
    config: &FabricConfig,
) -> Result<(MultiTenantFabric, CampaignSetup), FabricError> {
    let mut fabric = MultiTenantFabric::new(config)?;
    let model = LastRoundModel::paper_target();
    let correct_key_byte = fabric.aes().round_keys()[10][model.ct_byte];

    // ---- pilot: find the bits of interest ------------------------------
    let mut activity = BitActivity::new(fabric.endpoints());
    let mut tdc_depths: Vec<u32> = Vec::new();
    let mut pilot_samples = Vec::new();
    for _ in 0..exp.pilot_traces {
        let pt = fabric.random_plaintext();
        let rec = fabric.encrypt_and_capture(pt);
        for s in &rec.benign {
            activity.add(s);
        }
        // Only the Hamming-weight polarity estimate reads the raw pilot
        // samples; every other source would just hold them until return.
        if exp.source == SensorSource::BenignHammingWeight {
            pilot_samples.extend(rec.benign);
        }
        tdc_depths.extend(&rec.tdc);
    }
    tdc_depths.sort_unstable();
    let tdc_median = tdc_depths.get(tdc_depths.len() / 2).copied().unwrap_or(31);
    let mut bits_of_interest = activity.sensitive_bits();
    if bits_of_interest.is_empty() {
        bits_of_interest = (0..fabric.endpoints()).collect();
    }
    // Candidate endpoints for single-bit attacks: the top pilot
    // endpoints by variance (one forced endpoint counts as a single
    // candidate).
    let candidate_bits: Vec<usize> = match exp.source {
        SensorSource::BenignSingleBit(Some(i)) => vec![i],
        SensorSource::BenignSingleBit(None) => {
            let ranked = activity.by_variance();
            let mut picks: Vec<usize> = ranked
                .into_iter()
                .filter(|&i| activity.variance(i) > 0.0)
                .take(8)
                .collect();
            if picks.is_empty() {
                // nothing toggled in the pilot: fall back to the first
                // bit of interest so the attack still runs
                picks.push(bits_of_interest[0]);
            }
            picks
        }
        _ => Vec::new(),
    };
    // Per source: the tap or endpoint a single-bit attack reads first,
    // the endpoints captured, and the trace post-processing (only the
    // Hamming weight needs one; the single-bit reads are inline).
    let (selected_bit, endpoints, processor) = match exp.source {
        SensorSource::TdcAll => (None, Vec::new(), None),
        SensorSource::TdcSingleBit(tap) => {
            (Some(tap.unwrap_or(tdc_median as usize)), Vec::new(), None)
        }
        SensorSource::BenignHammingWeight => {
            // Align each endpoint's droop polarity, estimated offline
            // from the pilot recording (covariance with the common
            // mode). For the ALU adder all sensitive endpoints share a
            // polarity, so this reduces to the paper's plain Hamming
            // weight; the C6288's mixed rise/fall endpoints would
            // otherwise cancel in the sum.
            let invert = common_mode_polarity(&pilot_samples, &bits_of_interest);
            let processor = PostProcessor::HammingWeightAligned(invert);
            (None, bits_of_interest.clone(), Some(processor))
        }
        SensorSource::BenignSingleBit(_) => (Some(candidate_bits[0]), candidate_bits.clone(), None),
    };
    let window = fabric.last_round_window();
    let points = window.len();
    // Only single-bit sources have candidates; the others run one slot.
    let single_bit_slots = candidate_bits.len().max(1);
    Ok((
        fabric,
        CampaignSetup {
            source: exp.source,
            model,
            correct_key_byte,
            bits_of_interest,
            candidate_bits,
            selected_bit,
            window,
            points,
            endpoints,
            single_bit_slots,
            processor,
        },
    ))
}

/// Whether every campaign decision for `source` is known without
/// running pilot captures. TDC sources with a fixed (or no) tap don't
/// depend on pilot statistics — only the result's `bits_of_interest`
/// metadata comes from the pilot — so a campaign can start capturing
/// from a zero-trace pilot's setup (geometry, model and ground truth)
/// and run the real pilot concurrently as one more task on the worker
/// pool.
pub(crate) fn pilot_independent(source: SensorSource) -> bool {
    matches!(
        source,
        SensorSource::TdcAll | SensorSource::TdcSingleBit(Some(_))
    )
}

/// Post-processes one capture into the trace points of attack slot
/// `slot` — the single shared definition of every sensor source's
/// trace-point function, used by the batched absorb path and the
/// extensions that capture through the campaign pilot.
pub(crate) fn fill_points(
    setup: &CampaignSetup,
    rec: &slm_fabric::CaptureRecord,
    slot: usize,
    point_buf: &mut [f64],
) {
    match setup.source {
        SensorSource::TdcAll => {
            for (dst, &d) in point_buf.iter_mut().zip(&rec.tdc) {
                *dst = f64::from(d);
            }
        }
        SensorSource::TdcSingleBit(_) => {
            let b = setup.selected_bit.expect("set by pilot");
            for (dst, &d) in point_buf.iter_mut().zip(&rec.tdc) {
                *dst = f64::from(u8::from(d as usize >= b));
            }
        }
        SensorSource::BenignSingleBit(_) => {
            for (dst, s) in point_buf.iter_mut().zip(&rec.benign) {
                *dst = f64::from(u8::from(s.bit(slot)));
            }
        }
        SensorSource::BenignHammingWeight => {
            let p = setup.processor.as_ref().expect("set by pilot");
            for (dst, s) in point_buf.iter_mut().zip(&rec.benign) {
                *dst = p.reduce(s);
            }
        }
    }
}

/// Post-processes a chunk of captures and absorbs it through the
/// blocked SoA batch path: per slot, every record's points are staged
/// into a [`TraceBatch`] and flushed with [`CpaAttack::add_batch`],
/// which is bit-identical to absorbing the records one at a time in
/// order (the accumulator cells see the same additions in the same
/// order). `staging` buffers are cleared on return; their allocations
/// are reused across chunks.
fn absorb_batch(
    setup: &CampaignSetup,
    recs: &[slm_fabric::CaptureRecord],
    attacks: &mut [CpaAttack],
    staging: &mut [TraceBatch],
    point_buf: &mut [f64],
    obs: &Obs,
) {
    obs.add("cpa.traces_absorbed", recs.len() as u64);
    for rec in recs {
        for (slot, batch) in staging.iter_mut().enumerate() {
            fill_points(setup, rec, slot, point_buf);
            batch.push(rec.ciphertext, point_buf);
        }
    }
    for (attack, batch) in attacks.iter_mut().zip(staging.iter_mut()) {
        attack
            .add_batch_recorded(batch, obs)
            .expect("staging geometry matches the attack");
        batch.clear();
    }
}

/// The span and histogram names an engine records under: `cpa.*` for
/// the serial and sharded campaigns, `stream.*` for the streaming one.
/// Counters the engines share (`cpa.traces_absorbed`, the accumulator
/// counters) keep their `cpa.*` names everywhere.
#[derive(Debug)]
pub(crate) struct Names {
    pub pilot: &'static str,
    /// Wraps one re-seeded lane (shard or window), fabric build included.
    pub lane: &'static str,
    pub build: &'static str,
    pub capture: &'static str,
    pub absorb: &'static str,
    /// Wraps one progress evaluation (the streaming engine has none).
    pub eval: Option<&'static str>,
    /// Histogram of slot 0's leader margin at each progress point.
    pub margin: &'static str,
}

pub(crate) const CPA: Names = Names {
    pilot: "cpa.pilot",
    lane: "cpa.shard",
    build: "cpa.build",
    capture: "cpa.capture",
    absorb: "cpa.absorb",
    eval: Some("cpa.eval"),
    margin: "cpa.checkpoint_margin",
};

pub(crate) const STREAM: Names = Names {
    pilot: "stream.pilot",
    lane: "stream.window",
    build: "stream.build",
    capture: "stream.capture",
    absorb: "stream.absorb",
    eval: None,
    margin: "stream.checkpoint_margin",
};

/// A run of consecutive campaign traces captured on one fabric — the
/// whole budget of a serial campaign, one shard of a sharded campaign,
/// or one window of a streaming campaign.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    /// Global index of the lane's first trace.
    pub start: u64,
    /// Traces in the lane.
    pub traces: u64,
    /// Most traces captured before they are absorbed: the raw traces
    /// the lane holds at once.
    pub chunk: u64,
    /// Spacing of the campaign's global progress checkpoints
    /// (`u64::MAX`: none).
    pub checkpoint_every: u64,
}

/// The campaign kernel every engine runs: captures the traces of
/// `lane` on `fabric` in chunks of at most `lane.chunk` that never
/// cross a global checkpoint, and absorbs each chunk through
/// [`absorb_batch`] in [`ABSORB_BATCH`]-trace pieces. Plaintext
/// generation stays interleaved with encryption (both draw from the
/// fabric's seed stream), and batch absorption is bit-identical to
/// one-at-a-time absorption, so neither bound changes the result.
///
/// `at_checkpoint` sees the lane's accumulators at every global
/// checkpoint strictly inside the lane; the checkpoint at the lane's
/// end, if any, is the caller's. Returns the lane's accumulators and
/// the most raw traces it held at once.
pub(crate) fn capture_lane(
    setup: &CampaignSetup,
    fabric: &mut MultiTenantFabric,
    lane: &Lane,
    names: &Names,
    obs: &Obs,
    mut at_checkpoint: impl FnMut(u64, &[CpaAttack]),
) -> (Vec<CpaAttack>, u64) {
    let mut attacks = setup.attacks();
    let mut point_buf = vec![0.0f64; setup.points];
    let mut staging: Vec<TraceBatch> = (0..setup.single_bit_slots)
        .map(|_| TraceBatch::with_capacity(setup.points, ABSORB_BATCH as usize))
        .collect();
    let mut recs: Vec<slm_fabric::CaptureRecord> =
        Vec::with_capacity(lane.chunk.min(lane.traces) as usize);
    let (every, end) = (lane.checkpoint_every, lane.start + lane.traces);
    let mut held = 0u64;
    let mut t = lane.start;
    while t < end {
        let stop = ((t / every + 1) * every).min(end).min(t + lane.chunk);
        recs.clear();
        {
            let _capture_span = obs.span(names.capture);
            for _ in t..stop {
                let pt = fabric.random_plaintext();
                recs.push(fabric.encrypt_windowed(pt, setup.window.clone(), &setup.endpoints));
            }
        }
        held = held.max(recs.len() as u64);
        {
            let _absorb_span = obs.span(names.absorb);
            for piece in recs.chunks(ABSORB_BATCH as usize) {
                absorb_batch(
                    setup,
                    piece,
                    &mut attacks,
                    &mut staging,
                    &mut point_buf,
                    obs,
                );
            }
        }
        t = stop;
        if t % every == 0 && t < end {
            at_checkpoint(t, &attacks);
        }
    }
    (attacks, held)
}

/// Appends one progress point per slot at `traces`, evaluated on
/// `attacks` under the engine's eval span; slot 0's leader margin
/// feeds the engine's margin histogram.
pub(crate) fn push_progress(
    progress_per: &mut [Vec<ProgressPoint>],
    traces: u64,
    attacks: &[CpaAttack],
    names: &Names,
    obs: &Obs,
) {
    let _eval_span = names.eval.map(|span| obs.span(span));
    for (slot, attack) in attacks.iter().enumerate() {
        let peak_corr = attack.peak_correlations().to_vec();
        if slot == 0 {
            obs.observe(names.margin, leader_margin(&peak_corr));
        }
        progress_per[slot].push(ProgressPoint { traces, peak_corr });
    }
}

/// Records a capture fabric's end-of-campaign PDN droop and defense
/// telemetry into `obs` — the gauges every campaign loop reports for
/// the fabric it captured on.
pub(crate) fn record_fabric_telemetry(fabric: &MultiTenantFabric, obs: &Obs) {
    if !obs.enabled() {
        return;
    }
    fabric.record_pdn_telemetry(obs);
    if let Some(d) = fabric.defense_telemetry() {
        obs.gauge("defense.injected_max_a", d.injected_max_a);
        obs.gauge("defense.injected_mean_a", d.injected_mean_a());
        obs.gauge("defense.detector_max_score", d.max_score);
        obs.add("defense.windows", d.windows);
        obs.add("defense.alarm_windows", d.alarm_windows);
        obs.add("defense.alarm_events", d.alarm_events);
        obs.add("defense.jitter_cycles", d.jitter_cycles);
    }
}

/// The slot whose leading candidate separates best (the last of equal
/// margins), given each slot's leader margin.
pub(crate) fn best_slot(margins: impl Iterator<Item = f64>) -> usize {
    margins
        .enumerate()
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("margins are finite"))
        .map_or(0, |(slot, _)| slot)
}

/// Turns finished accumulators and their progress curves into a
/// [`CpaResult`]: picks the best single-bit candidate slot, derives the
/// MTD and the recovered byte. `eval_workers` threads evaluate the final
/// correlation surface (1 = serial; the evaluation is bit-identical at
/// any count).
pub(crate) fn assemble_result(
    setup: &CampaignSetup,
    attacks: &[CpaAttack],
    mut progress_per: Vec<Vec<ProgressPoint>>,
    eval_workers: usize,
    traces: u64,
) -> CpaResult {
    // For multi-candidate single-bit attacks, keep the candidate whose
    // leading key separates best from the runner-up — computable without
    // ground truth.
    let chosen_slot = if attacks.len() == 1 {
        0
    } else {
        best_slot(
            attacks
                .iter()
                .map(|a| leader_margin(&a.peak_correlations())),
        )
    };
    let attack = &attacks[chosen_slot];
    let progress = progress_per.swap_remove(chosen_slot);
    let selected_bit = match setup.source {
        SensorSource::BenignSingleBit(_) => setup.candidate_bits.get(chosen_slot).copied(),
        _ => setup.selected_bit,
    };
    let correct_key_byte = setup.correct_key_byte;
    let final_peaks = attack.peak_correlations_par(eval_workers).to_vec();
    let mtd = measurements_to_disclosure(&progress, correct_key_byte);
    let recovered_key_byte = progress
        .last()
        .filter(|p| p.key_leads(correct_key_byte))
        .map(|_| correct_key_byte)
        .or_else(|| {
            // report the actual leader when it is not the correct key
            let (best, _) = attack.best_candidate();
            (attack.rank_of(best) == 0 && best != correct_key_byte).then_some(best)
        });
    CpaResult {
        correct_key_byte,
        recovered_key_byte,
        mtd,
        progress,
        final_peaks,
        bits_of_interest: setup.bits_of_interest.clone(),
        selected_bit,
        traces,
    }
}

/// Runs an AES-activity pilot only, returning the activity accumulator —
/// shared helper for studies that need endpoint statistics under real
/// victim traffic.
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn aes_pilot_activity(
    circuit: BenignCircuit,
    samples: usize,
    seed: u64,
) -> Result<BitActivity, FabricError> {
    let config = FabricConfig {
        benign: circuit,
        seed,
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config)?;
    let trace = fabric.run_activity(None, AesActivity::Continuous, samples);
    let mut activity = BitActivity::new(fabric.endpoints());
    for s in &trace.benign {
        activity.add(s);
    }
    Ok(activity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdc_recovers_key_quickly() {
        let exp = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 4_000,
            checkpoints: 8,
            pilot_traces: 100,
            seed: 7,
        };
        let r = run_cpa_with(&exp, |_| {}).unwrap();
        assert_eq!(r.recovered_key_byte, Some(r.correct_key_byte));
        let mtd = r.mtd.expect("TDC should disclose the key");
        assert!(mtd <= 3_000, "TDC MTD {mtd} should be well under 3k traces");
        assert_eq!(r.progress.len(), 8);
        assert_eq!(r.final_peaks.len(), 256);
    }

    #[test]
    fn tdc_single_bit_recovers_key() {
        let exp = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcSingleBit(None),
            traces: 8_000,
            checkpoints: 8,
            pilot_traces: 100,
            seed: 8,
        };
        let r = run_cpa_with(&exp, |_| {}).unwrap();
        assert_eq!(r.recovered_key_byte, Some(r.correct_key_byte));
    }

    #[test]
    fn recorded_campaign_emits_cpa_metrics() {
        let exp = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 120,
            checkpoints: 3,
            pilot_traces: 20,
            seed: 5,
        };
        let obs = Obs::memory();
        let recorded = exp.run(|_| {}, &obs).unwrap();
        let plain = run_cpa_with(&exp, |_| {}).unwrap();
        // Observability must never perturb the result.
        assert_eq!(recorded, plain);
        let frame = obs.snapshot();
        assert_eq!(frame.counter("cpa.traces_absorbed"), 120);
        assert_eq!(frame.counter("cpa.accumulator_traces"), 120);
        let margins = &frame.histograms["cpa.checkpoint_margin"];
        assert_eq!(margins.count, 3);
        assert_eq!(frame.spans["cpa.pilot"].count, 1);
        let v_min = frame.gauges["pdn.v_min"].last;
        let v_max = frame.gauges["pdn.v_max"].last;
        assert!(v_min < v_max, "droop telemetry: {v_min} .. {v_max}");
    }

    #[test]
    fn pilot_finds_bits_of_interest() {
        let exp = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::BenignSingleBit(None),
            traces: 200,
            checkpoints: 2,
            pilot_traces: 150,
            seed: 9,
        };
        let r = run_cpa_with(&exp, |_| {}).unwrap();
        assert!(!r.bits_of_interest.is_empty());
        let bit = r.selected_bit.unwrap();
        assert!(r.bits_of_interest.contains(&bit));
    }
}
