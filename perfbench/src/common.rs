//! Pieces the workloads share: prototype builds for set-up, the
//! service's per-tenant campaign, the runner of the two capture
//! workloads with their attacker tenant, warm admission loop and
//! service probe, and the result digest behind pinned outputs.

use crate::layers::{self, LayerCosts, LayerInputs};
use crate::report::Metrics;
use crate::sys::{fnv1a, thread_cpu_s, OpTime, FNV_OFFSET};
use crate::{median_of, note_walls, trace_overhead, Ctx, Outcome};
use slm_checker::ScanCache;
use slm_cloud::{AdmissionGate, CloudService, ServiceConfig, TenantSubmission, WorkloadSpec};
use slm_core::experiments::{CpaExperiment, CpaResult, SensorSource};
use slm_fabric::{BenignCircuit, FabricConfig, FabricPrototype};
use std::hint::black_box;
use std::sync::Arc;

/// Fewest timed warm admission decisions per run (p99 then has at
/// least 40 samples beyond it).
const ADMISSION_SAMPLES: usize = 4_000;

/// One tenant campaign as the service runs it (its own parameters: 2
/// checkpoints, 16 pilot traces) over 16 traces on `circuit`.
pub fn tenant_campaign(circuit: BenignCircuit, seed: u64) -> CpaExperiment {
    CpaExperiment {
        circuit,
        source: SensorSource::TdcAll,
        traces: 16,
        checkpoints: 2,
        pilot_traces: 16,
        seed,
    }
}

/// The attacker tenant's submission: the benign sensor circuit's
/// netlist. It requests no clock frequency (it overclocks at run time,
/// which admission cannot see), so admission runs no timing check.
fn attacker_submission(workload: WorkloadSpec) -> TenantSubmission {
    let netlist = BenignCircuit::DualC6288
        .build()
        .expect("DualC6288 builds")
        .netlist;
    TenantSubmission::new("attacker", netlist).with_workload(workload)
}

/// Fills the prototype cache for `config` on the first set-up and
/// rebuilds the prototype uncached on later ones, so every repetition
/// does the same work.
pub fn build_prototype(config: &FabricConfig, first: bool) -> Arc<FabricPrototype> {
    if first {
        FabricPrototype::cached(config).expect("prototype builds")
    } else {
        Arc::new(FabricPrototype::build(config).expect("prototype builds"))
    }
}

/// Set-up shared by the capture workloads: the attacker's submission
/// and a gate that has scanned it once (cold), so the timed decisions
/// run warm. Returns whether the attacker was admitted.
fn admit_attacker(workload: WorkloadSpec) -> (TenantSubmission, AdmissionGate, bool) {
    let sub = attacker_submission(workload);
    let gate = AdmissionGate::new(ScanCache::in_memory());
    let admitted = gate.decide(&sub).verdict.admitted();
    (sub, gate, admitted)
}

/// Closed loop (one caller) of warm decisions on the attacker's
/// submission. Decisions run in short blocks between the workload's
/// operations, so the samples span the whole measuring time. A
/// decision runs entirely on the caller's thread, so its latency is
/// read from that thread's CPU clock, which leaves out time the
/// hypervisor stole (see [`crate::sys::Stopwatch`]).
struct WarmAdmission {
    gate: AdmissionGate,
    sub: TenantSubmission,
    lat_us: Vec<f64>,
}

/// Decisions per block between two workload operations: enough that a
/// 20-second run of either capture workload reaches
/// [`ADMISSION_SAMPLES`] inside its measuring loop.
const ADMISSION_BLOCK: usize = 40;

impl WarmAdmission {
    fn new(gate: AdmissionGate, sub: TenantSubmission) -> Self {
        WarmAdmission {
            gate,
            sub,
            lat_us: Vec::with_capacity(ADMISSION_SAMPLES),
        }
    }

    /// Times one block of decisions.
    fn block(&mut self, ctx: &mut Ctx) {
        for _ in 0..ADMISSION_BLOCK {
            let i = self.lat_us.len();
            let span = ctx.tracer.span("cloud.AdmissionGate::decide", i as u64);
            let t = thread_cpu_s();
            let d = black_box(self.gate.decide(&self.sub));
            self.lat_us.push((thread_cpu_s() - t) * 1e6);
            drop(span);
            ctx.checks
                .check(d.verdict.admitted(), || format!("warm decide {i} denied"));
        }
    }

    /// Tops the samples up to [`ADMISSION_SAMPLES`] and records p50/p99
    /// in microseconds and the cache hit ratio.
    fn finish(mut self, ctx: &mut Ctx, out: &mut Outcome) {
        while self.lat_us.len() < ADMISSION_SAMPLES {
            self.block(ctx);
        }
        let lat = &mut self.lat_us;
        let s = crate::stats::summarize(lat);
        out.e2e.put("admission_p50_us", s.median, "us");
        out.e2e
            .put("admission_p99_us", crate::stats::quantile(lat, 0.99), "us");
        out.info
            .push(("admission_samples".into(), lat.len().to_string()));
        let hits = self.gate.cache_hits() as f64;
        out.layers.put(
            "checker.cache_hit_ratio",
            hits / (hits + self.gate.cache_misses() as f64),
            "ratio",
        );
    }
}

/// One small campaign of the attacker's submission through the
/// service: the cloud-layer counts of a capture workload.
fn cloud_probe(ctx: &mut Ctx, sub: &TenantSubmission, m: &mut Metrics) {
    let service = CloudService::new(ServiceConfig {
        workers: ctx.workers,
        seed: ctx.seed,
        ..ServiceConfig::default()
    });
    let report = {
        let _span = ctx.tracer.span("cloud.CloudService::run", 0);
        service.run(vec![sub.clone()]).expect("service drains")
    };
    ctx.checks.check(report.campaigns_delivered == 1, || {
        format!("probe delivered {} campaigns", report.campaigns_delivered)
    });
    m.put("cloud.rounds", report.rounds as f64, "count");
    m.put(
        "cloud.delivered",
        report.campaigns_delivered as f64,
        "count",
    );
    m.put("cloud.denied", report.denied as f64, "count");
    m.put("cloud.shed", report.shed as f64, "count");
}

/// Digest of a result set's full debug rendering (every float bit).
pub fn digest<T: std::fmt::Debug>(items: &[T]) -> String {
    let h = items
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv1a(h, format!("{r:?}").as_bytes()));
    format!("{h:016x}")
}

/// Distinct campaign seeds per run of a capture workload.
pub const POOL: usize = 4;

/// The campaign seeds of a capture workload's run at `seed`.
pub fn seed_pool(seed: u64) -> Vec<u64> {
    (0..POOL as u64)
        .map(|i| slm_par::mix_seed(seed, i))
        .collect()
}

/// What sets one capture workload (`cpa-campaign`, `defended-stream`)
/// apart; [`run_capture`] does the rest.
pub struct Capture<C, B> {
    /// Traces per campaign.
    pub traces: u64,
    /// Campaign seeds, from [`seed_pool`].
    pub pool: Vec<u64>,
    /// The fabric configuration the campaigns capture on, seeded by the
    /// first campaign seed.
    pub config: FabricConfig,
    /// The attacker's workload as declared at admission.
    pub workload: WorkloadSpec,
    /// Ledger commits per campaign (0 when not journalled).
    pub commits_per_op: u64,
    /// Name of the workload's own per-campaign check.
    pub check: &'static str,
    /// Runs one campaign at a seed with an id unique to the call, and
    /// returns its result, its time and whether the workload's own
    /// check held.
    pub campaign: C,
    /// Layer busy seconds of one campaign, from the replayed costs.
    pub busy_s: B,
}

/// Runs a capture workload: set-up (prototype build and the attacker's
/// cold admission), a warm-up campaign, the measuring loop cycling
/// through the seed pool with a block of warm admission decisions
/// after every campaign, and, traced, the layer replays and a service
/// probe. Every campaign must pass the workload's check and repeat its
/// seed's first result exactly. Returns the outcome and the first
/// result of each seed, in pool order.
pub fn run_capture<C, B>(ctx: &mut Ctx, w: Capture<C, B>) -> (Outcome, Vec<CpaResult>)
where
    C: Fn(&Ctx, u64, u64) -> (CpaResult, OpTime, bool),
    B: Fn(&LayerCosts) -> f64,
{
    let mut out = Outcome::default();
    let ((sub, gate, admitted), setup) = ctx.setup(|first| {
        black_box(build_prototype(&w.config, first));
        admit_attacker(w.workload)
    });
    out.e2e.put("setup_s", setup.median, "s");
    ctx.checks
        .check(admitted, || "attacker netlist denied at admission".into());
    let mut admission = WarmAdmission::new(gate, sub);

    // Warm-up campaign: fills the worker pool and allocator, and is the
    // reference result of the first seed.
    let mut refs: Vec<Option<CpaResult>> = vec![None; POOL];
    refs[0] = Some((w.campaign)(ctx, w.pool[0], u64::MAX).0);

    let (untraced, traced, cpu_per_wall) = ctx.measure(POOL, |ctx, i, slot| {
        let k = slot % POOL;
        let (r, time, ok) = (w.campaign)(ctx, w.pool[k], i as u64);
        let same = refs[k].as_ref().is_none_or(|first| *first == r);
        ctx.checks.check(ok && same, || {
            format!(
                "campaign {i} (seed {:#x}): {}={ok} identical={same}",
                w.pool[k], w.check
            )
        });
        refs[k].get_or_insert(r);
        admission.block(ctx);
        time
    });
    let times = if ctx.traced { &traced } else { &untraced };
    out.e2e.put(
        "traces_per_s",
        median_of(times, |t| w.traces as f64 / t),
        "1/s",
    );
    out.e2e
        .put("campaigns_per_s", median_of(times, |t| 1.0 / t), "1/s");
    note_walls(&mut out, times);

    let subs = [admission.sub.clone()];
    admission.finish(ctx, &mut out);

    if ctx.traced {
        let m = &mut out.layers;
        trace_overhead(m, &untraced, &traced, cpu_per_wall);
        let costs = layers::replay(
            &LayerInputs {
                config: w.config.clone(),
                commits_per_op: w.commits_per_op,
                submissions: &subs,
                tenant_campaign: tenant_campaign(BenignCircuit::DualC6288, w.pool[0]),
                scratch: &ctx.scratch,
            },
            &ctx.tracer,
            m,
        );
        cloud_probe(ctx, &subs[0], m);
        let wall = median_of(&traced, |t| t);
        m.put(
            "core.self_s",
            wall - (w.busy_s)(&costs) / ctx.workers as f64,
            "s",
        );
    }
    (out, refs.into_iter().flatten().collect())
}
