//! Workload benchmark of the stealthy-logic-misuse workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cpa-campaign|defended-stream|cloud-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A run builds its inputs from the
//! seed, sets up several times (the median is `setup_s`), measures the
//! workload for the given seconds and checks every output. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced operations over the measuring time,
//! replays each layer in isolation and reports the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! is the run's provenance. Spans, sample counts and provenance also go
//! to `.perfbench_run/` under the working directory; checkpoint ledgers
//! live in a per-run directory there that is removed at exit.

mod cloud_fleet;
mod common;
mod cpa_campaign;
mod defended_stream;
mod layers;
mod pins;
mod report;
mod stats;
mod sys;
mod trace;

use report::{num, string, Checks, Metrics};
use stats::{summarize, Summary};
use std::path::{Path, PathBuf};
use std::time::Instant;
use sys::{OpTime, Stopwatch};
use trace::Tracer;

/// Output directory, relative to the working directory.
const OUT_DIR: &str = ".perfbench_run";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Everything a workload needs from the harness.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub workers: usize,
    pub scratch: PathBuf,
    pub tracer: Tracer,
    pub checks: Checks,
    pub started: Instant,
    /// Seconds from process start to the end of the first set-up.
    pub first_setup_s: f64,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Pinned-output summary of this seed (see [`pins`]).
    pub summary: String,
    /// Extra provenance lines (sample counts, loop sizes).
    pub info: Vec<(String, String)>,
}

impl Ctx {
    /// Runs the workload's set-up [`SETUP_REPS`] times and returns the
    /// last result with the median set-up time (unstolen seconds, see
    /// [`Stopwatch`]). `f` learns whether it is the first repetition
    /// (the one that fills the process-wide caches).
    pub fn setup<T>(&mut self, mut f: impl FnMut(bool) -> T) -> (T, Summary) {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for rep in 0..SETUP_REPS {
            let t = Stopwatch::start();
            last = Some(f(rep == 0));
            times.push(t.stop().unstolen);
            if rep == 0 {
                self.first_setup_s = self.started.elapsed().as_secs_f64();
            }
        }
        (
            last.expect("at least one repetition"),
            summarize(&mut times),
        )
    }

    /// Runs the measuring loop of a run until the run's seconds have
    /// passed and at least `min_ops` operations ran in each half. `op`
    /// gets the operation's index and its slot, which picks its inputs.
    /// Untraced, every operation counts and the slot is the index.
    /// Traced, operations alternate between untraced (even) and traced
    /// (odd), and both operations of a pair share a slot, so the two
    /// halves run the same inputs under the same machine conditions and
    /// their difference is the tracing overhead. Returns the untraced
    /// timings, the traced timings (empty when untraced), and the
    /// process CPU seconds per unstolen wall second inside the timed
    /// operations (what the harness does between them is left out).
    pub fn measure(
        &mut self,
        min_ops: usize,
        mut op: impl FnMut(&mut Ctx, usize, usize) -> OpTime,
    ) -> (Vec<OpTime>, Vec<OpTime>, f64) {
        let traced = self.traced;
        let per_slot = if traced { 2 } else { 1 };
        let start = Instant::now();
        let mut ops: Vec<OpTime> = Vec::new();
        while start.elapsed().as_secs_f64() < self.seconds
            || ops.len() < min_ops.max(1) * per_slot
            || !ops.len().is_multiple_of(per_slot)
        {
            let i = ops.len();
            self.tracer.set_enabled(traced && i % 2 == 1);
            ops.push(op(self, i, i / per_slot));
            self.tracer.set_enabled(traced);
        }
        let cpu: f64 = ops.iter().map(|o| o.cpu).sum();
        let unstolen: f64 = ops.iter().map(|o| o.unstolen).sum();
        let cpu_per_wall = cpu / unstolen;
        if !traced {
            return (ops, Vec::new(), cpu_per_wall);
        }
        let even = ops.iter().step_by(2).copied().collect();
        let odd = ops.iter().skip(1).step_by(2).copied().collect();
        (even, odd, cpu_per_wall)
    }
}

/// Median of `f(x)` over `xs`.
pub fn median(xs: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
    summarize(&mut v).median
}

/// Median of `f(unstolen seconds)` over operations.
pub fn median_of(ops: &[OpTime], f: impl Fn(f64) -> f64) -> f64 {
    let v: Vec<f64> = ops.iter().map(|o| o.unstolen).collect();
    median(&v, f)
}

/// Records the operation count and the raw and unstolen median wall
/// times of the measuring loop in the output file.
pub fn note_walls(out: &mut Outcome, ops: &[OpTime]) {
    let raw: Vec<f64> = ops.iter().map(|o| o.wall).collect();
    out.info.push(("ops_timed".into(), ops.len().to_string()));
    out.info.push((
        "op_median_wall_s".into(),
        format!(
            "{:.6} (unstolen {:.6})",
            median(&raw, |x| x),
            median_of(ops, |x| x)
        ),
    ));
}

/// Records the tracing overhead and CPU use of a traced run.
pub fn trace_overhead(m: &mut Metrics, untraced: &[OpTime], traced: &[OpTime], cpu_per_wall: f64) {
    let a = median_of(untraced, |x| x);
    let b = median_of(traced, |x| x);
    m.put("trace.overhead_pct", 100.0 * (b - a) / a, "%");
    m.put("par.cpu_per_wall", cpu_per_wall, "ratio");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A per-run scratch directory, removed when dropped (also when a
/// check panics and the stack unwinds).
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload: fn(&mut Ctx) -> Outcome = match args.workload.as_str() {
        "cpa-campaign" => cpa_campaign::run,
        "defended-stream" => defended_stream::run,
        "cloud-fleet" => cloud_fleet::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root");
        std::process::exit(2);
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("tmp-{}-{nanos}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("scratch directory is writable");

    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.trace,
        workers: slm_par::available_workers(),
        scratch: scratch.0.clone(),
        tracer: Tracer::new(false),
        checks: Checks::default(),
        started,
        first_setup_s: 0.0,
    };
    let mut outcome = workload(&mut ctx);
    outcome.e2e.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
    let wall_s = started.elapsed().as_secs_f64();

    match pins::pinned(&args.workload, args.seed) {
        Some(expected) => {
            let got = outcome.summary.clone();
            ctx.checks.check(got == expected, || {
                format!("pinned output: expected {expected}, got {got}")
            });
        }
        None => outcome
            .info
            .push(("pin".into(), "no pinned output for this seed".into())),
    }

    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let error_rate = ctx.checks.failed as f64 / ctx.checks.attempted.max(1) as f64;
    let mut provenance = vec![
        ("workload".to_string(), string(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("run_seconds".into(), args.seconds.to_string()),
        ("wall_seconds".into(), num(wall_s)),
        ("traced".into(), args.trace.to_string()),
        ("nproc".into(), slm_par::available_workers().to_string()),
        (
            "profile".into(),
            string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_rev".into(), string(&sys::git_rev())),
        ("source_digest".into(), string(&sys::source_digest())),
        (
            "first_setup_from_process_start_s".into(),
            num(ctx.first_setup_s),
        ),
        ("error_rate".into(), num(error_rate)),
        ("output_summary".into(), string(&outcome.summary)),
    ];
    provenance.extend(outcome.info.iter().map(|(k, v)| (k.clone(), string(v))));
    let prov_json = provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect::<Vec<_>>()
        .join(", ");
    let notes = outcome
        .layers
        .notes()
        .iter()
        .map(|n| string(n))
        .collect::<Vec<_>>()
        .join(",\n  ");
    let failures = ctx
        .checks
        .failures
        .iter()
        .map(|f| string(f))
        .collect::<Vec<_>>()
        .join(", ");
    let file = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"provenance\": {{{prov_json}}},\n\"metrics\": {},\n\"failures\": [{failures}],\n\"notes\": [\n  {notes}\n],\n\"spans\": {}}}\n",
        metrics.to_json(),
        ctx.tracer.to_json()
    );
    if let Err(e) = std::fs::write(&file, body) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    for f in &ctx.checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("provenance: {{{prov_json}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.checks.correct(),
        ctx.checks.attempted,
        ctx.checks.failed,
        metrics.to_json()
    );
}
