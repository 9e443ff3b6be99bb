//! Order statistics and the time-budgeted per-operation timer used for
//! every layer replay.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A clock reading in seconds: the calling thread's CPU clock for
/// compute replays (immune to the hypervisor's steal), or wall time for
/// replays that wait on the disk.
pub type Clock = fn() -> f64;

/// Wall-clock seconds since an arbitrary origin.
pub fn wall_s() -> f64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Median, quartiles and sample count of a set of measurements.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// The `p`-quantile (0..=1) of sorted samples, linearly interpolated.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts `xs` in place and summarises it.
pub fn summarize(xs: &mut [f64]) -> Summary {
    xs.sort_by(f64::total_cmp);
    Summary {
        median: quantile(xs, 0.5),
        q1: quantile(xs, 0.25),
        q3: quantile(xs, 0.75),
        n: xs.len(),
    }
}

/// Shortest batch worth timing: far above the overhead of reading either
/// clock (a CPU-clock read is a system call of well under a microsecond).
const MIN_BATCH: Duration = Duration::from_micros(50);

/// Fewest batches a summary is built from, whatever the budget.
const MIN_BATCHES: usize = 5;

/// Times `op` for about `budget` of wall time and returns nanoseconds
/// per call as read from `clock` (see [`time_interleaved`]).
pub fn time_per_op<R>(budget: Duration, clock: Clock, mut op: impl FnMut() -> R) -> Summary {
    let mut op = || {
        black_box(op());
    };
    time_interleaved(budget, clock, &mut [&mut op])[0]
}

/// The smallest doubling of calls that takes at least [`MIN_BATCH`].
fn batch_size(clock: Clock, op: &mut dyn FnMut()) -> usize {
    op();
    let min_batch = MIN_BATCH.as_secs_f64();
    let mut batch = 1usize;
    loop {
        let t = clock();
        for _ in 0..batch {
            op();
        }
        if clock() - t >= min_batch || batch >= 1 << 20 {
            return batch;
        }
        batch *= 2;
    }
}

/// Times several operations for about `budget` of wall time and
/// returns nanoseconds per call of each, as read from `clock`.
///
/// Calls are grouped into batches long enough to swamp timer overhead
/// (the batch size doubles from 1 until a batch takes at least
/// [`MIN_BATCH`]); each batch contributes one sample, its time divided
/// by its size. The operations take turns, one batch each per round,
/// so all of them sample the same moments of a host whose speed
/// drifts; their medians can then be added and compared. Sampling
/// continues until the budget is spent and at least [`MIN_BATCHES`]
/// rounds ran, so a slow operation still gets a median instead of a
/// single reading.
pub fn time_interleaved(
    budget: Duration,
    clock: Clock,
    ops: &mut [&mut dyn FnMut()],
) -> Vec<Summary> {
    let batches: Vec<usize> = ops.iter_mut().map(|op| batch_size(clock, *op)).collect();
    let mut samples = vec![Vec::new(); ops.len()];
    let start = Instant::now();
    while start.elapsed() < budget || samples[0].len() < MIN_BATCHES {
        for ((op, &batch), out) in ops.iter_mut().zip(&batches).zip(&mut samples) {
            let t = clock();
            for _ in 0..batch {
                op();
            }
            out.push((clock() - t) * 1e9 / batch as f64);
        }
    }
    samples.iter_mut().map(|s| summarize(s)).collect()
}
