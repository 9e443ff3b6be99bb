//! Process-level measurements: CPU time, peak resident memory and the
//! provenance stamped on every output.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Linux clock ids and the `sysconf` name of the tick rate.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the kernel supports; the call writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed so far by every thread of this process.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Seconds of CPU the hypervisor has taken from this machine's virtual
/// CPUs while they were runnable (`steal` in `/proc/stat`), summed over
/// CPUs; 0 where the kernel does not report it.
pub fn steal_s() -> f64 {
    // SAFETY: `sysconf` only reads a constant system parameter.
    let tick = unsafe { sysconf(SC_CLK_TCK) };
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .unwrap_or(0.0);
    if tick > 0 {
        steal / tick as f64
    } else {
        0.0
    }
}

/// Times one operation: its wall time, and its wall time with the
/// share the hypervisor stole from the process's virtual CPUs taken out.
///
/// On a shared host, co-tenants' load can stretch wall time by 2× for
/// minutes at a time through steal. Stolen time counts in neither the
/// process CPU clock nor anything a code change can affect, so an
/// operation that ran `cpu` CPU-seconds while `steal` seconds were
/// stolen would have taken `wall · cpu / (cpu + steal)` on an unshared
/// host (exact when the process is the only runnable load, as in a
/// benchmark container).
pub struct Stopwatch {
    start: std::time::Instant,
    cpu: f64,
    steal: f64,
}

/// The readings of a [`Stopwatch`], seconds: wall time, wall time
/// without steal, and the process CPU time spent in between.
#[derive(Debug, Clone, Copy)]
pub struct OpTime {
    pub wall: f64,
    pub unstolen: f64,
    pub cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            steal: steal_s(),
            cpu: process_cpu_s(),
            start: std::time::Instant::now(),
        }
    }

    pub fn stop(&self) -> OpTime {
        let wall = self.start.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - self.cpu;
        let steal = (steal_s() - self.steal).max(0.0);
        let unstolen = if cpu + steal > 0.0 {
            wall * cpu / (cpu + steal)
        } else {
            wall
        };
        OpTime {
            wall,
            unstolen,
            cpu,
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the sources came from, read from `.git` in the working
/// directory without running git; `"none"` outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over a byte string, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A digest of every Rust source and manifest under `crates/` and the
/// benchmark's own sources, so an output names the exact code it
/// measured even where no git metadata exists.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        h = fnv1a(h, f.to_string_lossy().as_bytes());
        h = fnv1a(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x} ({} files)", files.len())
}
