//! The content-addressed per-pass scan cache.
//!
//! Admission-at-traffic means scanning the *same* tenant netlists over
//! and over — every resubmission, every config rollout, every nightly
//! re-audit. Pass results are pure functions of (netlist, config,
//! pass), so they are cached under an FNV-1a key over the netlist's
//! [`content hash`](slm_netlist::Netlist::content_hash), a hash of the
//! serialized [`CheckerConfig`], and the pass name — the same
//! fingerprint discipline the streaming checkpoint ledger uses. A warm
//! cache replays findings without building the analysis context at
//! all.
//!
//! Two tiers:
//!
//! * an in-memory map (always on), shared across threads behind a
//!   mutex so one cache serves a whole `--jobs N` batch;
//! * an optional on-disk tier with one file per (scan, pass) entry,
//!   written atomically (`.tmp` + rename) with a trailing checksum.
//!   The vendored `serde_json` has no parser, so entries use a small
//!   hand-rolled binary codec; any unreadable, truncated or corrupt
//!   file is treated as a miss, never an error.
//!
//! Cached findings are **pre-suppression**: suppression rules are part
//! of the config hash anyway, but applying them at replay keeps the
//! invariant that a `Reject` can never be hidden by a stale allowlist.

use crate::config::CheckerConfig;
use crate::diag::{CheckKind, Finding, Severity, SpanNet};
use slm_netlist::{NetId, Netlist};
use slm_par::{fnv1a, fnv1a_extend};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const MAGIC: &[u8; 6] = b"SLMC1\n";

/// A shared, thread-safe cache of per-pass scan results.
pub struct ScanCache {
    mem: Mutex<HashMap<u64, Vec<Finding>>>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ScanCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        ScanCache {
            mem: Mutex::new(HashMap::new()),
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache backed by one file per entry under `dir` (created if
    /// missing), warm across processes.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ScanCache {
            mem: Mutex::new(HashMap::new()),
            dir: Some(dir),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Entries served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the pass.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The scan-level part of the cache key: FNV over the netlist
    /// content hash and the serialized checker config. Any observable
    /// change to either — one gate, one threshold, one suppression
    /// rule — yields a different key.
    pub fn scan_key(&self, nl: &Netlist, config: &CheckerConfig) -> u64 {
        let config_json =
            serde_json::to_string(config).expect("config serialization is infallible");
        fnv1a_extend(
            fnv1a(&nl.content_hash().to_le_bytes()),
            config_json.as_bytes(),
        )
    }

    /// The full entry key for one pass of one scan.
    fn entry_key(scan_key: u64, pass: &str) -> u64 {
        fnv1a_extend(fnv1a(&scan_key.to_le_bytes()), pass.as_bytes())
    }

    /// Looks up the cached findings of `pass` for `scan_key`.
    pub fn get(&self, scan_key: u64, pass: &str) -> Option<Vec<Finding>> {
        let key = Self::entry_key(scan_key, pass);
        if let Some(found) = self.mem.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(found.clone());
        }
        if let Some(dir) = &self.dir {
            if let Some(found) = read_entry(&entry_path(dir, key)) {
                self.mem
                    .lock()
                    .expect("cache lock")
                    .insert(key, found.clone());
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(found);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores the (pre-suppression) findings of `pass` for `scan_key`.
    ///
    /// Disk-tier write failures are swallowed: the cache is advisory,
    /// and a scan must never fail because a cache volume is full.
    pub fn put(&self, scan_key: u64, pass: &str, findings: &[Finding]) {
        let key = Self::entry_key(scan_key, pass);
        self.mem
            .lock()
            .expect("cache lock")
            .insert(key, findings.to_vec());
        if let Some(dir) = &self.dir {
            let _ = write_entry(&entry_path(dir, key), findings);
        }
    }
}

fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.slmc"))
}

// --- binary codec -------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode(findings: &[Finding]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(findings.len() as u32).to_le_bytes());
    for f in findings {
        // Kind and severity as their stable string labels, for
        // forward-compat across enum additions.
        put_str(&mut out, f.kind.as_str());
        put_str(&mut out, f.severity.as_str());
        put_str(&mut out, &f.pass);
        match f.witness {
            Some(w) => {
                out.push(1);
                out.extend_from_slice(&w.0.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(f.span.len() as u32).to_le_bytes());
        for s in &f.span {
            out.extend_from_slice(&s.net.0.to_le_bytes());
            match &s.name {
                Some(name) => {
                    out.push(1);
                    put_str(&mut out, name);
                }
                None => out.push(0),
            }
        }
        put_str(&mut out, &f.detail);
        match &f.suppressed {
            Some(reason) => {
                out.push(1);
                put_str(&mut out, reason);
            }
            None => out.push(0),
        }
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

fn kind_from_str(s: &str) -> Option<CheckKind> {
    let all = [
        CheckKind::CombinationalLoop,
        CheckKind::DelayLineSensor,
        CheckKind::ExcessiveFanoutArray,
        CheckKind::TimingOverclock,
        CheckKind::ObservationDensity,
        CheckKind::ClockAsData,
        CheckKind::SensorLikeEndpoints,
        CheckKind::KnownBadMotif,
        CheckKind::ClockTaint,
        CheckKind::SwitchingActivity,
        CheckKind::ObservationBandwidth,
    ];
    all.into_iter().find(|k| k.as_str() == s)
}

fn severity_from_str(s: &str) -> Option<Severity> {
    [Severity::Info, Severity::Warn, Severity::Reject]
        .into_iter()
        .find(|v| v.as_str() == s)
}

fn decode(bytes: &[u8]) -> Option<Vec<Finding>> {
    if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv1a(body) != checksum {
        return None;
    }
    let mut r = Reader {
        bytes: body,
        at: MAGIC.len(),
    };
    let count = r.u32()? as usize;
    // Each finding needs at least its three length-prefixed strings.
    if count > body.len() {
        return None;
    }
    let mut findings = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let kind = kind_from_str(&r.str()?)?;
        let severity = severity_from_str(&r.str()?)?;
        let pass = r.str()?;
        let witness = match r.u8()? {
            0 => None,
            1 => Some(NetId(r.u32()?)),
            _ => return None,
        };
        let span_len = r.u32()? as usize;
        if span_len > body.len() {
            return None;
        }
        let mut span = Vec::with_capacity(span_len.min(1024));
        for _ in 0..span_len {
            let net = NetId(r.u32()?);
            let name = match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                _ => return None,
            };
            span.push(SpanNet { net, name });
        }
        let detail = r.str()?;
        let suppressed = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            _ => return None,
        };
        findings.push(Finding {
            kind,
            severity,
            pass,
            witness,
            span,
            detail,
            suppressed,
        });
    }
    if r.at != body.len() {
        return None; // trailing garbage
    }
    Some(findings)
}

fn read_entry(path: &Path) -> Option<Vec<Finding>> {
    decode(&std::fs::read(path).ok()?)
}

fn write_entry(path: &Path, findings: &[Finding]) -> std::io::Result<()> {
    // Every writer gets its own scratch file. A shared `.tmp` name
    // would let two concurrent writers of the same key interleave
    // truncate/write/rename on one path — the rename could publish a
    // torn half-write, or tear the scratch file out from under the
    // slower writer. With a unique name each rename atomically
    // publishes one complete, checksummed entry; last writer wins.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq:x}", std::process::id()));
    std::fs::write(&tmp, encode(findings))?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::span_of;

    fn sample_findings() -> Vec<Finding> {
        let nl = slm_netlist::generators::c17();
        vec![
            Finding::new(
                CheckKind::ClockTaint,
                Severity::Reject,
                "clock-taint",
                "clock-rate taint on 9 outputs".into(),
            )
            .with_witness(NetId(3))
            .with_span(span_of(&nl, &[NetId(1), NetId(2)])),
            Finding::new(
                CheckKind::SensorLikeEndpoints,
                Severity::Info,
                "scoap-sensor",
                "sub-threshold".into(),
            ),
        ]
    }

    #[test]
    fn codec_round_trips() {
        let findings = sample_findings();
        let decoded = decode(&encode(&findings)).expect("round trip");
        assert_eq!(decoded, findings);
        assert_eq!(decode(&encode(&[])).expect("empty"), vec![]);
    }

    #[test]
    fn corrupt_entries_are_misses_not_errors() {
        let findings = sample_findings();
        let good = encode(&findings);
        // Any single-byte flip breaks the checksum (or the magic).
        for at in [0, MAGIC.len() + 1, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(decode(&bad).is_none(), "flip at {at} must not decode");
        }
        // Truncations at every boundary are rejected too.
        for len in [0, 3, MAGIC.len(), good.len() - 9, good.len() - 1] {
            assert!(decode(&good[..len]).is_none(), "truncation to {len}");
        }
    }

    #[test]
    fn disk_tier_round_trips_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("slm-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let findings = sample_findings();
        {
            let cache = ScanCache::with_dir(&dir).unwrap();
            cache.put(42, "clock-taint", &findings);
        }
        // A fresh cache instance reads the entry back from disk.
        let cache = ScanCache::with_dir(&dir).unwrap();
        assert_eq!(cache.get(42, "clock-taint"), Some(findings.clone()));
        assert_eq!(cache.get(42, "other-pass"), None);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Corrupt the file on disk: a fresh instance treats it as a miss.
        let key = ScanCache::entry_key(42, "clock-taint");
        let path = entry_path(&dir, key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let cache = ScanCache::with_dir(&dir).unwrap();
        assert_eq!(cache.get(42, "clock-taint"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The service admission path hammers one cache directory from
    /// many threads at once — concurrent cold writes and warm reads of
    /// the *same* key. Every read must observe either a miss or one
    /// complete entry (never torn bytes decoding to garbage), and once
    /// all writers finish the entry must be present and intact. Each
    /// thread uses a private `ScanCache` instance over the shared
    /// directory so every operation exercises the disk tier, not the
    /// in-memory map.
    #[test]
    fn disk_tier_survives_concurrent_same_key_traffic() {
        let dir = std::env::temp_dir().join(format!("slm-cache-hammer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let findings = sample_findings();
        let scan_key = 7u64;
        std::thread::scope(|scope| {
            for t in 0..8 {
                let dir = &dir;
                let findings = &findings;
                scope.spawn(move || {
                    for i in 0..50 {
                        let cache = ScanCache::with_dir(dir).unwrap();
                        if (t + i) % 2 == 0 {
                            cache.put(scan_key, "clock-taint", findings);
                        }
                        match cache.get(scan_key, "clock-taint") {
                            None => {}
                            Some(got) => {
                                assert_eq!(&got, findings, "a concurrent reader saw a torn entry")
                            }
                        }
                    }
                });
            }
        });
        // After the storm: the entry is present, complete, and no
        // scratch files were left behind by the unique-tmp protocol's
        // winners (a losing rename cannot exist — names are unique).
        let cache = ScanCache::with_dir(&dir).unwrap();
        assert_eq!(cache.get(scan_key, "clock-taint"), Some(findings.clone()));
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray scratch files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_key_tracks_netlist_and_config() {
        let cache = ScanCache::in_memory();
        let a = slm_netlist::generators::c17();
        let b = slm_netlist::generators::ripple_carry_adder(4).unwrap();
        let config = CheckerConfig::default();
        assert_eq!(cache.scan_key(&a, &config), cache.scan_key(&a, &config));
        assert_ne!(cache.scan_key(&a, &config), cache.scan_key(&b, &config));
        let tightened = CheckerConfig {
            scoap: crate::ScoapConfig {
                min_depth: 4,
                ..crate::ScoapConfig::default()
            },
            ..CheckerConfig::default()
        };
        assert_ne!(cache.scan_key(&a, &config), cache.scan_key(&a, &tightened));
    }
}
