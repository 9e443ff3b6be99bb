//! Trace-file storage.
//!
//! The paper's host script "transmit\[s\], receiv\[es\] and stor\[es\] traces
//! and tuples of plaintexts and ciphertexts. In addition to the raw
//! data, a separate file with traces only containing relevant bits for
//! the CPA is stored." This module is that storage layer: a compact,
//! self-describing binary format for post-processed trace campaigns,
//! written/read through any `std::io` stream so campaigns can be
//! captured once and re-analyzed offline.
//!
//! Trace-file format (all little-endian):
//!
//! ```text
//! magic "SLMT" | version u16 | points u16 | count u64
//! count × ( ciphertext [u8; 16] | points × f32 )
//! fletcher-64 checksum over everything above
//! ```
//!
//! The module also serializes [`CpaCheckpoint`]s —
//! [`write_checkpoint`] / [`read_checkpoint`] — so a long capture
//! campaign can persist its streaming accumulator and resume after a
//! crash without replaying every trace, and provides the durable layer
//! under the streaming campaign engine: [`StreamCheckpoint`] (the full
//! campaign state at a window boundary) and [`CheckpointLedger`] (an
//! atomic, generation-numbered on-disk store with graceful fallback).
//!
//! # On-disk layouts
//!
//! All integers and floats are little-endian. Every format ends with a
//! Fletcher-64 integrity seal computed over everything before it.
//!
//! **Accumulator checkpoint** (`"SLMC"`, version [`CHECKPOINT_VERSION`]):
//!
//! ```text
//! offset  size            field
//! 0       4               magic "SLMC"
//! 4       2               version (u16)
//! 6       2               points per trace (u16)
//! 8       1               model ct_byte (u8)
//! 9      1                model bit (u8)
//! 10      8               traces absorbed (u64)
//! 18      256×8           bin_count (u64 per ciphertext-byte value)
//! +       256×points×8    bin_sum (f64, bin-major)
//! +       points×8        sum_sq (f64)
//! +       8               fletcher-64 seal
//! ```
//!
//! **Streaming campaign checkpoint** (`"SLMS"`, version
//! [`STREAM_CHECKPOINT_VERSION`]): everything a streaming campaign
//! needs to resume — exact-once window accounting plus per-slot
//! progress curves and nested accumulator checkpoints:
//!
//! ```text
//! offset  size   field
//! 0       4      magic "SLMS"
//! 4       2      version (u16)
//! 6       8      campaign fingerprint (u64; resume refuses a mismatch)
//! 14      8      windows committed (u64)
//! 22      8      traces committed (u64)
//! 30      2      accumulator slots (u16)
//! 32      …      per slot: progress curve
//!                  u32 point count, then per point:
//!                  u64 traces | u16 candidates | candidates × f64 peak |r|
//! +       …      per slot: u64 nested length | nested "SLMC" checkpoint
//! +       8      fletcher-64 seal
//! ```
//!
//! A reader that encounters a *newer* version than it supports reports
//! an incompatibility (never corruption, never a silent partial load):
//! the version field is validated before the seal so the error names
//! the format mismatch rather than a checksum failure.
//!
//! # The generation ledger
//!
//! [`CheckpointLedger`] stores successive checkpoint payloads as
//! `gen-<n>.slmc` files in one directory. A commit is atomic:
//! write-to-temp, `sync_all`, rename into place — a process killed at
//! any point leaves either the previous generation set intact or the
//! new generation fully present (a stale `.tmp` from a mid-commit
//! crash is swept on open and ignored by readers). Loading walks
//! generations newest-first and falls back past torn or corrupt files
//! to the newest generation that parses, reporting what it skipped so
//! callers can count recoveries — a corrupt *latest* checkpoint
//! degrades the campaign by at most one commit interval, never to a
//! silently wrong state.

use crate::attack::CpaCheckpoint;
use crate::mtd::ProgressPoint;
use crate::LastRoundModel;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Current trace-file format version.
pub const TRACE_FILE_VERSION: u16 = 1;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Current streaming-campaign checkpoint format version.
pub const STREAM_CHECKPOINT_VERSION: u16 = 1;

const MAGIC: [u8; 4] = *b"SLMT";

const CHECKPOINT_MAGIC: [u8; 4] = *b"SLMC";

const STREAM_MAGIC: [u8; 4] = *b"SLMS";

/// Builds the section-and-offset diagnostic every reader in this
/// module uses: errors name the failing section and the byte offset
/// where the problem was found, so a corrupt multi-megabyte checkpoint
/// is debuggable without a hex dump.
fn section_err(section: &str, offset: usize, detail: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("checkpoint section `{section}` at byte {offset}: {detail}"),
    )
}

/// One stored trace: the ciphertext and its post-processed points.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Ciphertext returned with the capture.
    pub ciphertext: [u8; 16],
    /// Post-processed trace points (stored as `f32`).
    pub points: Vec<f32>,
}

/// Streaming checksum (Fletcher-64 over 32-bit words, byte-padded).
#[derive(Debug, Clone, Default)]
struct Fletcher64 {
    a: u64,
    b: u64,
    pending: [u8; 4],
    pending_len: usize,
}

impl Fletcher64 {
    fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.pending[self.pending_len] = byte;
            self.pending_len += 1;
            if self.pending_len == 4 {
                let w = u32::from_le_bytes(self.pending) as u64;
                self.a = (self.a + w) % 0xffff_ffff;
                self.b = (self.b + self.a) % 0xffff_ffff;
                self.pending_len = 0;
            }
        }
    }

    fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            for i in self.pending_len..4 {
                self.pending[i] = 0;
            }
            let w = u32::from_le_bytes(self.pending) as u64;
            self.a = (self.a + w) % 0xffff_ffff;
            self.b = (self.b + self.a) % 0xffff_ffff;
        }
        (self.b << 32) | self.a
    }
}

/// Writes a trace campaign.
///
/// Records must all have the same point count; the writer validates and
/// maintains the checksum. Call [`TraceWriter::finish`] to seal the
/// stream.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    points: u16,
    count: u64,
    sum: Fletcher64,
    finished: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a new trace file with `points` points per trace.
    ///
    /// The header is written with a zero count placeholder strategy:
    /// because streams may not be seekable, the count is written at
    /// `finish` time into the trailer instead, and readers take the
    /// count from the trailer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new(mut sink: W, points: u16) -> io::Result<Self> {
        let mut sum = Fletcher64::default();
        let mut header = Vec::with_capacity(8);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&TRACE_FILE_VERSION.to_le_bytes());
        header.extend_from_slice(&points.to_le_bytes());
        sink.write_all(&header)?;
        sum.update(&header);
        Ok(TraceWriter {
            sink,
            points,
            count: 0,
            sum,
            finished: false,
        })
    }

    /// Appends one trace.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the point count differs from the header;
    /// otherwise propagates I/O errors.
    pub fn write_trace(&mut self, ct: &[u8; 16], points: &[f64]) -> io::Result<()> {
        if points.len() != usize::from(self.points) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "expected {} points per trace, got {}",
                    self.points,
                    points.len()
                ),
            ));
        }
        let mut buf = Vec::with_capacity(16 + 4 * points.len());
        buf.extend_from_slice(ct);
        for &p in points {
            buf.extend_from_slice(&(p as f32).to_le_bytes());
        }
        self.sink.write_all(&buf)?;
        self.sum.update(&buf);
        self.count += 1;
        Ok(())
    }

    /// Number of traces written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Writes the trailer (count + checksum) and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        let count_bytes = self.count.to_le_bytes();
        self.sink.write_all(&count_bytes)?;
        self.sum.update(&count_bytes);
        let digest = std::mem::take(&mut self.sum).finish();
        self.sink.write_all(&digest.to_le_bytes())?;
        self.finished = true;
        Ok(self.sink)
    }
}

/// Reads a trace campaign written by [`TraceWriter`], validating the
/// checksum.
///
/// # Errors
///
/// `InvalidData` on bad magic, version, truncation, or checksum
/// mismatch.
pub fn read_traces<R: Read>(mut source: R) -> io::Result<Vec<TraceRecord>> {
    let mut data = Vec::new();
    source.read_to_end(&mut data)?;
    if data.len() < 8 + 8 + 8 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated file"));
    }
    if data[..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != TRACE_FILE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported version {version}"),
        ));
    }
    let points = usize::from(u16::from_le_bytes([data[6], data[7]]));
    let body_end = data.len() - 8;
    // verify checksum over everything except the final digest
    let mut sum = Fletcher64::default();
    sum.update(&data[..body_end]);
    let expect = u64::from_le_bytes(data[body_end..].try_into().expect("8 bytes"));
    if sum.finish() != expect {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checksum mismatch",
        ));
    }
    let count_off = body_end - 8;
    let count = u64::from_le_bytes(data[count_off..body_end].try_into().expect("8 bytes"));
    let record_len = 16 + 4 * points;
    let expected_len = 8 + count as usize * record_len;
    if count_off != expected_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("length mismatch: {count} records of {record_len} bytes"),
        ));
    }
    let mut out = Vec::with_capacity(count as usize);
    let mut off = 8;
    for _ in 0..count {
        let mut ciphertext = [0u8; 16];
        ciphertext.copy_from_slice(&data[off..off + 16]);
        off += 16;
        let mut pts = Vec::with_capacity(points);
        for _ in 0..points {
            pts.push(f32::from_le_bytes(
                data[off..off + 4].try_into().expect("4 bytes"),
            ));
            off += 4;
        }
        out.push(TraceRecord {
            ciphertext,
            points: pts,
        });
    }
    Ok(out)
}

/// Serializes a [`CpaCheckpoint`] with a Fletcher-64 integrity seal.
///
/// # Errors
///
/// `InvalidInput` if the point count exceeds the format's `u16` field;
/// otherwise propagates I/O errors.
pub fn write_checkpoint<W: Write>(mut sink: W, cp: &CpaCheckpoint) -> io::Result<()> {
    if cp.points > usize::from(u16::MAX) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} points exceed the format limit", cp.points),
        ));
    }
    let mut buf = Vec::with_capacity(16 + 256 * 8 + (256 * cp.points + cp.points) * 8);
    buf.extend_from_slice(&CHECKPOINT_MAGIC);
    buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(cp.points as u16).to_le_bytes());
    buf.push(cp.model.ct_byte as u8);
    buf.push(cp.model.bit);
    buf.extend_from_slice(&cp.traces.to_le_bytes());
    for &c in &cp.bin_count {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    for &s in &cp.bin_sum {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    for &q in &cp.sum_sq {
        buf.extend_from_slice(&q.to_le_bytes());
    }
    let mut sum = Fletcher64::default();
    sum.update(&buf);
    buf.extend_from_slice(&sum.finish().to_le_bytes());
    sink.write_all(&buf)
}

/// Reads a checkpoint written by [`write_checkpoint`], validating the
/// integrity seal and the accumulator geometry.
///
/// The version field is checked *before* the integrity seal, so a
/// checkpoint written by a newer build fails with a version
/// incompatibility, not a misleading checksum error.
///
/// # Errors
///
/// `InvalidData` on bad magic, version, truncation, checksum mismatch,
/// or a geometry that does not describe a valid accumulator. The error
/// message names the failing section and byte offset.
pub fn read_checkpoint<R: Read>(mut source: R) -> io::Result<CpaCheckpoint> {
    let mut data = Vec::new();
    source.read_to_end(&mut data)?;
    parse_checkpoint(&data)
}

/// [`read_checkpoint`] over an in-memory byte slice (the nested-payload
/// path of [`read_stream_checkpoint`]).
fn parse_checkpoint(data: &[u8]) -> io::Result<CpaCheckpoint> {
    let len = data.len();
    if len < 18 {
        return Err(section_err(
            "header",
            len,
            format!("file is {len} bytes, the fixed header needs 18"),
        ));
    }
    if data[..4] != CHECKPOINT_MAGIC {
        return Err(section_err(
            "magic",
            0,
            format!("got {:02x?}, expected \"SLMC\"", &data[..4]),
        ));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != CHECKPOINT_VERSION {
        return Err(section_err(
            "version",
            4,
            format!(
                "checkpoint version {version} is not supported (this build reads \
                 version {CHECKPOINT_VERSION}); refusing to guess at the layout"
            ),
        ));
    }
    let points = usize::from(u16::from_le_bytes([data[6], data[7]]));
    let traces = u64::from_le_bytes(data[10..18].try_into().expect("8 bytes"));
    // Section table for the variable-size body.
    let bin_count_off = 18;
    let bin_sum_off = bin_count_off + 256 * 8;
    let sum_sq_off = bin_sum_off + 256 * points * 8;
    let seal_off = sum_sq_off + points * 8;
    let expected_len = seal_off + 8;
    if len != expected_len {
        let (section, start) = if len < bin_sum_off {
            ("bin_count", bin_count_off)
        } else if len < sum_sq_off {
            ("bin_sum", bin_sum_off)
        } else if len < seal_off {
            ("sum_sq", sum_sq_off)
        } else {
            ("seal", seal_off)
        };
        return Err(section_err(
            section,
            start,
            format!(
                "file is {len} bytes, format needs {expected_len} for {points} points \
                 (section `{section}` spans bytes {start}..)"
            ),
        ));
    }
    let mut sum = Fletcher64::default();
    sum.update(&data[..seal_off]);
    let got = sum.finish();
    let expect = u64::from_le_bytes(data[seal_off..].try_into().expect("8 bytes"));
    if got != expect {
        return Err(section_err(
            "seal",
            seal_off,
            format!("checksum mismatch: stored {expect:#018x}, computed {got:#018x}"),
        ));
    }
    let model = LastRoundModel {
        ct_byte: usize::from(data[8]),
        bit: data[9],
    };
    if model.ct_byte >= 16 || model.bit >= 8 {
        return Err(section_err(
            "model",
            8,
            format!("ct_byte {} / bit {} out of range", model.ct_byte, model.bit),
        ));
    }
    let mut off = 18;
    let mut bin_count = Vec::with_capacity(256);
    for _ in 0..256 {
        bin_count.push(u64::from_le_bytes(
            data[off..off + 8].try_into().expect("8 bytes"),
        ));
        off += 8;
    }
    let read_f64s = |off: &mut usize, n: usize| -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f64::from_le_bytes(
                data[*off..*off + 8].try_into().expect("8 bytes"),
            ));
            *off += 8;
        }
        out
    };
    let bin_sum = read_f64s(&mut off, 256 * points);
    let sum_sq = read_f64s(&mut off, points);
    Ok(CpaCheckpoint {
        model,
        points,
        bin_count,
        bin_sum,
        sum_sq,
        traces,
    })
}

/// Durable state of a streaming campaign at a committed window
/// boundary: exact-once window accounting, the per-slot progress
/// curves evaluated so far, and one nested [`CpaCheckpoint`] per
/// accumulator slot.
///
/// The `fingerprint` binds the checkpoint to the campaign parameters
/// that determine the capture stream (circuit, sensor source, seed,
/// window size, commit cadence); a resume under different parameters
/// must be refused rather than silently merged.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    /// Campaign-parameter fingerprint (see the streaming engine).
    pub fingerprint: u64,
    /// Windows fully captured, folded and committed.
    pub windows: u64,
    /// Traces those windows contributed.
    pub traces: u64,
    /// One accumulator checkpoint per attack slot.
    pub slots: Vec<CpaCheckpoint>,
    /// Per-slot progress curves (one point per commit).
    pub progress: Vec<Vec<ProgressPoint>>,
}

impl StreamCheckpoint {
    /// Internal consistency: every slot accumulator must have absorbed
    /// exactly the committed trace count, and the progress table must
    /// have one curve per slot.
    fn validate(&self) -> io::Result<()> {
        if self.slots.is_empty() {
            return Err(section_err("slots", 30, "zero accumulator slots"));
        }
        if self.progress.len() != self.slots.len() {
            return Err(section_err(
                "progress",
                32,
                format!(
                    "{} progress curves for {} slots",
                    self.progress.len(),
                    self.slots.len()
                ),
            ));
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.traces != self.traces {
                return Err(section_err(
                    "accumulators",
                    32,
                    format!(
                        "slot {i} absorbed {} traces, ledger says {} committed",
                        slot.traces, self.traces
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Serializes a [`StreamCheckpoint`] with a Fletcher-64 integrity seal
/// (layout in the module docs).
///
/// # Errors
///
/// `InvalidInput` when a field exceeds its format width (slot count,
/// per-point candidate count, progress length); otherwise propagates
/// I/O errors.
pub fn write_stream_checkpoint<W: Write>(mut sink: W, cp: &StreamCheckpoint) -> io::Result<()> {
    let invalid = |detail: String| io::Error::new(io::ErrorKind::InvalidInput, detail);
    if cp.slots.len() > usize::from(u16::MAX) {
        return Err(invalid(format!(
            "{} slots exceed the format limit",
            cp.slots.len()
        )));
    }
    if cp.progress.len() != cp.slots.len() {
        return Err(invalid(format!(
            "{} progress curves for {} slots",
            cp.progress.len(),
            cp.slots.len()
        )));
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(&STREAM_MAGIC);
    buf.extend_from_slice(&STREAM_CHECKPOINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&cp.fingerprint.to_le_bytes());
    buf.extend_from_slice(&cp.windows.to_le_bytes());
    buf.extend_from_slice(&cp.traces.to_le_bytes());
    buf.extend_from_slice(&(cp.slots.len() as u16).to_le_bytes());
    for curve in &cp.progress {
        let count = u32::try_from(curve.len()).map_err(|_| {
            invalid(format!(
                "{} progress points exceed the format limit",
                curve.len()
            ))
        })?;
        buf.extend_from_slice(&count.to_le_bytes());
        for point in curve {
            if point.peak_corr.len() > usize::from(u16::MAX) {
                return Err(invalid(format!(
                    "{} candidates exceed the format limit",
                    point.peak_corr.len()
                )));
            }
            buf.extend_from_slice(&point.traces.to_le_bytes());
            buf.extend_from_slice(&(point.peak_corr.len() as u16).to_le_bytes());
            for &r in &point.peak_corr {
                buf.extend_from_slice(&r.to_le_bytes());
            }
        }
    }
    for slot in &cp.slots {
        let mut nested = Vec::new();
        write_checkpoint(&mut nested, slot)?;
        buf.extend_from_slice(&(nested.len() as u64).to_le_bytes());
        buf.extend_from_slice(&nested);
    }
    let mut sum = Fletcher64::default();
    sum.update(&buf);
    buf.extend_from_slice(&sum.finish().to_le_bytes());
    sink.write_all(&buf)
}

/// Reads a [`StreamCheckpoint`] written by [`write_stream_checkpoint`],
/// validating the outer seal, every nested accumulator seal, and the
/// cross-slot accounting.
///
/// # Errors
///
/// `InvalidData` on any structural problem; messages name the failing
/// section and byte offset. A newer `version` is reported as an
/// incompatibility before the seal is checked.
pub fn read_stream_checkpoint<R: Read>(mut source: R) -> io::Result<StreamCheckpoint> {
    let mut data = Vec::new();
    source.read_to_end(&mut data)?;
    let len = data.len();
    if len < 32 + 8 {
        return Err(section_err(
            "header",
            len,
            format!("file is {len} bytes, the fixed header plus seal needs 40"),
        ));
    }
    if data[..4] != STREAM_MAGIC {
        return Err(section_err(
            "magic",
            0,
            format!("got {:02x?}, expected \"SLMS\"", &data[..4]),
        ));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != STREAM_CHECKPOINT_VERSION {
        return Err(section_err(
            "version",
            4,
            format!(
                "stream checkpoint version {version} is not supported (this build \
                 reads version {STREAM_CHECKPOINT_VERSION}); refusing to guess at the layout"
            ),
        ));
    }
    let seal_off = len - 8;
    let mut sum = Fletcher64::default();
    sum.update(&data[..seal_off]);
    let got = sum.finish();
    let expect = u64::from_le_bytes(data[seal_off..].try_into().expect("8 bytes"));
    if got != expect {
        return Err(section_err(
            "seal",
            seal_off,
            format!("checksum mismatch: stored {expect:#018x}, computed {got:#018x}"),
        ));
    }
    // Cursor-based reads over the sealed body.
    let body = &data[..seal_off];
    let take = |off: &mut usize, n: usize, section: &str| -> io::Result<&[u8]> {
        let end = off
            .checked_add(n)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| {
                section_err(
                    section,
                    *off,
                    format!(
                        "needs {n} bytes, only {} remain before the seal",
                        body.len() - *off
                    ),
                )
            })?;
        let slice = &body[*off..end];
        *off = end;
        Ok(slice)
    };
    let mut off = 6;
    let fingerprint = u64::from_le_bytes(take(&mut off, 8, "fingerprint")?.try_into().unwrap());
    let windows = u64::from_le_bytes(take(&mut off, 8, "windows")?.try_into().unwrap());
    let traces = u64::from_le_bytes(take(&mut off, 8, "traces")?.try_into().unwrap());
    let slots = usize::from(u16::from_le_bytes(
        take(&mut off, 2, "slots")?.try_into().unwrap(),
    ));
    let mut progress = Vec::with_capacity(slots);
    for slot in 0..slots {
        let section = "progress";
        let count = u32::from_le_bytes(take(&mut off, 4, section)?.try_into().unwrap()) as usize;
        // Cheap bound before allocating: each point needs ≥ 10 bytes.
        if count > (body.len() - off) / 10 + 1 {
            return Err(section_err(
                section,
                off - 4,
                format!("slot {slot} claims {count} progress points, file cannot hold them"),
            ));
        }
        let mut curve = Vec::with_capacity(count);
        for _ in 0..count {
            let point_traces = u64::from_le_bytes(take(&mut off, 8, section)?.try_into().unwrap());
            let cands = usize::from(u16::from_le_bytes(
                take(&mut off, 2, section)?.try_into().unwrap(),
            ));
            let raw_off = off;
            let raw = take(&mut off, cands * 8, section)?;
            let peak_corr: Vec<f64> = raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            // The seal only proves the bytes are the ones written;
            // resume code orders peaks and must never meet a NaN.
            if let Some(k) = peak_corr.iter().position(|p| !p.is_finite()) {
                return Err(section_err(
                    section,
                    raw_off + k * 8,
                    format!(
                        "slot {slot} point at {point_traces} traces: candidate {k} \
                         peak is {}, not finite",
                        peak_corr[k]
                    ),
                ));
            }
            curve.push(ProgressPoint {
                traces: point_traces,
                peak_corr,
            });
        }
        progress.push(curve);
    }
    let mut slot_cps = Vec::with_capacity(slots);
    for slot in 0..slots {
        let section = "accumulators";
        let nested_len =
            u64::from_le_bytes(take(&mut off, 8, section)?.try_into().unwrap()) as usize;
        let start = off;
        let nested = take(&mut off, nested_len, section)?;
        let cp = parse_checkpoint(nested)
            .map_err(|e| section_err(section, start, format!("nested slot {slot}: {e}")))?;
        slot_cps.push(cp);
    }
    if off != body.len() {
        return Err(section_err(
            "trailer",
            off,
            format!(
                "{} unexpected trailing bytes before the seal",
                body.len() - off
            ),
        ));
    }
    let cp = StreamCheckpoint {
        fingerprint,
        windows,
        traces,
        slots: slot_cps,
        progress,
    };
    cp.validate()?;
    Ok(cp)
}

/// Newest loadable generation recovered from a [`CheckpointLedger`],
/// with the newer generations that had to be skipped to reach it.
#[derive(Debug)]
pub struct LedgerRecovery<T> {
    /// The generation number that loaded.
    pub generation: u64,
    /// Its parsed payload.
    pub state: T,
    /// Newer generations that failed to load, newest first, with the
    /// reason each was skipped. Non-empty means the campaign degraded
    /// gracefully to an older commit.
    pub skipped: Vec<(u64, String)>,
}

/// Generations kept on disk after a commit. More than one so that a
/// torn or corrupted newest generation still leaves good fallbacks.
const LEDGER_KEEP: usize = 4;

/// An atomic, generation-numbered checkpoint store in one directory.
///
/// Payloads are opaque bytes (the streaming engine stores sealed
/// [`StreamCheckpoint`]s). Durability and recovery semantics are
/// described in the module docs.
#[derive(Debug, Clone)]
pub struct CheckpointLedger {
    dir: PathBuf,
}

impl CheckpointLedger {
    /// Opens (creating if needed) the ledger directory and sweeps any
    /// stale `.tmp` files left by a crash mid-commit.
    ///
    /// # Errors
    ///
    /// Propagates directory creation / listing failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(CheckpointLedger { dir })
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of generation `generation`.
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:016}.slmc"))
    }

    /// Generation numbers currently on disk, ascending.
    ///
    /// # Errors
    ///
    /// Propagates directory listing failures.
    pub fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(num) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".slmc"))
            {
                if let Ok(g) = num.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Commits a payload as the next generation: write-to-temp,
    /// `sync_all`, atomic rename, then prune all but the newest
    /// [`LEDGER_KEEP`] generations. Returns the new generation number.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on failure before the rename the
    /// previous generation set is untouched.
    pub fn commit(&self, payload: &[u8]) -> io::Result<u64> {
        let next = self.generations()?.last().map_or(1, |g| g + 1);
        let tmp = self.dir.join(format!("gen-{next:016}.tmp"));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(payload)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, self.generation_path(next))?;
        let gens = self.generations()?;
        if gens.len() > LEDGER_KEEP {
            for &g in &gens[..gens.len() - LEDGER_KEEP] {
                let _ = std::fs::remove_file(self.generation_path(g));
            }
        }
        Ok(next)
    }

    /// Loads the newest generation whose payload `parse` accepts,
    /// skipping (and reporting) newer torn or corrupt generations.
    ///
    /// Returns `Ok(None)` only for a genuinely empty ledger. If
    /// generations exist but none load, that is an error — restarting a
    /// campaign from scratch because every checkpoint was unreadable
    /// must be an explicit operator decision, never a silent default.
    ///
    /// # Errors
    ///
    /// Propagates directory listing failures; `InvalidData` when all
    /// present generations fail to parse.
    pub fn load_latest<T>(
        &self,
        parse: impl Fn(&[u8]) -> io::Result<T>,
    ) -> io::Result<Option<LedgerRecovery<T>>> {
        let gens = self.generations()?;
        let mut skipped = Vec::new();
        for &g in gens.iter().rev() {
            match std::fs::read(self.generation_path(g)).and_then(|bytes| parse(&bytes)) {
                Ok(state) => {
                    return Ok(Some(LedgerRecovery {
                        generation: g,
                        state,
                        skipped,
                    }))
                }
                Err(e) => skipped.push((g, e.to_string())),
            }
        }
        if skipped.is_empty() {
            Ok(None)
        } else {
            let detail: Vec<String> = skipped
                .iter()
                .map(|(g, e)| format!("gen {g}: {e}"))
                .collect();
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "no loadable checkpoint generation in {} ({})",
                    self.dir.display(),
                    detail.join("; ")
                ),
            ))
        }
    }
}

/// Replays a stored campaign into a [`crate::CpaAttack`] — the offline
/// re-analysis path.
pub fn replay_into(records: &[TraceRecord], attack: &mut crate::CpaAttack) {
    let mut buf = Vec::new();
    for r in records {
        buf.clear();
        buf.extend(r.points.iter().map(|&p| f64::from(p)));
        attack.add_trace(&r.ciphertext, &buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpaAttack, LastRoundModel};
    use proptest::prelude::*;
    use slm_aes::soft;
    use slm_pdn::noise::Rng64;

    fn sample_records(n: usize, points: usize, seed: u64) -> Vec<TraceRecord> {
        let mut rng = Rng64::new(seed);
        (0..n)
            .map(|_| {
                let mut ciphertext = [0u8; 16];
                rng.fill_bytes(&mut ciphertext);
                TraceRecord {
                    ciphertext,
                    points: (0..points).map(|_| rng.normal() as f32).collect(),
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let records = sample_records(100, 7, 1);
        let mut w = TraceWriter::new(Vec::new(), 7).unwrap();
        for r in &records {
            let pts: Vec<f64> = r.points.iter().map(|&p| f64::from(p)).collect();
            w.write_trace(&r.ciphertext, &pts).unwrap();
        }
        assert_eq!(w.count(), 100);
        let bytes = w.finish().unwrap();
        let back = read_traces(&bytes[..]).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_campaign_roundtrips() {
        let w = TraceWriter::new(Vec::new(), 3).unwrap();
        let bytes = w.finish().unwrap();
        assert!(read_traces(&bytes[..]).unwrap().is_empty());
    }

    #[test]
    fn wrong_point_count_rejected_at_write() {
        let mut w = TraceWriter::new(Vec::new(), 4).unwrap();
        let err = w.write_trace(&[0; 16], &[1.0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn corruption_detected() {
        let mut w = TraceWriter::new(Vec::new(), 2).unwrap();
        w.write_trace(&[7; 16], &[1.0, 2.0]).unwrap();
        let mut bytes = w.finish().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let err = read_traces(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let w = TraceWriter::new(Vec::new(), 1).unwrap();
        let bytes = w.finish().unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(read_traces(&bad[..]).is_err());
        let mut badv = bytes;
        badv[4] = 99;
        assert!(read_traces(&badv[..]).is_err());
    }

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let key = [3u8; 16];
        let model = LastRoundModel::paper_target();
        let mut rng = Rng64::new(21);
        let mut attack = CpaAttack::new(model, 3);
        for _ in 0..500 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            attack.add_trace(&ct, &[rng.normal(), rng.normal(), rng.normal()]);
        }
        let cp = attack.checkpoint();
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &cp).unwrap();
        let back = read_checkpoint(&bytes[..]).unwrap();
        assert_eq!(back, cp);
        let resumed = CpaAttack::resume(back).unwrap();
        assert_eq!(resumed, attack);
        assert_eq!(resumed.correlations(), attack.correlations());
    }

    #[test]
    fn checkpoint_corruption_detected() {
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &attack.checkpoint()).unwrap();
        for pos in [0usize, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                read_checkpoint(&bad[..]).is_err(),
                "corruption at byte {pos} undetected"
            );
        }
        assert!(read_checkpoint(&bytes[..bytes.len() - 3]).is_err());
        assert!(read_checkpoint(&b"SLMC"[..]).is_err());
    }

    /// Recomputes the trailing Fletcher-64 seal after a deliberate
    /// header edit, so tests can prove which check fires first.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let mut sum = Fletcher64::default();
        sum.update(&bytes[..body]);
        let digest = sum.finish().to_le_bytes();
        bytes[body..].copy_from_slice(&digest);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slm-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stream_checkpoint(points: usize) -> StreamCheckpoint {
        let key = [9u8; 16];
        let model = LastRoundModel::paper_target();
        let mut rng = Rng64::new(5);
        let mut attack = CpaAttack::new(model, points);
        for _ in 0..300 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            let samples: Vec<f64> = (0..points).map(|_| rng.normal()).collect();
            attack.add_trace(&ct, &samples);
        }
        let progress = vec![vec![
            crate::ProgressPoint {
                traces: 150,
                peak_corr: (0..256).map(|k| k as f64 / 256.0).collect(),
            },
            crate::ProgressPoint {
                traces: 300,
                peak_corr: (0..256).map(|k| k as f64 / 512.0).collect(),
            },
        ]];
        StreamCheckpoint {
            fingerprint: 0xfeed_f00d,
            windows: 2,
            traces: 300,
            slots: vec![attack.checkpoint()],
            progress,
        }
    }

    #[test]
    fn checkpoint_errors_name_section_and_offset() {
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &attack.checkpoint()).unwrap();

        let err = read_checkpoint(&bytes[..10]).unwrap_err().to_string();
        assert!(err.contains("header") && err.contains("byte 10"), "{err}");

        let mut bad = bytes.clone();
        bad[0] = b'X';
        let err = read_checkpoint(&bad[..]).unwrap_err().to_string();
        assert!(err.contains("magic") && err.contains("byte 0"), "{err}");

        // Truncation inside a named section reports that section.
        let err = read_checkpoint(&bytes[..20]).unwrap_err().to_string();
        assert!(err.contains("bin_count"), "{err}");
        let err = read_checkpoint(&bytes[..bytes.len() - 9])
            .unwrap_err()
            .to_string();
        assert!(err.contains("seal") || err.contains("sum_sq"), "{err}");

        // A flipped payload byte reports the seal with both digests.
        let mut bad = bytes.clone();
        bad[100] ^= 0x10;
        let err = read_checkpoint(&bad[..]).unwrap_err().to_string();
        assert!(err.contains("seal") && err.contains("stored"), "{err}");
    }

    #[test]
    fn future_checkpoint_version_rejected_with_clear_error() {
        // A checkpoint stamped by a newer build must fail as a version
        // incompatibility — even with a perfectly valid seal — so the
        // operator learns to upgrade rather than chasing "corruption".
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &attack.checkpoint()).unwrap();
        bytes[4..6].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        reseal(&mut bytes);
        let err = read_checkpoint(&bytes[..]).unwrap_err().to_string();
        assert!(
            err.contains("version") && err.contains("not supported"),
            "{err}"
        );
        assert!(
            !err.contains("checksum"),
            "must not misreport as corruption: {err}"
        );

        // Same contract for the streaming format.
        let mut bytes = Vec::new();
        write_stream_checkpoint(&mut bytes, &sample_stream_checkpoint(2)).unwrap();
        bytes[4..6].copy_from_slice(&(STREAM_CHECKPOINT_VERSION + 1).to_le_bytes());
        reseal(&mut bytes);
        let err = read_stream_checkpoint(&bytes[..]).unwrap_err().to_string();
        assert!(
            err.contains("version") && err.contains("not supported"),
            "{err}"
        );
    }

    #[test]
    fn stream_checkpoint_roundtrips() {
        let cp = sample_stream_checkpoint(3);
        let mut bytes = Vec::new();
        write_stream_checkpoint(&mut bytes, &cp).unwrap();
        let back = read_stream_checkpoint(&bytes[..]).unwrap();
        assert_eq!(back, cp);
        // The nested accumulator resumes to a live attack.
        let resumed = CpaAttack::resume(back.slots[0].clone()).unwrap();
        assert_eq!(resumed.traces(), 300);
    }

    #[test]
    fn stream_checkpoint_rejects_inconsistent_accounting() {
        let mut cp = sample_stream_checkpoint(2);
        cp.traces = 299; // slot accumulator says 300
        let mut bytes = Vec::new();
        write_stream_checkpoint(&mut bytes, &cp).unwrap();
        let err = read_stream_checkpoint(&bytes[..]).unwrap_err().to_string();
        assert!(err.contains("accumulators") && err.contains("299"), "{err}");
    }

    #[test]
    fn stream_checkpoint_rejects_non_finite_peaks() {
        // A sealed file can still carry a NaN or infinite peak (written
        // by a buggy or foreign producer); resume code compares peaks
        // and must never see one.
        for bad in [f64::NAN, f64::INFINITY] {
            let mut cp = sample_stream_checkpoint(2);
            cp.progress[0][1].peak_corr[7] = bad;
            let mut bytes = Vec::new();
            write_stream_checkpoint(&mut bytes, &cp).unwrap();
            let err = read_stream_checkpoint(&bytes[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("`progress`") && msg.contains("finite"),
                "{msg}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any single-byte flip of a valid checkpoint must fail to
        /// load, and any truncation must fail to load — resuming from
        /// silently wrong state is the one unacceptable outcome.
        #[test]
        fn checkpoint_any_corruption_detected(pos in any::<u32>(), bit in 0u8..8, cut in any::<u32>()) {
            static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let bytes = BYTES.get_or_init(|| {
                let attack = CpaAttack::new(LastRoundModel::paper_target(), 3);
                let mut b = Vec::new();
                write_checkpoint(&mut b, &attack.checkpoint()).unwrap();
                b
            });
            let pos = pos as usize % bytes.len();
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            prop_assert!(
                read_checkpoint(&flipped[..]).is_err(),
                "flip of bit {bit} at byte {pos} loaded"
            );
            let cut = cut as usize % bytes.len();
            prop_assert!(
                read_checkpoint(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes loaded"
            );
        }

        /// The streaming checkpoint format upholds the same contract.
        #[test]
        fn stream_checkpoint_any_corruption_detected(pos in any::<u32>(), bit in 0u8..8, cut in any::<u32>()) {
            static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let bytes = BYTES.get_or_init(|| {
                let mut b = Vec::new();
                write_stream_checkpoint(&mut b, &sample_stream_checkpoint(2)).unwrap();
                b
            });
            let pos = pos as usize % bytes.len();
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            prop_assert!(
                read_stream_checkpoint(&flipped[..]).is_err(),
                "flip of bit {bit} at byte {pos} loaded"
            );
            let cut = cut as usize % bytes.len();
            prop_assert!(
                read_stream_checkpoint(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes loaded"
            );
        }
    }

    #[test]
    fn checkpoint_every_truncation_rejected_exhaustively() {
        // Short checkpoints allow brute force over *every* truncation
        // length, complementing the sampled property above.
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 1);
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &attack.checkpoint()).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                read_checkpoint(&bytes[..cut]).is_err(),
                "truncation to {cut} of {} bytes loaded",
                bytes.len()
            );
        }
    }

    #[test]
    fn ledger_commit_load_roundtrip_and_prune() {
        let dir = scratch_dir("roundtrip");
        let ledger = CheckpointLedger::open(&dir).unwrap();
        assert!(ledger.load_latest(|b| Ok(b.to_vec())).unwrap().is_none());
        for i in 1u64..=7 {
            let gen = ledger.commit(&i.to_le_bytes()).unwrap();
            assert_eq!(gen, i);
        }
        // Pruned to the newest LEDGER_KEEP generations.
        assert_eq!(ledger.generations().unwrap(), vec![4, 5, 6, 7]);
        let rec = ledger.load_latest(|b| Ok(b.to_vec())).unwrap().unwrap();
        assert_eq!(rec.generation, 7);
        assert_eq!(rec.state, 7u64.to_le_bytes().to_vec());
        assert!(rec.skipped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_falls_back_past_torn_and_corrupt_generations() {
        let dir = scratch_dir("fallback");
        let ledger = CheckpointLedger::open(&dir).unwrap();
        for i in 1u64..=3 {
            ledger.commit(format!("payload-{i}").as_bytes()).unwrap();
        }
        // Tear the newest generation and corrupt the next.
        std::fs::write(ledger.generation_path(3), b"pay").unwrap();
        std::fs::write(ledger.generation_path(2), b"garbage-XX").unwrap();
        let parse = |b: &[u8]| -> io::Result<String> {
            let s = String::from_utf8_lossy(b);
            if s.starts_with("payload-") {
                Ok(s.into_owned())
            } else {
                Err(io::Error::new(io::ErrorKind::InvalidData, "not a payload"))
            }
        };
        let rec = ledger.load_latest(parse).unwrap().unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.state, "payload-1");
        assert_eq!(rec.skipped.len(), 2);
        assert_eq!(rec.skipped[0].0, 3);
        assert_eq!(rec.skipped[1].0, 2);

        // All generations corrupt: an explicit error, never a silent
        // fresh start.
        std::fs::write(ledger.generation_path(1), b"garbage-YY").unwrap();
        let err = ledger.load_latest(parse).unwrap_err().to_string();
        assert!(err.contains("no loadable checkpoint generation"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_sweeps_stale_tmp_files_and_ignores_them() {
        let dir = scratch_dir("tmp-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // A crash mid-commit leaves a half-written temp file behind.
        std::fs::write(dir.join("gen-0000000000000009.tmp"), b"half").unwrap();
        let ledger = CheckpointLedger::open(&dir).unwrap();
        assert!(ledger.generations().unwrap().is_empty());
        assert!(!dir.join("gen-0000000000000009.tmp").exists());
        // A fresh commit is unaffected by the swept temp file.
        assert_eq!(ledger.commit(b"x").unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_reproduces_online_attack() {
        // An attack over stored traces must equal the streaming attack.
        let key = [5u8; 16];
        let k10 = soft::key_expansion(&key)[10];
        let model = LastRoundModel::paper_target();
        let mut rng = Rng64::new(9);
        let mut online = CpaAttack::new(model, 1);
        let mut w = TraceWriter::new(Vec::new(), 1).unwrap();
        for _ in 0..1500 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            let h = f64::from(u8::from(model.hypothesis(&ct, k10[3])));
            let x = h + rng.normal_scaled(1.0);
            online.add_trace(&ct, &[x]);
            // store the f32-rounded value the file will carry, so both
            // attacks see identical data
            w.write_trace(&ct, &[f64::from(x as f32)]).unwrap();
        }
        let bytes = w.finish().unwrap();
        let records = read_traces(&bytes[..]).unwrap();
        let mut offline = CpaAttack::new(model, 1);
        replay_into(&records, &mut offline);
        assert_eq!(offline.traces(), online.traces());
        assert_eq!(offline.best_candidate().0, k10[3]);
    }
}
