//! The wire protocol: length-prefixed JSON frames and their typed
//! request/response forms.
//!
//! Every frame is a 4-byte **big-endian** payload length followed by
//! exactly that many bytes of UTF-8 JSON (one object per frame). The
//! length prefix makes framing independent of JSON content — no
//! delimiter scanning, no partial-parse states — and bounds allocation
//! up front: a prefix larger than [`MAX_FRAME`] is rejected before any
//! payload is read, so a malformed or hostile client cannot balloon the
//! daemon. See DESIGN.md §10 for the frame table.
//!
//! The frames are rendered and parsed by a typed codec (`codec.rs`):
//! `render` writes one pre-sized `String` straight from the typed
//! fields, and `parse` decodes the payload in one pass straight into
//! them, number arrays into `Vec<f64>`/`Vec<usize>`. The parser never
//! recurses past the schema's fixed depth, reads integers exactly into
//! `u64`, rejects non-finite numbers, and takes time linear in the
//! payload, so no frame can take the daemon down.

use crate::codec::{clip, Reader, Writer};
use std::io::{self, Read, Write};

/// Hard ceiling on a frame payload (64 MiB): large enough for a
/// several-million-nonzero CSR matrix in JSON, small enough that a bad
/// length prefix cannot trigger a giant allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean EOF at a frame boundary
/// (the peer closed between requests — not an error).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// How a request's system reaches the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSpec {
    /// The workspace generator's 2D 5-point Laplacian on a `g` x `g`
    /// grid — a few bytes on the wire instead of a serialized matrix,
    /// and reproducible client-side for bit-identity checks.
    Lap2d {
        /// Grid side length (the system has `g*g` rows).
        g: usize,
    },
    /// An explicit CSR triplet (arbitrary ingested systems).
    Csr {
        /// Row count.
        n_rows: usize,
        /// Column count.
        n_cols: usize,
        /// CSR row pointers (`n_rows + 1` entries).
        row_ptr: Vec<usize>,
        /// CSR column indices.
        col_idx: Vec<usize>,
        /// CSR values.
        values: Vec<f64>,
    },
}

impl MatrixSpec {
    /// Row count of the described system. A `lap2d` grid whose `g*g`
    /// overflows saturates at `usize::MAX`, which no row cap admits.
    pub fn n_rows(&self) -> usize {
        self.checked_rows().unwrap_or(usize::MAX)
    }

    /// Row count, or `None` when a `lap2d` grid's `g*g` overflows.
    pub(crate) fn checked_rows(&self) -> Option<usize> {
        match self {
            MatrixSpec::Lap2d { g } => g.checked_mul(*g),
            MatrixSpec::Csr { n_rows, .. } => Some(*n_rows),
        }
    }

    fn write(&self, w: &mut Writer) {
        w.open("matrix");
        match self {
            MatrixSpec::Lap2d { g } => {
                w.str("gen", "lap2d");
                w.u64("g", *g as u64);
            }
            MatrixSpec::Csr { n_rows, n_cols, row_ptr, col_idx, values } => {
                w.u64("n_rows", *n_rows as u64);
                w.u64("n_cols", *n_cols as u64);
                w.usizes("row_ptr", row_ptr);
                w.usizes("col_idx", col_idx);
                w.f64s("values", values);
            }
        }
        w.close();
    }

    /// Rendered size estimate: ~24 bytes per float, ~8 per index.
    fn frame_bytes(&self) -> usize {
        match self {
            MatrixSpec::Lap2d { .. } => 64,
            MatrixSpec::Csr { row_ptr, col_idx, values, .. } => {
                96 + 8 * (row_ptr.len() + col_idx.len()) + 24 * values.len()
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<MatrixSpec, String> {
        let (mut gen, mut g, mut n_rows, mut n_cols) = (None, None, None, None);
        let (mut row_ptr, mut col_idx, mut values) = (None, None, None);
        r.object(|r, key| match key {
            "gen" => put(&mut gen, key, r.string()),
            "g" => put(&mut g, key, r.usize()),
            "n_rows" => put(&mut n_rows, key, r.usize()),
            "n_cols" => put(&mut n_cols, key, r.usize()),
            "row_ptr" => put(&mut row_ptr, key, r.array(Reader::usize)),
            "col_idx" => put(&mut col_idx, key, r.array(Reader::usize)),
            "values" => put(&mut values, key, r.array(Reader::f64)),
            _ => r.skip(),
        })?;
        if let Some(kind) = gen {
            return match &*kind {
                "lap2d" => Ok(MatrixSpec::Lap2d { g: g.ok_or("lap2d needs integer `g`")? }),
                other => Err(format!("unknown generator `{}`", clip(other))),
            };
        }
        Ok(MatrixSpec::Csr {
            n_rows: n_rows.ok_or("matrix missing `n_rows`")?,
            n_cols: n_cols.ok_or("matrix missing `n_cols`")?,
            row_ptr: row_ptr.ok_or("matrix missing `row_ptr`")?,
            col_idx: col_idx.ok_or("matrix missing `col_idx`")?,
            values: values.ok_or("matrix missing `values`")?,
        })
    }
}

/// Stores one decoded field, naming it in any error. A repeated key is
/// an error rather than a silent overwrite.
fn put<T>(slot: &mut Option<T>, key: &str, v: Result<T, String>) -> Result<(), String> {
    let v = v.map_err(|e| format!("bad `{key}`: {e}"))?;
    match slot.replace(v) {
        None => Ok(()),
        Some(_) => Err(format!("duplicate key `{key}`")),
    }
}

/// Which execution fabric serves the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Seeded discrete-event simulation on the connection thread —
    /// deterministic, so a cached or repeated solve is bit-identical.
    Sim,
    /// Real threads leased from the daemon's shared worker pool —
    /// nondeterministic interleaving, converges to tolerance; the only
    /// mode where deadlines/cancellation can interrupt mid-solve.
    Pooled,
}

impl Mode {
    fn as_str(self) -> &'static str {
        match self {
            Mode::Sim => "sim",
            Mode::Pooled => "pooled",
        }
    }

    fn parse(s: &str) -> Result<Mode, String> {
        match s {
            "sim" => Ok(Mode::Sim),
            "pooled" => Ok(Mode::Pooled),
            other => Err(format!("unknown mode `{}`", clip(other))),
        }
    }
}

/// One solve request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSpec {
    /// Client-chosen request id; the handle for `cancel` and the echo
    /// key in every reply.
    pub id: u64,
    /// The system matrix.
    pub matrix: MatrixSpec,
    /// Right-hand side; `None` means `b = A·1` (exact solution = ones).
    pub rhs: Option<Vec<f64>>,
    /// Relative-residual stopping tolerance.
    pub tol: f64,
    /// Global iteration budget.
    pub max_iters: usize,
    /// Inner sweeps per block update (the paper's `k` in async-(k)).
    pub local_iters: usize,
    /// Row-partition block size.
    pub block: usize,
    /// Execution fabric.
    pub mode: Mode,
    /// Requested lease size for [`Mode::Pooled`] (clamped to the pool).
    pub workers: usize,
    /// Per-request deadline, milliseconds from admission.
    pub deadline_ms: Option<u64>,
    /// RNG seed for [`Mode::Sim`] scheduling.
    pub seed: u64,
    /// Whether the daemon may serve/populate its result cache.
    pub cache: bool,
}

impl SolveSpec {
    /// A small, fully-defaulted spec for tests and examples.
    pub fn lap2d(id: u64, g: usize) -> SolveSpec {
        SolveSpec {
            id,
            matrix: MatrixSpec::Lap2d { g },
            rhs: None,
            tol: 1e-9,
            max_iters: 20_000,
            local_iters: 5,
            block: 8,
            mode: Mode::Sim,
            workers: 2,
            deadline_ms: None,
            seed: 42,
            cache: true,
        }
    }

    /// The `solve` frame payload, rendered from a borrowed spec (the
    /// client sends it without building a [`Request`]).
    pub(crate) fn render(&self) -> String {
        let rhs_len = self.rhs.as_ref().map_or(0, Vec::len);
        let mut w = Writer::new("solve", 256 + self.matrix.frame_bytes() + 24 * rhs_len);
        w.u64("id", self.id);
        self.matrix.write(&mut w);
        w.f64("tol", self.tol);
        w.u64("max_iters", self.max_iters as u64);
        w.u64("local_iters", self.local_iters as u64);
        w.u64("block", self.block as u64);
        w.str("mode", self.mode.as_str());
        w.u64("workers", self.workers as u64);
        w.u64("seed", self.seed);
        w.bool("cache", self.cache);
        if let Some(rhs) = &self.rhs {
            w.f64s("rhs", rhs);
        }
        if let Some(d) = self.deadline_ms {
            w.u64("deadline_ms", d);
        }
        w.finish()
    }
}

/// A client → daemon frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a solve.
    Solve(SolveSpec),
    /// Cancel the in-flight solve with this id (from any connection).
    Cancel {
        /// The id the solve was submitted under.
        id: u64,
    },
    /// Liveness probe.
    Ping,
    /// Begin graceful drain (the SIGTERM-style frame).
    Shutdown,
}

impl Request {
    /// Renders the frame payload.
    pub fn render(&self) -> String {
        match self {
            Request::Ping => Writer::new("ping", 16).finish(),
            Request::Shutdown => Writer::new("shutdown", 20).finish(),
            Request::Cancel { id } => {
                let mut w = Writer::new("cancel", 48);
                w.u64("id", *id);
                w.finish()
            }
            Request::Solve(s) => s.render(),
        }
    }

    /// Parses a frame payload. Keys may come in any order; unknown keys
    /// are skipped and a `null` value counts as absent.
    pub fn parse(payload: &str) -> Result<Request, String> {
        let (mut ty, mut id, mut matrix, mut rhs, mut tol) = (None, None, None, None, None);
        let (mut max_iters, mut local_iters, mut block, mut mode) = (None, None, None, None);
        let (mut workers, mut deadline_ms, mut seed, mut cache) = (None, None, None, None);
        let mut r = Reader::new(payload);
        r.object(|r, key| match key {
            "type" => put(&mut ty, key, r.string()),
            "id" => put(&mut id, key, r.u64()),
            // The matrix's own errors already name their field.
            "matrix" => MatrixSpec::read(r).and_then(|m| put(&mut matrix, key, Ok(m))),
            "rhs" => put(&mut rhs, key, r.array(Reader::f64)),
            "tol" => put(&mut tol, key, r.f64()),
            "max_iters" => put(&mut max_iters, key, r.usize()),
            "local_iters" => put(&mut local_iters, key, r.usize()),
            "block" => put(&mut block, key, r.usize()),
            "mode" => put(&mut mode, key, r.string().and_then(|m| Mode::parse(&m))),
            "workers" => put(&mut workers, key, r.usize()),
            "deadline_ms" => put(&mut deadline_ms, key, r.u64()),
            "seed" => put(&mut seed, key, r.u64()),
            "cache" => put(&mut cache, key, r.bool()),
            _ => r.skip(),
        })?;
        r.end()?;
        match &*ty.ok_or("frame missing `type`")? {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "cancel" => Ok(Request::Cancel { id: id.ok_or("cancel needs `id`")? }),
            "solve" => Ok(Request::Solve(SolveSpec {
                id: id.ok_or("solve needs `id`")?,
                matrix: matrix.ok_or("solve needs `matrix`")?,
                rhs,
                tol: tol.ok_or("solve needs `tol`")?,
                max_iters: max_iters.ok_or("solve needs `max_iters`")?,
                local_iters: local_iters.unwrap_or(1),
                block: block.ok_or("solve needs `block`")?,
                mode: mode.unwrap_or(Mode::Sim),
                workers: workers.unwrap_or(1),
                deadline_ms,
                seed: seed.unwrap_or(0),
                cache: cache.unwrap_or(true),
            })),
            other => Err(format!("unknown request type `{}`", clip(other))),
        }
    }
}

/// A daemon → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The solve finished.
    Done {
        /// Echoed request id.
        id: u64,
        /// Solution vector.
        x: Vec<f64>,
        /// Iterations performed.
        iterations: usize,
        /// Whether the tolerance was reached.
        converged: bool,
        /// Final relative residual.
        final_residual: f64,
        /// Served from the result cache without solving.
        cached: bool,
        /// Coalesced onto an identical in-flight solve (single-flight).
        coalesced: bool,
        /// Chaos faults were injected into this request (`--chaos`).
        chaos: bool,
    },
    /// Shed by admission control; retry after the hinted delay.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Backoff hint from the daemon's recent-solve-time estimate.
        retry_after_ms: u64,
    },
    /// Client cancellation observed mid-solve.
    Cancelled {
        /// Echoed request id.
        id: u64,
        /// Partial global iterations at the stop.
        iterations: usize,
    },
    /// The per-request deadline expired mid-solve.
    DeadlineExceeded {
        /// Echoed request id.
        id: u64,
        /// Partial global iterations at the stop.
        iterations: usize,
    },
    /// The request failed (validation, non-convergence, contained
    /// panic); the daemon itself is fine.
    Failed {
        /// Echoed request id.
        id: u64,
        /// Human-readable cause.
        error: String,
    },
    /// Acknowledgement for `cancel`.
    Ok,
    /// Reply to `ping`.
    Pong,
    /// The daemon is draining and accepts no new solves.
    ShuttingDown,
}

impl Response {
    /// Renders the frame payload.
    pub fn render(&self) -> String {
        // Every reply but the three acknowledgements echoes its id first.
        let with_id = |ty: &str, id: u64, capacity: usize| {
            let mut w = Writer::new(ty, capacity);
            w.u64("id", id);
            w
        };
        let w = match self {
            Response::Ok => Writer::new("ok", 16),
            Response::Pong => Writer::new("pong", 16),
            Response::ShuttingDown => Writer::new("shutting_down", 32),
            Response::Overloaded { id, retry_after_ms } => {
                let mut w = with_id("overloaded", *id, 64);
                w.u64("retry_after_ms", *retry_after_ms);
                w
            }
            Response::Cancelled { id, iterations } => {
                let mut w = with_id("cancelled", *id, 64);
                w.u64("iterations", *iterations as u64);
                w
            }
            Response::DeadlineExceeded { id, iterations } => {
                let mut w = with_id("deadline_exceeded", *id, 64);
                w.u64("iterations", *iterations as u64);
                w
            }
            Response::Failed { id, error } => {
                let mut w = with_id("failed", *id, 64 + 2 * error.len());
                w.str("error", error);
                w
            }
            Response::Done {
                id, x, iterations, converged, final_residual, cached, coalesced, chaos,
            } => {
                let mut w = with_id("done", *id, 160 + 24 * x.len());
                w.u64("iterations", *iterations as u64);
                w.bool("converged", *converged);
                w.f64("final_residual", *final_residual);
                w.bool("cached", *cached);
                w.bool("coalesced", *coalesced);
                w.bool("chaos", *chaos);
                w.f64s("x", x);
                w
            }
        };
        w.finish()
    }

    /// Parses a frame payload (same key rules as [`Request::parse`]).
    pub fn parse(payload: &str) -> Result<Response, String> {
        let (mut ty, mut id, mut x, mut iterations, mut converged) = (None, None, None, None, None);
        let (mut final_residual, mut cached, mut coalesced, mut chaos) = (None, None, None, None);
        let (mut retry_after_ms, mut error) = (None, None);
        let mut r = Reader::new(payload);
        r.object(|r, key| match key {
            "type" => put(&mut ty, key, r.string()),
            "id" => put(&mut id, key, r.u64()),
            "x" => put(&mut x, key, r.array(Reader::f64)),
            "iterations" => put(&mut iterations, key, r.usize()),
            "converged" => put(&mut converged, key, r.bool()),
            "final_residual" => put(&mut final_residual, key, r.f64()),
            "cached" => put(&mut cached, key, r.bool()),
            "coalesced" => put(&mut coalesced, key, r.bool()),
            "chaos" => put(&mut chaos, key, r.bool()),
            "retry_after_ms" => put(&mut retry_after_ms, key, r.u64()),
            "error" => put(&mut error, key, r.string()),
            _ => r.skip(),
        })?;
        r.end()?;
        let id = || id.ok_or("missing `id`");
        let iters = || iterations.ok_or("missing `iterations`");
        match &*ty.ok_or("frame missing `type`")? {
            "ok" => Ok(Response::Ok),
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown),
            "overloaded" => Ok(Response::Overloaded {
                id: id()?,
                retry_after_ms: retry_after_ms.ok_or("overloaded needs `retry_after_ms`")?,
            }),
            "cancelled" => Ok(Response::Cancelled { id: id()?, iterations: iters()? }),
            "deadline_exceeded" => {
                Ok(Response::DeadlineExceeded { id: id()?, iterations: iters()? })
            }
            "failed" => Ok(Response::Failed {
                id: id()?,
                error: error.ok_or("failed needs `error`")?.into_owned(),
            }),
            "done" => Ok(Response::Done {
                id: id()?,
                iterations: iters()?,
                converged: converged.ok_or("missing `converged`")?,
                final_residual: final_residual.unwrap_or(f64::NAN),
                cached: cached.unwrap_or(false),
                coalesced: coalesced.unwrap_or(false),
                chaos: chaos.unwrap_or(false),
                x: x.ok_or("missing `x`")?,
            }),
            other => Err(format!("unknown response type `{}`", clip(other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"a\":1}");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF is Ok(None)");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"whatever");
        assert!(read_frame(&mut &buf[..]).unwrap_err().to_string().contains("exceeds cap"));
    }

    #[test]
    fn requests_round_trip() {
        let mut spec = SolveSpec::lap2d(7, 8);
        spec.rhs = Some(vec![1.0, -2.5]);
        spec.deadline_ms = Some(250);
        spec.mode = Mode::Pooled;
        for req in [
            Request::Solve(spec),
            Request::Cancel { id: 9 },
            Request::Ping,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.render()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Done {
                id: 3,
                x: vec![1.0, 0.1 + 0.2],
                iterations: 120,
                converged: true,
                final_residual: 3.2e-10,
                cached: true,
                coalesced: false,
                chaos: false,
            },
            Response::Overloaded { id: 4, retry_after_ms: 35 },
            Response::Cancelled { id: 5, iterations: 17 },
            Response::DeadlineExceeded { id: 6, iterations: 90 },
            Response::Failed { id: 7, error: "bad \"matrix\"".into() },
            Response::Ok,
            Response::Pong,
            Response::ShuttingDown,
        ] {
            assert_eq!(Response::parse(&resp.render()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn explicit_csr_matrices_survive_the_wire() {
        let m = MatrixSpec::Csr {
            n_rows: 2,
            n_cols: 2,
            row_ptr: vec![0, 1, 2],
            col_idx: vec![0, 1],
            values: vec![4.0, 4.0],
        };
        let req = Request::Solve(SolveSpec { matrix: m, ..SolveSpec::lap2d(1, 2) });
        assert_eq!(Request::parse(&req.render()).unwrap(), req);
    }
}
