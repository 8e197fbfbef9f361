//! FastTrack-style happens-before shadow state for the **data plane**.
//!
//! The model explorer (PR 4) audits the control-plane atomics: tickets,
//! stop flag, elections. What it cannot see is the f64 payload data those
//! atomics are supposed to order — `AtomicF64Vec` components,
//! `ResidualSlots`' Relaxed value bits under a Release epoch, halo stage
//! copies, per-worker scratch. This module is the shadow state that
//! closes the gap: per-thread vector clocks, per-cell release clocks, and
//! per-data-cell bounded write histories, driven by hooks wired into
//!
//! * the facade itself (`real.rs` under `--features sanitize`,
//!   `model_impl::cell` under `--features model`): every
//!   `Release`-flavoured operation joins the releasing thread's clock
//!   into the cell's *sync clock*; every `Acquire`-flavoured operation
//!   joins the cell's sync clock back into the acquiring thread — the
//!   standard vector-clock algebra of FastTrack (Flanagan & Freund), kept
//!   deliberately simple because only a handful of cells are sync cells;
//! * the data-plane structures in abr-gpu (`residual.rs`, `xview.rs`,
//!   `halo.rs`, `kernel.rs`, `persistent.rs`), which classify each access
//!   with an [`Access`] kind so the detector knows which races are
//!   *declared* (stale iterate reads — the algorithm's entire point) and
//!   which would be bugs (an unpublished `ResidualSlots` value read, two
//!   writers inside one in-flight block region).
//!
//! # Modes
//!
//! Under `--features model` the hooks fire from the explorer's virtual
//! threads and reflect the *actual* synchronizes-with edges of the
//! explored interleaving (an `Acquire` load only joins when it really
//! read a release-written entry). Under `--features sanitize` the hooks
//! fire from real threads around the real atomic ops: release-side hooks
//! run *before* the operation and acquire-side hooks *after*, so a real
//! load that observed a release implies the release hook already ran.
//! The sanitize mode therefore over-approximates happens-before (an
//! acquire joins the cell's whole accumulated sync clock, not the
//! specific store it read) — it can miss races, never invent them. A
//! mutation that *removes* an ordering (`Release` → `Relaxed`) removes
//! the hook with it, which is exactly what the mutation tests check.
//!
//! # What the detector checks
//!
//! * [`Access::WriteExcl`] — this write must happen-after every recorded
//!   write by *other* threads (per-block component stores under the
//!   in-flight flag, scratch claims). Violation: [`RaceKind::ConflictingWrite`].
//! * [`Access::ReadPublished`] — this read must happen-after at least one
//!   recorded write (the `ResidualSlots` value read after a warm
//!   `Acquire` epoch). Violation: [`RaceKind::UnsyncedPublishedRead`].
//! * [`Access::WriteRacy`] / [`Access::ReadRacy`] — declared racy
//!   (halo stage copies, mid-solve iterate reads); recorded but never
//!   flagged.
//! * Region discipline — a halo refresh is elect → copy → stamp in one
//!   thread's program order. [`on_stamp`] verifies the stamping thread
//!   recorded a copy after its election. Violation:
//!   [`RaceKind::StampWithoutCopy`].
//!
//! # Scope and limitations
//!
//! Shadow state is keyed by cell *address* ([`id_of`]), which keeps the
//! facade's zero-cost layout intact. Exclusive resets
//! (`set_exclusive`, `reset_from`) clear a cell's shadow — the detector
//! assumes pre-spawn initialisation flows through exclusive borrows, as
//! the executors' workspace reuse already does. Data-cell write
//! histories are bounded (the newest [`WRITE_WINDOW`] writes); an
//! overflowing window conservatively suppresses checks on that cell
//! rather than reporting stale evidence. Checks only run inside a
//! [`session`]; outside one every hook is a single relaxed-load test of
//! a global flag.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering as StdOrdering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// How a data-plane access participates in the happens-before check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Declared-racy read (stale iterate reads, snapshot copies). Never
    /// flagged — staleness is the algorithm's contract.
    ReadRacy,
    /// A read that the protocol claims is ordered after a publication
    /// (e.g. a `ResidualSlots` value read behind an `Acquire` epoch).
    /// Must be covered by at least one recorded write.
    ReadPublished,
    /// A write that must be exclusive: every prior write by another
    /// thread must happen-before it (block commits under the in-flight
    /// flag, scratch claims).
    WriteExcl,
    /// Declared-racy write (halo stage copies: winners of successive
    /// epochs may copy concurrently by design). Recorded, never flagged.
    WriteRacy,
}

/// The class of a detected race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// A [`Access::ReadPublished`] read with no happens-before-ordered
    /// write to justify the value it returned.
    UnsyncedPublishedRead,
    /// A [`Access::WriteExcl`] write not ordered after another thread's
    /// recorded write to the same cell.
    ConflictingWrite,
    /// A freshness stamp recorded without a same-thread stage copy after
    /// the election it belongs to.
    StampWithoutCopy,
}

/// One detected happens-before violation.
#[derive(Debug, Clone)]
pub struct Race {
    /// The violation class.
    pub kind: RaceKind,
    /// The shadow key ([`id_of`]) of the cell or region involved.
    pub cell: usize,
    /// Human-readable evidence (thread slots and clocks).
    pub msg: String,
}

/// Newest writes remembered per data cell; older evidence is dropped and
/// the cell's checks are conservatively suppressed from then on.
const WRITE_WINDOW: usize = 8;

/// At most this many races are recorded per session (the first ones are
/// the informative ones; a broken ordering in a hot loop would otherwise
/// build an unbounded report).
const MAX_RACES: usize = 64;

type Vc = Vec<u64>;

fn vc_get(vc: &[u64], slot: usize) -> u64 {
    vc.get(slot).copied().unwrap_or(0)
}

fn vc_join(into: &mut Vc, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (i, &c) in from.iter().enumerate() {
        if into[i] < c {
            into[i] = c;
        }
    }
}

#[derive(Default)]
struct CellShadow {
    /// Accumulated release clock: the join of every releasing thread's
    /// vector clock at its release operations on this cell.
    sync_clock: Vc,
}

#[derive(Default)]
struct DataShadow {
    /// Newest recorded writes, as `(slot, clock)` pairs.
    writes: Vec<(usize, u64)>,
    /// The window dropped evidence; suppress checks rather than report
    /// against an incomplete history.
    overflow: bool,
}

#[derive(Default)]
struct RegionShadow {
    /// Per-slot clock of the last election won for this region.
    elected: HashMap<usize, u64>,
    /// Per-slot clock of the last completed copy into this region.
    copied: HashMap<usize, u64>,
}

#[derive(Default)]
struct State {
    /// Session generation; bumping it invalidates every thread slot.
    gen: u64,
    /// Per-slot vector clocks.
    threads: Vec<Vc>,
    /// Sync-cell shadows (release clocks), keyed by address.
    cells: HashMap<usize, CellShadow>,
    /// Data-cell shadows (write histories), keyed by address.
    data: HashMap<usize, DataShadow>,
    /// Region shadows (halo elect/copy/stamp discipline).
    regions: HashMap<usize, RegionShadow>,
    races: Vec<Race>,
}

/// Fast path: hooks are free when no session is active.
static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<Mutex<State>> = OnceLock::new();
static SESSION: OnceLock<Mutex<()>> = OnceLock::new();

std::thread_local! {
    /// `(generation, slot)` of this thread's registration; a stale
    /// generation means re-register.
    static SLOT: std::cell::Cell<(u64, usize)> = const { std::cell::Cell::new((0, usize::MAX)) };
}

fn state() -> MutexGuard<'static, State> {
    STATE
        .get_or_init(|| Mutex::new(State::default()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Whether a sanitizer session is currently running (cheap relaxed load).
#[inline]
pub fn is_active() -> bool {
    ENABLED.load(StdOrdering::Relaxed)
}

/// The shadow key of a cell or region: its address. Stable for the
/// lifetime of the owning allocation; exclusive resets clear the shadow
/// entry so storage reuse across solves cannot leak stale evidence.
#[inline]
pub fn id_of<T>(x: &T) -> usize {
    x as *const T as usize
}

/// Registers (or refreshes) the calling thread's slot and advances its
/// own clock by one; returns `(slot, new_clock)`.
fn tick(st: &mut State) -> (usize, u64) {
    let gen = st.gen;
    let slot = SLOT.with(|s| {
        let (g, slot) = s.get();
        if g == gen && slot != usize::MAX {
            slot
        } else {
            let slot = st.threads.len();
            // Own component starts at 1 so an unsynchronized thread's
            // writes are never accidentally "covered" by a fresh VC of
            // zeros.
            let mut vc = vec![0; slot + 1];
            vc[slot] = 1;
            st.threads.push(vc);
            s.set((gen, slot));
            slot
        }
    });
    let vc = &mut st.threads[slot];
    if vc.len() <= slot {
        vc.resize(slot + 1, 0);
    }
    vc[slot] += 1;
    (slot, vc[slot])
}

fn report(st: &mut State, kind: RaceKind, cell: usize, msg: String) {
    if st.races.len() < MAX_RACES {
        st.races.push(Race { kind, cell, msg });
    }
}

/// Runs `f` with the detector armed and returns its result together with
/// every race detected while it ran. Sessions are serialized process-wide
/// (concurrent test functions queue up); entering a session clears all
/// shadow state and invalidates thread slots from earlier sessions.
pub fn session<R>(f: impl FnOnce() -> R) -> (R, Vec<Race>) {
    let _serial = SESSION
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    {
        let mut st = state();
        st.gen += 1;
        st.threads.clear();
        st.cells.clear();
        st.data.clear();
        st.regions.clear();
        st.races.clear();
    }
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            ENABLED.store(false, StdOrdering::SeqCst);
        }
    }
    let disarm = Disarm;
    ENABLED.store(true, StdOrdering::SeqCst);
    let r = f();
    drop(disarm);
    let races = std::mem::take(&mut state().races);
    (r, races)
}

/// Hook: the calling thread performed a `Release`-flavoured operation on
/// the sync cell `cell` — join its clock into the cell's sync clock.
/// In sanitize mode this must run *before* the real operation.
#[inline]
pub fn on_release(cell: usize) {
    if !is_active() {
        return;
    }
    let mut st = state();
    let (slot, _) = tick(&mut st);
    let vc = st.threads[slot].clone();
    vc_join(&mut st.cells.entry(cell).or_default().sync_clock, &vc);
}

/// Hook: the calling thread performed an `Acquire`-flavoured operation on
/// the sync cell `cell` — join the cell's sync clock into its own.
/// In sanitize mode this must run *after* the real operation.
#[inline]
pub fn on_acquire(cell: usize) {
    if !is_active() {
        return;
    }
    let mut st = state();
    let (slot, _) = tick(&mut st);
    let Some(sync) = st.cells.get(&cell).map(|c| c.sync_clock.clone()) else {
        return;
    };
    vc_join(&mut st.threads[slot], &sync);
}

/// Hook: a data-plane read of `cell`, classified by `kind`.
#[inline]
pub fn on_data_read(cell: usize, kind: Access) {
    if !is_active() || kind != Access::ReadPublished {
        return;
    }
    let mut st = state();
    let (slot, _) = tick(&mut st);
    let Some(d) = st.data.get(&cell) else {
        return; // never written (or exclusively reset): the initial value
    };
    if d.overflow || d.writes.is_empty() {
        return;
    }
    let vc = &st.threads[slot];
    let covered = d.writes.iter().any(|&(ws, wc)| vc_get(vc, ws) >= wc);
    if !covered {
        let writes = d.writes.clone();
        report(
            &mut st,
            RaceKind::UnsyncedPublishedRead,
            cell,
            format!(
                "published read by thread slot {slot} covers none of the \
                 recorded writes {writes:?} — the publication edge is missing"
            ),
        );
    }
}

/// Hook: a data-plane write of `cell`, classified by `kind`.
#[inline]
pub fn on_data_write(cell: usize, kind: Access) {
    if !is_active() {
        return;
    }
    let mut st = state();
    let (slot, clock) = tick(&mut st);
    let vc = st.threads[slot].clone();
    let d = st.data.entry(cell).or_default();
    if kind == Access::WriteExcl && !d.overflow {
        let conflict = d
            .writes
            .iter()
            .find(|&&(ws, wc)| ws != slot && vc_get(&vc, ws) < wc)
            .copied();
        if let Some((ws, wc)) = conflict {
            report(
                &mut st,
                RaceKind::ConflictingWrite,
                cell,
                format!(
                    "exclusive write by thread slot {slot} does not happen-after \
                     thread slot {ws}'s write at clock {wc} — the hand-off edge is missing"
                ),
            );
        }
    }
    let d = st.data.entry(cell).or_default();
    d.writes.push((slot, clock));
    if d.writes.len() > WRITE_WINDOW {
        d.writes.remove(0);
        d.overflow = true;
    }
}

/// Hook: the calling thread won a refresh election for `region`.
#[inline]
pub fn on_elect(region: usize) {
    if !is_active() {
        return;
    }
    let mut st = state();
    let (slot, clock) = tick(&mut st);
    st.regions.entry(region).or_default().elected.insert(slot, clock);
}

/// Hook: the calling thread completed a stage copy into `region`.
#[inline]
pub fn on_copy(region: usize) {
    if !is_active() {
        return;
    }
    let mut st = state();
    let (slot, clock) = tick(&mut st);
    st.regions.entry(region).or_default().copied.insert(slot, clock);
}

/// Hook: the calling thread stamped `region`'s freshness watermark. The
/// stamp must follow a same-thread copy that followed the election.
#[inline]
pub fn on_stamp(region: usize) {
    if !is_active() {
        return;
    }
    let mut st = state();
    let (slot, _) = tick(&mut st);
    let Some(r) = st.regions.get(&region) else { return };
    let Some(&elected) = r.elected.get(&slot) else {
        return; // stamp outside an observed election: out of scope
    };
    let copied = r.copied.get(&slot).copied().unwrap_or(0);
    if copied < elected {
        report(
            &mut st,
            RaceKind::StampWithoutCopy,
            region,
            format!(
                "thread slot {slot} stamped a refresh it was elected for at clock \
                 {elected} without completing a stage copy (last copy clock {copied})"
            ),
        );
    }
}

/// Hook: `cell` was reset through an exclusive borrow — its history is
/// gone, so drop the shadow with it (both sync and data namespaces).
#[inline]
pub fn on_reset(cell: usize) {
    if !is_active() {
        return;
    }
    let mut st = state();
    st.cells.remove(&cell);
    st.data.remove(&cell);
    st.regions.remove(&cell);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Distinct dummy addresses; the shadow only ever compares keys.
    const CELL: usize = 0x1000;
    const DATA: usize = 0x2000;
    const REGION: usize = 0x3000;

    #[test]
    fn hooks_are_inert_outside_sessions() {
        // Keep other tests' sessions out while these hooks run: an armed
        // session would record them as its own accesses and report
        // races its test did not cause.
        let _serial = SESSION
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        on_release(CELL);
        on_acquire(CELL);
        on_data_write(DATA, Access::WriteExcl);
        on_data_read(DATA, Access::ReadPublished);
        assert!(!is_active());
    }

    #[test]
    fn release_acquire_covers_published_read() {
        let (_, races) = session(|| {
            let t = std::thread::spawn(|| {
                on_data_write(DATA, Access::WriteExcl);
                on_release(CELL);
            });
            t.join().unwrap();
            on_acquire(CELL);
            on_data_read(DATA, Access::ReadPublished);
        });
        assert!(races.is_empty(), "unexpected races: {races:?}");
    }

    #[test]
    fn missing_release_is_caught() {
        let (_, races) = session(|| {
            let t = std::thread::spawn(|| {
                on_data_write(DATA, Access::WriteExcl);
                // no release: the publication edge is gone
            });
            t.join().unwrap();
            on_acquire(CELL);
            on_data_read(DATA, Access::ReadPublished);
        });
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::UnsyncedPublishedRead);
    }

    #[test]
    fn conflicting_exclusive_writes_are_caught_and_ordered_ones_are_not() {
        let (_, races) = session(|| {
            let t = std::thread::spawn(|| {
                on_data_write(DATA, Access::WriteExcl);
            });
            t.join().unwrap();
            // No acquire edge: this exclusive write conflicts.
            on_data_write(DATA, Access::WriteExcl);
        });
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::ConflictingWrite);

        let (_, races) = session(|| {
            let t = std::thread::spawn(|| {
                on_data_write(DATA, Access::WriteExcl);
                on_release(CELL);
            });
            t.join().unwrap();
            on_acquire(CELL);
            on_data_write(DATA, Access::WriteExcl);
        });
        assert!(races.is_empty(), "ordered hand-off flagged: {races:?}");
    }

    #[test]
    fn racy_kinds_never_flag() {
        let (_, races) = session(|| {
            let t = std::thread::spawn(|| {
                on_data_write(DATA, Access::WriteRacy);
            });
            t.join().unwrap();
            on_data_write(DATA, Access::WriteRacy);
            on_data_read(DATA, Access::ReadRacy);
        });
        assert!(races.is_empty(), "declared-racy access flagged: {races:?}");
    }

    #[test]
    fn stamp_without_copy_is_caught() {
        let (_, races) = session(|| {
            on_elect(REGION);
            on_copy(REGION);
            on_stamp(REGION); // fine: elect -> copy -> stamp
            on_elect(REGION);
            on_stamp(REGION); // second refresh skipped its copy
        });
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::StampWithoutCopy);
    }

    #[test]
    fn exclusive_reset_clears_evidence() {
        let (_, races) = session(|| {
            let t = std::thread::spawn(|| {
                on_data_write(DATA, Access::WriteExcl);
            });
            t.join().unwrap();
            on_reset(DATA);
            on_data_read(DATA, Access::ReadPublished);
            on_data_write(DATA, Access::WriteExcl);
        });
        assert!(races.is_empty(), "reset did not clear shadow: {races:?}");
    }
}
