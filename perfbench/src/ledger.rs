//! Host-time ledger filled by the traced run's timing wrappers.
//!
//! Every wrapper brackets its call into the layer below with [`time`]. A
//! thread-local frame stack makes the accounting nest: a scope's *self*
//! time is its duration minus the durations of the scopes it encloses on
//! the same thread. Self time is only booked on the simulator's thread;
//! scopes that run on the service's digest workers (the abstraction
//! function fanned out at checkpoints) still count toward totals and call
//! counts, but their wall time is already inside the enclosing scope on
//! the simulator's thread, so booking it again would count it twice.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One ledger line: a layer boundary the benchmark wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// `Actor` callbacks of replica nodes.
    ReplicaActor,
    /// `Actor` callbacks of client and relay nodes.
    ClientActor,
    /// `Service::execute` / `execute_batch`.
    SvcExecute,
    /// `Service::take_checkpoint`.
    SvcCheckpoint,
    /// `Service::checkpoint_object` / `checkpoint_meta` (serving a fetch).
    SvcServe,
    /// `Service::install_checkpoint`.
    SvcInstall,
    /// `Service::reboot`.
    SvcReboot,
    /// Every other `Service` method.
    SvcOther,
    /// `Wrapper::execute`.
    WrapExecute,
    /// `Wrapper::get_obj` (the abstraction function).
    WrapGetObj,
    /// `Wrapper::put_objs` (the inverse abstraction function).
    WrapPutObjs,
    /// Every other `Wrapper` method.
    WrapOther,
    /// `NfsServer` calls into `InodeFs`.
    NfsInode,
    /// `NfsServer` calls into `FlatFs`.
    NfsFlat,
    /// `NfsServer` calls into `LogFs`.
    NfsLog,
    /// `NfsServer` calls into `BtreeFs`.
    NfsBtree,
    /// Replayed `Message::from_wire` of delivered payloads.
    ReplayDecode,
    /// Replayed `Message::to_wire` of the decoded messages.
    ReplayEncode,
    /// Replayed `Digest::of` over `signed_bytes`.
    ReplayDigest,
    /// Replayed `Authenticator::check` / `check_point`.
    ReplayMac,
}

/// Number of [`Slot`] variants.
pub const SLOTS: usize = Slot::ReplayMac as usize + 1;

/// The slots whose self times partition the simulator thread's time
/// inside actor callbacks.
pub const NESTED: [Slot; 16] = [
    Slot::ReplicaActor,
    Slot::ClientActor,
    Slot::SvcExecute,
    Slot::SvcCheckpoint,
    Slot::SvcServe,
    Slot::SvcInstall,
    Slot::SvcReboot,
    Slot::SvcOther,
    Slot::WrapExecute,
    Slot::WrapGetObj,
    Slot::WrapPutObjs,
    Slot::WrapOther,
    Slot::NfsInode,
    Slot::NfsFlat,
    Slot::NfsLog,
    Slot::NfsBtree,
];

/// The replay slots (top-level scopes outside every actor callback).
pub const REPLAY: [Slot; 4] = [
    Slot::ReplayDecode,
    Slot::ReplayEncode,
    Slot::ReplayDigest,
    Slot::ReplayMac,
];

struct Line {
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    calls: AtomicU64,
    /// Work counted at the boundary (objects, bytes, checks).
    units: AtomicU64,
}

impl Line {
    const fn new() -> Self {
        Self {
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            units: AtomicU64::new(0),
        }
    }
}

// Statistics only: no other data is published through these counters.
static LEDGER: [Line; SLOTS] = [const { Line::new() }; SLOTS];

thread_local! {
    static FRAMES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static MAIN: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as the simulator's thread (the only one whose
/// self times are booked).
pub fn mark_main_thread() {
    MAIN.with(|m| m.set(true));
}

/// Runs `f` as one call of `slot`, booking its host time.
pub fn time<R>(slot: Slot, f: impl FnOnce() -> R) -> R {
    FRAMES.with(|s| s.borrow_mut().push(0));
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    let child = FRAMES.with(|s| {
        let mut s = s.borrow_mut();
        let child = s.pop().expect("frame pushed above");
        if let Some(parent) = s.last_mut() {
            *parent += elapsed;
        }
        child
    });
    let line = &LEDGER[slot as usize];
    line.total_ns.fetch_add(elapsed, Relaxed);
    line.calls.fetch_add(1, Relaxed);
    if MAIN.with(Cell::get) {
        line.self_ns
            .fetch_add(elapsed.saturating_sub(child), Relaxed);
    }
    out
}

/// Adds `n` units of work to `slot`.
pub fn count(slot: Slot, n: u64) {
    LEDGER[slot as usize].units.fetch_add(n, Relaxed);
}

/// Zeroes every line (before a traced run).
pub fn reset() {
    for line in &LEDGER {
        line.total_ns.store(0, Relaxed);
        line.self_ns.store(0, Relaxed);
        line.calls.store(0, Relaxed);
        line.units.store(0, Relaxed);
    }
}

/// A copy of one ledger line.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reading {
    pub total_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
    pub units: u64,
}

/// Copies the whole ledger.
pub fn snapshot() -> [Reading; SLOTS] {
    std::array::from_fn(|i| {
        let line = &LEDGER[i];
        Reading {
            total_ns: line.total_ns.load(Relaxed),
            self_ns: line.self_ns.load(Relaxed),
            calls: line.calls.load(Relaxed),
            units: line.units.load(Relaxed),
        }
    })
}
