//! Semantics tests for the instrumented weak-memory runtime itself:
//! before trusting the model to audit the solver protocols, prove it
//! exhibits the behaviours it claims to (adversarial staleness under
//! `Relaxed`), forbids the ones the C++11/Rust model forbids
//! (release/acquire message passing, per-cell coherence, single-winner
//! CAS), and terminates (stale-streak liveness, step budget).
//!
//! Compiled only under the `model` feature; `cargo test -p abr-sync
//! --features model`.
#![cfg(feature = "model")]

use abr_sync::model::{explore_exhaustive, explore_seeded, spawn, OpKind};
use abr_sync::{Ordering, SyncBool, SyncUsize};
use std::sync::Arc;

/// `Relaxed` message passing is broken somewhere in the explored
/// schedules: the reader can see the flag without seeing the data. This
/// is the model's core reason to exist — it must be able to *catch* the
/// bug class the facade's `// sync:` comments claim to rule out.
#[test]
fn relaxed_message_passing_is_caught() {
    let outcome = explore_seeded(0xA51C, 400, || {
        let data = Arc::new(SyncUsize::new(0));
        let flag = Arc::new(SyncBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let writer = spawn(move || {
            d2.store(42, Ordering::Relaxed); // sync: test fixture — intentionally unordered
            f2.store(true, Ordering::Relaxed); // sync: test fixture — intentionally unordered
        });
        if flag.load(Ordering::Relaxed) {
            // sync: test fixture — intentionally unordered
            assert_eq!(data.load(Ordering::Relaxed), 42, "flag visible but data stale");
            // sync: ^ test fixture — the stale read is the point
        }
        writer.join();
    });
    let v = outcome.assert_violation();
    assert!(v.message.contains("data stale"), "unexpected violation: {}", v.message);
}

/// The same shape with a `Release` store / `Acquire` load pair must be
/// clean under both seeded and bounded-exhaustive exploration: reading
/// the flag entry merges the writer's view, so the data read is forced
/// to the latest entry.
#[test]
fn release_acquire_message_passing_holds() {
    let body = || {
        let data = Arc::new(SyncUsize::new(0));
        let flag = Arc::new(SyncBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let writer = spawn(move || {
            d2.store(42, Ordering::Relaxed); // sync: ordered by the Release store below
            f2.store(true, Ordering::Release); // sync: publishes the data store
        });
        if flag.load(Ordering::Acquire) {
            // sync: pairs with the writer's Release store
            assert_eq!(data.load(Ordering::Relaxed), 42);
            // sync: ^ acquire edge above already ordered this read
        }
        writer.join();
    };
    explore_seeded(0xBEEF, 400, body).assert_ok();
    let ex = explore_exhaustive(3, 20_000, body);
    assert!(ex.complete, "exhaustive run hit the schedule cap at {}", ex.schedules);
    ex.assert_ok();
}

/// Per-cell coherence: even fully `Relaxed`, one thread's successive
/// reads of a single cell never go backwards in modification order.
#[test]
fn relaxed_reads_are_coherent_per_cell() {
    explore_seeded(0xC0DE, 300, || {
        let cell = Arc::new(SyncUsize::new(0));
        let c2 = Arc::clone(&cell);
        let writer = spawn(move || {
            for v in 1..=5 {
                c2.store(v, Ordering::Relaxed); // sync: test fixture — coherence needs no ordering
            }
        });
        let mut prev = 0;
        for _ in 0..8 {
            let v = cell.load(Ordering::Relaxed); // sync: test fixture — coherence needs no ordering
            assert!(v >= prev, "coherence violated: read {v} after {prev}");
            prev = v;
        }
        writer.join();
    })
    .assert_ok();
}

/// A CAS from the shared initial value has exactly one winner, because
/// RMWs always read the modification-order tail.
#[test]
fn cas_election_has_single_winner() {
    let body = || {
        let slot = Arc::new(SyncUsize::new(0));
        let wins = Arc::new(SyncUsize::new(0));
        let handles: Vec<_> = (1..=3)
            .map(|id| {
                let (s, w) = (Arc::clone(&slot), Arc::clone(&wins));
                spawn(move || {
                    if s.compare_exchange(0, id, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
                        // sync: test fixture — single-winner property is
                        // ordering-independent (RMW atomicity)
                        w.fetch_add(1, Ordering::Relaxed); // sync: test tally only
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(wins.load(Ordering::Relaxed), 1, "CAS election had multiple winners");
        // sync: ^ read after joins; join edges make it exact
    };
    explore_seeded(0x5EED, 500, body).assert_ok();
    explore_exhaustive(2, 50_000, body).assert_ok();
}

/// `join` merges the child's final view into the parent: a fully
/// `Relaxed` write before the child exits is visible after `join`.
#[test]
fn join_merges_child_view() {
    explore_seeded(0x0101, 300, || {
        let data = Arc::new(SyncUsize::new(0));
        let d2 = Arc::clone(&data);
        let child = spawn(move || {
            d2.store(7, Ordering::Relaxed); // sync: ordered by the join edge
        });
        child.join();
        assert_eq!(data.load(Ordering::Relaxed), 7, "join did not synchronize");
        // sync: ^ join edge above already ordered this read
    })
    .assert_ok();
}

/// The spawn edge works the other way: writes before `spawn` are
/// visible to the child from its first instruction.
#[test]
fn spawn_passes_parent_view() {
    explore_seeded(0x0202, 300, || {
        let data = Arc::new(SyncUsize::new(0));
        data.store(9, Ordering::Relaxed); // sync: ordered by the spawn edge
        let d2 = Arc::clone(&data);
        spawn(move || {
            assert_eq!(d2.load(Ordering::Relaxed), 9, "spawn did not pass the parent view");
            // sync: ^ spawn edge already ordered this read
        })
        .join();
    })
    .assert_ok();
}

/// Liveness: a spin-wait on a `Relaxed` flag terminates — the
/// stale-streak rule forces the latest value after a bounded number of
/// stale reads, modelling finite-time visibility on real hardware.
#[test]
fn relaxed_spin_wait_terminates() {
    explore_seeded(0x0303, 200, || {
        let flag = Arc::new(SyncBool::new(false));
        let f2 = Arc::clone(&flag);
        let setter = spawn(move || {
            f2.store(true, Ordering::Relaxed); // sync: test fixture — liveness, not ordering
        });
        while !flag.load(Ordering::Relaxed) {
            // sync: test fixture — stale-streak liveness terminates this
        }
        setter.join();
    })
    .assert_ok();
}

/// A spin on a flag nobody ever sets exhausts the step budget and is
/// reported as a violation instead of hanging the test run.
#[test]
fn livelock_hits_step_budget() {
    let outcome = explore_seeded(0x0404, 1, || {
        let flag = SyncBool::new(false);
        while !flag.load(Ordering::Relaxed) {
            // sync: test fixture — intentional livelock
        }
    });
    let v = outcome.assert_violation();
    assert!(v.message.contains("step budget"), "unexpected violation: {}", v.message);
}

/// The event log captures the (site, thread, ordering, epoch) tuples the
/// audit layer promises.
#[test]
fn events_are_recorded() {
    let outcome = explore_seeded(0x0505, 1, || {
        let cell = SyncUsize::new(0);
        cell.store(3, Ordering::Release); // sync: test fixture — event recording
        assert_eq!(cell.load(Ordering::Acquire), 3); // sync: test fixture — event recording
        cell.fetch_add(1, Ordering::Relaxed); // sync: test fixture — event recording
    });
    outcome.assert_ok();
    let evs = &outcome.events;
    assert!(evs.iter().any(|e| e.op == OpKind::Store && e.ordering == Ordering::Release));
    assert!(evs.iter().any(|e| e.op == OpKind::Load && e.ordering == Ordering::Acquire && e.value == 3));
    assert!(evs.iter().any(|e| e.op == OpKind::Rmw && e.value == 4));
    assert!(evs.iter().all(|e| e.site.file().ends_with("model_semantics.rs")));
    let store_epoch = evs.iter().find(|e| e.op == OpKind::Store).unwrap().epoch;
    let load_epoch = evs.iter().find(|e| e.op == OpKind::Load).unwrap().epoch;
    assert_eq!(store_epoch, load_epoch, "load read a different epoch than the store wrote");
}

/// Outside an exploration context the facade behaves like the
/// passthrough build, including across real OS threads.
#[test]
fn passthrough_outside_exploration() {
    let cell = Arc::new(SyncUsize::new(0));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let c = Arc::clone(&cell);
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.fetch_add(1, Ordering::Relaxed); // sync: test counter only
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.load(Ordering::Relaxed), 4000); // sync: read after joins
}
