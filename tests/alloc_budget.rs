//! Allocation-regression guard for the serving hot path.
//!
//! A counting [`GlobalAlloc`] wrapper tallies every heap allocation, per
//! thread: each test reads only the allocations its own thread made, so a
//! sibling test running concurrently in this binary cannot leak into its
//! window. After warm-up, a steady-state serving turn
//! (`delete_sources` on a maintained plan plus the registry fan-out) must
//! stay under a pinned allocation budget. The budget is deliberately
//! generous — it is a regression tripwire for "accidentally quadratic"
//! allocation (fresh `Arc<str>` per value, maps rebuilt from scratch per
//! delta), not a byte-exact pin. If this test fails after an intentional
//! change, re-measure with `--nocapture` and adjust the budget in the
//! same commit with a note on why.
//!
//! Lives at the workspace root (not in `dap-relalg`) because the counting
//! allocator needs `unsafe impl GlobalAlloc`, which the library crates
//! forbid.

use dap::prelude::*;
use dap::provenance::WitnessesAnn;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

/// System allocator wrapper that counts allocation *events* (alloc and
/// grow-realloc; frees are not counted — the budget is on acquisition).
struct CountingAlloc;

thread_local! {
    /// Allocation events made by the current thread. A `const`-initialized
    /// `Cell` of a type without `Drop` needs no lazy registration, so
    /// touching it from inside the allocator never allocates.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_event() {
    // `try_with` fails only during thread teardown, when nothing measures.
    let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every operation verbatim to `System`; the counter is a
// thread-local `Cell` increment that neither allocates nor has any other
// side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events the calling thread has made so far.
fn events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

/// Fixture: R(A, B) ⋈ S(B, C) projected to (A, C), with enough rows that a
/// per-row allocation regression dwarfs the fixed per-turn cost.
const ROWS: usize = 160;

fn fixture() -> (Query, Database) {
    let mut text = String::from("relation R(A, B) {\n");
    for i in 0..ROWS {
        let _ = writeln!(text, "  (a{}, b{}),", i, i % 40);
    }
    text.push_str("}\nrelation S(B, C) {\n");
    for i in 0..ROWS {
        let _ = writeln!(text, "  (b{}, c{}),", i % 40, i);
    }
    text.push_str("}\n");
    let db = parse_database(&text).expect("fixture parses");
    let q = parse_query("project(join(scan R, scan S), [A, C])").expect("query parses");
    (q, db)
}

/// Per-turn allocation budget, in allocation events. Measured steady-state
/// cost on the fixture is ~20 events/turn (single-tid batch through a
/// maintained 640-row join view plus the registry fan-out — scratch maps
/// and delta vectors are reused, so a turn only allocates for the rows it
/// actually touches); the budget leaves ample headroom for allocator and
/// libstd drift while still catching per-row regressions, which on this
/// fixture cost thousands of events per turn.
const BUDGET_PER_TURN: u64 = 400;

#[test]
fn serving_turn_allocations_stay_under_budget() {
    let (q, db) = fixture();
    // One worker: the caller runs every task itself, so the whole turn's
    // allocations land on this thread's counter.
    let pool = ParPool::new(1);
    let mut plan = MaterializedPlan::<WitnessesAnn>::build_with(&q, &db, pool).unwrap();
    let mut reg = PlanRegistry::<WitnessesAnn>::with_pool(&db, pool);
    reg.register(&q).unwrap();

    let tids: Vec<Tid> = db.all_tids().collect();
    assert!(tids.len() >= 64, "fixture too small to measure");
    let mut turn = |tid: &Tid| {
        let batch = [tid.clone()];
        let _ = plan.delete_sources(&batch);
        let _ = reg.delete_sources(&batch);
    };

    // Warm up: first turns pay one-off costs (scratch growth, interner
    // touches, lazy table capacity). Steady state is what ships per turn.
    for tid in &tids[..16] {
        turn(tid);
    }

    const MEASURED_TURNS: usize = 32;
    let before = events();
    for tid in &tids[16..16 + MEASURED_TURNS] {
        turn(tid);
    }
    let per_turn = (events() - before) / MEASURED_TURNS as u64;

    println!("allocation events per serving turn: {per_turn} (budget {BUDGET_PER_TURN})");
    assert!(
        per_turn <= BUDGET_PER_TURN,
        "serving turn allocated {per_turn} times, budget is {BUDGET_PER_TURN}; \
         a hot-path allocation regression (per-row Arc churn or per-delta map \
         rebuilds) is the likely cause"
    );
}

/// Interning means constructing the same string value twice costs zero new
/// allocations after the first — guarded here end to end through the
/// public facade.
#[test]
fn repeated_value_construction_is_allocation_free() {
    let warm = Value::str("alloc-budget-witness");
    let before = events();
    for _ in 0..1_000 {
        let v = Value::str("alloc-budget-witness");
        assert_eq!(v, warm);
    }
    let spent = events() - before;
    assert!(
        spent <= 8,
        "1000 re-constructions of an interned string allocated {spent} times"
    );
}
