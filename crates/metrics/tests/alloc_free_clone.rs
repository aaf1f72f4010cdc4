//! Allocation counts of the state copies the evolution loop pays per
//! offspring, measured with a counting global allocator.
//!
//! [`EvalState::clone_from`] between two states of the same shape must not
//! allocate, a [`PatternIndex`] clone makes one allocation per flat field
//! whatever its pattern count, and an [`EvalState::clone`] makes a pinned
//! number of allocations set by the attribute count alone. The copies go through `std::hint::black_box`: without it
//! the optimizer may elide them, and the count would read falsely low.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_dataset::{Code, PatternIndex, SubTable};
use cdp_metrics::{EvalState, Evaluator, MetricConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts the allocations (and reallocations) made by the current thread,
/// so tests running in parallel do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local `Cell` with no destructor and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn adult(rows: usize) -> SubTable {
    DatasetKind::Adult
        .generate(&GeneratorConfig::seeded(10).with_records(rows))
        .protected_subtable()
}

/// `sub` with about a third of its cells re-drawn.
fn masked(sub: &SubTable, seed: u64) -> SubTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = sub.clone();
    for k in 0..m.n_attrs() {
        let c = m.attr(k).n_categories() as Code;
        for r in 0..m.n_rows() {
            if rng.gen_bool(0.3) {
                m.set(r, k, rng.gen_range(0..c));
            }
        }
    }
    m
}

#[test]
fn eval_state_clone_from_between_same_shape_states_allocates_nothing() {
    let original = adult(1000);
    let ev = Evaluator::new(&original, MetricConfig::default()).unwrap();
    let a = ev.assess(&masked(&original, 1));
    let b = ev.assess(&masked(&original, 2));
    let mut scratch: EvalState = b.clone();
    // one round each way grows every buffer to the larger of the two
    scratch.clone_from(&a);
    scratch.clone_from(&b);
    let n = allocations_in(|| {
        for _ in 0..4 {
            black_box(&mut scratch).clone_from(black_box(&a));
            black_box(&mut scratch).clone_from(black_box(&b));
        }
    });
    assert_eq!(n, 0, "EvalState::clone_from allocated {n} times");
}

#[test]
fn pattern_index_clone_allocations_do_not_grow_with_patterns() {
    let few = PatternIndex::build(&adult(150));
    let many = PatternIndex::build(&masked(&adult(1000), 3));
    assert!(many.n_patterns() > 4 * few.n_patterns());
    // codes, multiplicities, row map and slots: four flat vectors
    let bound = 4;
    for index in [&few, &many] {
        let n = allocations_in(|| drop(black_box(black_box(index).clone())));
        assert!(
            n <= bound,
            "cloning {} patterns allocated {n} times (bound {bound})",
            index.n_patterns()
        );
    }
}

#[test]
fn eval_state_clone_allocation_count_is_pinned() {
    // every crossover child pays one state clone. At Adult's 3 attributes:
    // contingency tables 9 (2 outer vectors, 3 single and 3 pair tables,
    // category counts), DBIL accumulators 1, confusion 4, interval counts
    // 1, masked rank statistics 8, masked pattern index 4, PRL census 1
    // (its histograms are read from the preparation's link table), PRL
    // weights 2, joint cells 6 — none per pattern or per cell
    let original = adult(1000);
    let ev = Evaluator::new(&original, MetricConfig::default()).unwrap();
    let state = ev.assess(&masked(&original, 4));
    let n = allocations_in(|| drop(black_box(black_box(&state).clone())));
    assert_eq!(n, 36, "EvalState::clone allocated {n} times");
}
