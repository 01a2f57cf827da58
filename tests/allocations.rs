//! Neither the DP nor the proof allocates per node. Mapping a network
//! makes a number of allocation calls that does not grow with its node
//! count — a handful per worker for the solution segments, the memo and
//! the scratch arenas, and a handful per run for the cone partition and
//! the circuit — so far fewer than one call per ten unate nodes, serial
//! or on two threads. Proving the serial `run_unate` mapping by its
//! certificate (`check_mapped`), which converts the source again, stays
//! under the same bound: the re-converted unate network's containers, and
//! a few buffers that every gate's normal forms reuse. Proving a `run`
//! mapping, which carries the mapper's own conversion, skips the
//! re-conversion and stays under one call per 500 unate nodes.
//!
//! The allocator below counts every allocation call of the process, so
//! this binary holds a single test: the harness runs nothing else while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use soi_domino::cec::{self, CecOptions, CecPath};
use soi_domino::circuits::misc::random::{generate, RandomSpec};
use soi_domino::mapper::{MapConfig, Mapper, Parallelism};
use soi_domino::unate;

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and
/// forwards them to the system allocator.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Upper bound on allocation calls per unate node for one `run_unate`,
/// and for one `check_mapped` that converts the source again.
const MAX_CALLS_PER_NODE: f64 = 0.1;

/// Upper bound on allocation calls per unate node for one `check_mapped`
/// on a circuit that carries its conversion.
const MAX_ATTACHED_CALLS_PER_NODE: f64 = 0.002;

#[test]
fn mapping_allocates_nothing_per_node() {
    // A seeded control-profile network: irregular, well past the memo's
    // size gate (so the memo is on), with tens of thousands of nodes.
    let network = generate(&RandomSpec::control("alloc", 64, 16, 12_000, 0xA110C));
    let unate = unate::convert(&network, &unate::Options::default()).expect("converts");
    let nodes = unate.len();
    assert!(nodes >= 20_000, "only {nodes} unate nodes");
    let mut mapped = Vec::new();
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        let mapper = Mapper::soi(MapConfig {
            parallelism,
            ..MapConfig::default()
        });
        let before = CALLS.load(Ordering::Relaxed);
        let result = mapper.run_unate(&unate).expect("maps");
        let calls = CALLS.load(Ordering::Relaxed) - before;
        let per_node = calls as f64 / nodes as f64;
        assert!(
            per_node < MAX_CALLS_PER_NODE,
            "{parallelism:?}: {calls} allocation calls for {nodes} unate nodes \
             ({per_node:.3} per node)"
        );
        assert!(
            result.cone_cache_hits + result.cone_cache_misses > 0,
            "memo off"
        );
        mapped.push(result);
    }
    assert_eq!(mapped[0].threads_used, 1);
    assert!(mapped[0].circuit == mapped[1].circuit, "schedules diverge");

    let from_network = Mapper::soi(MapConfig {
        parallelism: Parallelism::Serial,
        ..MapConfig::default()
    })
    .run(&network)
    .expect("maps");
    assert!(
        from_network.circuit.conversion().is_some(),
        "`run` attaches"
    );
    assert!(mapped[0].circuit.conversion().is_none());
    assert!(
        from_network.circuit == mapped[0].circuit,
        "run and run_unate diverge"
    );

    let opts = CecOptions::default();
    for (circuit, bound) in [
        (&mapped[0].circuit, MAX_CALLS_PER_NODE),
        (&from_network.circuit, MAX_ATTACHED_CALLS_PER_NODE),
    ] {
        let what = if circuit.conversion().is_some() {
            "check_mapped (attached conversion)"
        } else {
            "check_mapped (re-converted)"
        };
        let before = CALLS.load(Ordering::Relaxed);
        let report = cec::check_mapped(&network, circuit, &opts).expect("checks");
        let calls = CALLS.load(Ordering::Relaxed) - before;
        assert_eq!(
            report.path,
            CecPath::Certificate,
            "{what}: {:?}",
            report.verdict
        );
        let per_node = calls as f64 / nodes as f64;
        assert!(
            per_node < bound,
            "{what}: {calls} allocation calls for {nodes} unate nodes \
             ({per_node:.4} per node, bound {bound})"
        );
    }
}
