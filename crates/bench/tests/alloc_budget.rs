//! Heap allocations per cold build, per pipeline layer, against committed
//! budgets.
//!
//! A cold build is what the cold-compile benchmark times: `compile`,
//! `instrument`, `optimize_program_at` and the VM translation, from source,
//! for one (program, mechanism, level). A counting global allocator
//! forwards to [`System`] and counts, on the building thread only, every
//! `alloc`, `alloc_zeroed` and `realloc` call inside each layer. The
//! program set is fixed (the first programs of a cold-compile pool, drawn
//! as the benchmark draws them), so for one toolchain the counts are exact
//! and the same on every machine. They also depend on the standard
//! library (how far `Vec`, `String` and `HashMap` grow, a sort's scratch
//! buffer), which a new Rust release may change by a few allocations, so
//! each budget sits 5% above its measured count. A change that allocates
//! per token, block or function again overruns it by far more than that
//! (a fresh vector per block in the instrumentation walk alone is +40%).
//!
//! Debug builds also run `verify_module` after every pass, which allocates,
//! so the budgets hold for release builds only:
//! `cargo test --release -p rsti-bench --test alloc_budget`.

use rsti_core::{Mechanism, OptLevel};
use rsti_vm::{ExecBackend, Image};
use rsti_workloads::AstGenConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting the calls made on the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The pipeline layers, in build order.
const LAYERS: [&str; 4] = ["frontend", "instrument", "optimize", "translate"];

/// Committed mean allocations per build, per layer: the counts measured
/// when each layer last moved (2,802 / 939 / 489 / 4,092) plus 5%, rounded
/// up. Before the layers allocated per module they were 5,661 / 2,233 /
/// 3,590 / 5,528.
const BUDGET: [u64; 4] = [2_950, 990, 520, 4_300];
/// Committed mean allocations per build, all layers: 8,322 measured plus
/// 5% (was 17,012).
const BUDGET_TOTAL: u64 = 8_750;

/// Generated programs in the set.
const PROGRAMS: u64 = 16;
/// The pool seed the set is drawn from.
const SEED: u64 = 0xa110c;

/// The cold-compile pool's sources for `seed`, first `n` of them: each
/// shape is the default grown by an independent draw along every
/// dimension (up to +3 structs, +3 hooks, +20 workers, +6 statements per
/// worker), as the benchmark draws it.
fn pool(seed: u64, n: u64) -> Vec<String> {
    let mut rng = rsti_rng::Rng64::seed_from_u64(seed ^ 0x636f_6c64);
    (0..n)
        .map(|j| {
            let d = AstGenConfig::default();
            let mut up = |max: u64| rng.gen_range(0, max + 1) as u32;
            let cfg = AstGenConfig {
                structs: d.structs + up(3),
                hooks: d.hooks + up(3),
                funcs: d.funcs + up(20),
                stmts_per_func: d.stmts_per_func + up(6),
                ..d
            };
            rsti_workloads::generate_source(seed.wrapping_mul(0x9e37_79b9).wrapping_add(j), cfg)
        })
        .collect()
}

#[test]
fn cold_builds_stay_within_allocation_budgets() {
    if cfg!(debug_assertions) {
        eprintln!("alloc_budget: debug build also counts verify_module; run with --release");
        return;
    }
    let sources = pool(SEED, PROGRAMS);
    let mechs = [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl];
    let levels = [OptLevel::Cfg, OptLevel::Ipo];
    let mut sums = [0u64; 4];
    let mut builds = 0u64;
    for src in &sources {
        for mech in mechs {
            for level in levels {
                let (fe, m) = counted(|| rsti_frontend::compile(src, "cold"));
                let m = m.expect("generated programs compile");
                let (ins, mut p) = counted(|| rsti_core::instrument(&m, mech));
                let (opt, _) = counted(|| rsti_core::optimize_program_at(&mut p, level));
                let img = Image::from_instrumented_owned(p).with_exec(ExecBackend::Compiled);
                let (tr, ()) = counted(|| img.precompile());
                for (s, n) in sums.iter_mut().zip([fe, ins, opt, tr]) {
                    *s += n;
                }
                builds += 1;
            }
        }
    }
    let means = sums.map(|s| s / builds);
    let total: u64 = means.iter().sum();
    for (layer, mean) in LAYERS.iter().zip(means) {
        eprintln!("alloc_budget: {layer} {mean} per build");
    }
    eprintln!("alloc_budget: total {total} per build over {builds} builds");
    let over: Vec<String> = LAYERS
        .iter()
        .zip(means.iter().zip(BUDGET))
        .filter(|(_, (mean, budget))| *mean > budget)
        .map(|(layer, (mean, budget))| format!("{layer} {mean} > {budget}"))
        .collect();
    assert!(over.is_empty(), "allocations per build over budget: {}", over.join(", "));
    assert!(total <= BUDGET_TOTAL, "{total} allocations per build > {BUDGET_TOTAL}");
}
