//! # rsti-bench — the performance-evaluation harness (paper §6.2–6.3)
//!
//! Regenerates every quantitative artifact of the paper's evaluation from
//! the workload proxies:
//!
//! | artifact | binary | module |
//! |---|---|---|
//! | Figure 9 (per-benchmark overhead + geomeans) | `fig9` | [`reports::Fig9`] |
//! | Figure 10 (box plots) | `fig10` | [`reports::render_fig10`] |
//! | Table 3 (equivalence classes) | `table3` | [`reports::render_table3`] |
//! | §6.2.2 (pointer-to-pointer census) | `pp_census` | [`reports::render_pp_census`] |
//! | §6.3.2 (PARTS comparison) | `parts_compare` | [`reports::render_parts_compare`] |
//!
//! The ablation bench (plain timing harness, [`timing`]) lives under
//! `benches/`; the `vm_throughput` binary records the VM's
//! instructions/second trajectory (both accounting modes) to
//! `BENCH_vm.json` and gates each run against the last committed one
//! ([`gates`]).

#![warn(missing_docs)]

pub mod gates;
pub mod overhead;
pub mod reports;
pub mod timing;

pub use overhead::{
    box_stats, geomean_pct, measure, measure_suite, measure_suite_with_threads,
    pearson, BoxStats, MeasureError, OverheadRow, MECHS,
};
pub use reports::{render_fig10, render_parts_compare, render_pp_census, render_table3, Fig9};
