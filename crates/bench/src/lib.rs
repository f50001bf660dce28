//! # rsti-bench — the performance-evaluation harness (paper §6.2–6.3)
//!
//! Regenerates every quantitative artifact of the paper's evaluation from
//! the workload proxies. Each committed report has one renderer in
//! [`reports`]; the `make_report` binary writes them all into `reports/`
//! and gates the optimizer ladder ([`reports::ladder_failures`]):
//!
//! | artifact | file under `reports/` | renderer |
//! |---|---|---|
//! | Table 1 (attacks × defenses) | `table1.txt` | [`reports::render_table1`] |
//! | Table 2 (attacker restrictions) | `table2.txt` | [`reports::render_table2`] |
//! | Table 3 (equivalence classes) | `table3.txt` | [`reports::render_table3`] |
//! | §6.2.2 (pointer-to-pointer census) | `pp_census.txt` | [`reports::render_pp_census`] |
//! | §7 (replay surface, adaptive mechanism) | `replay_surface.txt` | [`reports::render_replay_surface`] |
//! | Figure 9 (per-benchmark overhead + geomeans) | `fig9.txt` | [`reports::Fig9`] |
//! | Figure 10 (box plots) | `fig10.txt` | [`reports::render_fig10`] |
//! | §6.3.2 (PARTS comparison) | `parts_compare.txt` | [`reports::render_parts_compare`] |
//! | §4.7.2 / §6.3.2 (optimization ablation) | `opt_compare.md` | [`reports::render_opt_compare`] |
//! | attribution hotspots (nbench + NGINX) | `hotspots.md` | [`reports::render_hotspots`] |
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

#[cfg(test)]
mod tests {
    use crate::gates::{check_trajectory, last_entry};
    use rsti_telemetry::parse_json;

    /// A history line as `vm_throughput` writes it.
    const ENTRY: &str = "{\"schema\":1,\"insts_per_sec\":1000,\"compiled_insts_per_sec\":1000,\
                         \"compiled_speedup_vs_interp\":1.2,\"serve_warm_speedup\":20.0}";

    #[test]
    fn history_diff_reports_missing_or_incomparable_prior_entry() {
        // The run diffs against the last committed line of the log, read
        // the way `vm_throughput` reads it; an empty log, or a last line of
        // another schema, skips the diff and says why.
        let run = parse_json(&ENTRY.replace("1000", "500")).unwrap();
        let diff = |log: &str| check_trajectory(last_entry(log).as_ref(), &run);

        for log in ["", "\n  \n"] {
            let r = diff(log);
            assert_eq!(r.notes[0], "no committed bench-history entry — regression diff skipped");
            assert!(r.warnings.is_empty(), "{r:?}");
        }

        let old_schema = ENTRY.replace("\"schema\":1", "\"schema\":0");
        let r = diff(&format!("{ENTRY}\n{old_schema}\n"));
        assert!(r.notes[0].contains("schema 0, this run 1"), "{r:?}");
        assert!(r.warnings.is_empty(), "{r:?}");

        // Older lines were written with `": "` / `", "` separators; the
        // last non-blank line is the one diffed, in either style.
        let spaced = ENTRY.replace(':', ": ").replace(',', ", ");
        for log in [format!("{old_schema}\n{spaced}\n\n"), format!("{old_schema}\n{ENTRY}")] {
            let r = diff(&log);
            assert_eq!(r.warnings.len(), 2, "{log}: {r:?}");
            assert!(r.notes[0].contains("committed insts_per_sec: 1000, this run: 500"), "{r:?}");
        }
    }
}
