//! Writes every deterministic figure and table reproduction into
//! `reports/` in one shot, then gates the optimizer ladder: the process
//! exits non-zero, naming the mechanism and level, if an optimizer level
//! does not execute strictly fewer auths than the one below it.
//!
//! Run from the repository root:
//! `cargo run --release -p rsti-bench --bin make_report`.

use rsti_bench::reports;
use std::fs;
use std::path::Path;

fn main() {
    let dir = Path::new("reports");
    fs::create_dir_all(dir).expect("create reports/");
    let write = |name: &str, contents: String| {
        let path = dir.join(name);
        fs::write(&path, &contents).expect("write report");
        println!("wrote {} ({} bytes)", path.display(), contents.len());
    };

    // Security evaluation.
    write("table1.txt", reports::render_table1());
    write("table2.txt", reports::render_table2());

    // Analysis tables.
    write("table3.txt", reports::render_table3());
    write("pp_census.txt", reports::render_pp_census());
    write("replay_surface.txt", reports::render_replay_surface());

    // Performance figures.
    let fig9 = reports::Fig9::measure().expect("every proxy runs cleanly");
    write("fig9.txt", fig9.render());
    write("fig10.txt", reports::render_fig10(&fig9));
    write("parts_compare.txt", reports::render_parts_compare());
    let totals = reports::measure_opt_totals().expect("every mix workload runs cleanly");
    write("opt_compare.md", reports::render_opt_compare(&totals));
    write("hotspots.md", reports::render_hotspots());

    let failures = reports::ladder_failures(&totals);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("optimizer ladder gate failed: {f}");
        }
        std::process::exit(1);
    }
}
