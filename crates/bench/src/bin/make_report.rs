//! Writes every figure/table reproduction into `reports/` in one shot —
//! the repository's regenerable artifact bundle.

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
    let mut scenarios = rsti_attacks::scenarios::all();
    scenarios.extend(rsti_attacks::scenarios::extras());
    let victims: Vec<_> = scenarios.iter().map(rsti_attacks::Victim::scenario).collect();
    let matrix = rsti_attacks::run_matrix(&victims);
    write("table1.txt", rsti_attacks::render_table1(&scenarios, &matrix));
    write("table2.txt", rsti_attacks::render_table2());

    // Analysis tables.
    write("table3.txt", rsti_bench::render_table3());
    write("pp_census.txt", rsti_bench::render_pp_census());

    // Performance figures.
    let fig9 = rsti_bench::Fig9::measure().expect("every proxy runs cleanly");
    write("fig9.txt", fig9.render());
    write("fig10.txt", rsti_bench::render_fig10(&fig9));
    write("parts_compare.txt", rsti_bench::render_parts_compare());
}
