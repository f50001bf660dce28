//! Regenerates the paper's Table 1: runs all twelve attacks under every
//! defense and prints the verdict matrix.

fn main() {
    let mut scenarios = rsti_attacks::scenarios::all();
    if std::env::args().any(|a| a == "--extended") {
        scenarios.extend(rsti_attacks::scenarios::extras());
    }
    let victims: Vec<_> = scenarios.iter().map(rsti_attacks::Victim::scenario).collect();
    let matrix = rsti_attacks::run_matrix(&victims);
    print!("{}", rsti_attacks::render_table1(&scenarios, &matrix));
}
