//! Attack gallery: runs the full Table 1 corpus (twelve control-flow
//! hijacking and data-oriented exploits) under every defense and prints
//! the verdict matrix — the reproduction of the paper's §6.1 security
//! evaluation.
//!
//! Run with: `cargo run --example attack_gallery`

fn main() {
    let scenarios = rsti_attacks::scenarios::all();
    println!("running {} attacks x 5 defenses...\n", scenarios.len());
    let victims: Vec<_> = scenarios.iter().map(rsti_attacks::Victim::scenario).collect();
    let matrix = rsti_attacks::run_matrix(&victims);
    print!("{}", rsti_attacks::render_table1(&scenarios, &matrix));

    // Summarize the headline claims.
    let baseline_hijacks = matrix
        .iter()
        .filter(|r| r.verdicts[0] == rsti_attacks::Verdict::PayloadExecuted)
        .count();
    let rsti_detections = matrix
        .iter()
        .filter(|r| r.verdicts[2..].iter().all(|v| matches!(v, rsti_attacks::Verdict::Detected(_))))
        .count();
    println!("\nsummary: {baseline_hijacks}/12 succeed unprotected;");
    println!("         {rsti_detections}/12 detected by every RSTI mechanism;");
    println!("         PARTS misses the same-basic-type substitutions (COOP, PittyPat, DOP).");
}
