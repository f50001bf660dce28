//! Equivalence-class explorer: reproduces the paper's Figure 5 tables —
//! how the same program gets different RSTI-type tables under STWC, STC,
//! and STL — and prints a Table 3-style row for it.
//!
//! Run with: `cargo run --example equivalence_explorer`

use rsti_core::Mechanism;

/// The program of the paper's Figure 5.
const FIG5: &str = r#"
    struct ctx { void (*send_file)(int x); };
    void foo(struct ctx* c) { }
    void bar(struct ctx* c) { }
    void foo2(void* v_ctx) {
        foo((struct ctx*) v_ctx);
        bar((struct ctx*) v_ctx);
    }
    int main() {
        struct ctx* c = (struct ctx*) malloc(sizeof(struct ctx));
        const void* v_const = malloc(1);
        foo2((void*) c);
        return 0;
    }
"#;

fn main() {
    let module = rsti_frontend::compile(FIG5, "fig5").expect("compiles");

    for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
        let a = rsti_core::analyze(&module, mech);
        println!("== {mech} ({} RSTI-types) ==", a.classes.len());
        for (i, c) in a.classes.iter().enumerate() {
            let tys: Vec<String> = a.types(c).iter().map(|t| module.types.display(*t)).collect();
            let members: Vec<&str> =
                a.members(c).iter().map(|&v| a.facts.vars[v].name.as_str()).collect();
            println!(
                "  M{} = types[{}] perm {} members {{{}}}",
                i + 1,
                tys.join(", "),
                if c.writable { "R/W" } else { "R" },
                members.join(", ")
            );
        }
        println!();
    }

    let s = rsti_core::equivalence_stats(&module);
    println!("Table 3 row for this program:");
    println!(
        "  NT {}  RT(STC) {}  RT(STWC) {}  RT(STL) {}  NV {}",
        s.nt, s.rt_stc, s.rt_stwc, s.rt_stl, s.nv
    );
    println!(
        "  largest ECV: STC {} / STWC {}    largest ECT: STC {} / STWC {}",
        s.ecv_stc, s.ecv_stwc, s.ect_stc, s.ect_stwc
    );
    assert_eq!(s.invariant_violation(), None);
}
