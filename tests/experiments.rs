//! Executable claims: the headline experiment *shapes* from EXPERIMENTS.md,
//! asserted in test form so regressions in any crate surface here.

use rsti_bench::{geomean_pct, measure};
use rsti_core::Mechanism;

/// Figure 9's ordering claim, on a pointer-heavy and a numeric proxy.
#[test]
fn overhead_ordering_and_profile() {
    let heavy = rsti_workloads::spec2006()
        .into_iter()
        .find(|w| w.name == "omnetpp")
        .unwrap();
    let light = rsti_workloads::spec2006()
        .into_iter()
        .find(|w| w.name == "lbm")
        .unwrap();
    let h = measure(&heavy).expect("omnetpp proxy runs cleanly");
    let l = measure(&light).expect("lbm proxy runs cleanly");
    // [0]=STWC, [1]=STC, [2]=STL
    assert!(h.overhead_pct[1] <= h.overhead_pct[0] + 1e-9, "{h:?}");
    assert!(h.overhead_pct[0] <= h.overhead_pct[2] + 1e-9, "{h:?}");
    assert!(h.overhead_pct[0] > 10.0, "omnetpp is an outlier: {h:?}");
    assert!(l.overhead_pct[2] < 1.0, "lbm is pointer-free: {l:?}");
    assert!(l.instrumented_sites < h.instrumented_sites);
}

/// The geomean aggregation used throughout Figure 9 is the ratio geomean.
#[test]
fn geomean_is_ratio_based() {
    // 0% and 21% → sqrt(1.0 * 1.21) - 1 = 10%
    assert!((geomean_pct([0.0, 21.0]) - 10.0).abs() < 1e-9);
}

/// Table 3's order-invariants over every proxy in every suite.
#[test]
fn equivalence_invariants_over_all_proxies() {
    for w in rsti_workloads::all_workloads() {
        let m = w.module();
        let s = rsti_core::equivalence_stats(&m);
        assert_eq!(s.invariant_violation(), None, "{}: {s:?}", w.name);
    }
}

/// §6.2.2's rarity claim: lost-type double-pointer sites are a small
/// fraction of all double-pointer sites across the SPEC2006 proxies.
#[test]
fn pointer_to_pointer_lost_type_is_rare() {
    let mut total = 0;
    let mut lost = 0;
    for w in rsti_workloads::spec2006() {
        let m = w.module();
        let a = rsti_core::analyze(&m, Mechanism::Stwc);
        let plan = rsti_core::plan_pp(&m, &a);
        total += plan.census.total_sites;
        lost += plan.census.lost_type_sites;
    }
    assert!(total > 0, "the proxies do exercise double pointers");
    assert!(
        lost * 4 <= total,
        "lost-type sites must be the minority: {lost}/{total}"
    );
}

/// §7's replay-surface ordering over the generator corpus.
#[test]
fn replay_surface_shrinks_with_stricter_mechanisms() {
    for seed in 0..10u64 {
        let src = rsti_workloads::generate_source(seed, rsti_workloads::AstGenConfig::default());
        let m = rsti_frontend::compile(&src, "gen").unwrap();
        let surf = |mech| {
            rsti_core::replay_surface(&rsti_core::analyze(&m, mech), 4).substitutable_pairs
        };
        let (stl, stwc, parts) = (
            surf(Mechanism::Stl),
            surf(Mechanism::Stwc),
            surf(Mechanism::Parts),
        );
        assert!(stl <= stwc, "seed {seed}: stl={stl} stwc={stwc}");
        assert!(stwc <= parts, "seed {seed}: stwc={stwc} parts={parts}");
    }
}

/// The per-benchmark instrumentation counts drive overhead: more sites,
/// more cycles (the §6.3.2 correlation, in miniature).
#[test]
fn sites_correlate_with_overhead_in_miniature() {
    let names = ["lbm", "hmmer", "omnetpp"];
    let mut rows = Vec::new();
    for name in names {
        let w = rsti_workloads::spec2006()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        rows.push(measure(&w).expect("proxy runs cleanly"));
    }
    // lbm < hmmer < omnetpp in both sites and overhead.
    assert!(rows[0].instrumented_sites <= rows[1].instrumented_sites);
    assert!(rows[1].instrumented_sites <= rows[2].instrumented_sites);
    assert!(rows[0].overhead_pct[0] <= rows[1].overhead_pct[0] + 1e-9);
    assert!(rows[1].overhead_pct[0] <= rows[2].overhead_pct[0] + 1e-9);
}
