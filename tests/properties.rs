//! Randomized property tests over the core invariants.
//!
//! The build environment carries no third-party registry, so these run on
//! the in-tree [`rsti_rng`] generator instead of `proptest`: each property
//! draws a fixed budget of seeded random cases, which keeps the runs
//! deterministic (and failures immediately reproducible from the case
//! index) while still sweeping the input space far beyond the hand-picked
//! unit tests.

use rsti_core::Mechanism;
use rsti_pac::{KeyId, PacUnit, Qarma64, VaConfig};
use rsti_rng::Rng64;
use rsti_vm::{Image, Vm};

/// QARMA decryption inverts encryption for arbitrary blocks/tweaks/keys.
#[test]
fn qarma_roundtrip() {
    let mut rng = Rng64::seed_from_u64(0x51);
    for case in 0..256 {
        let key = rng.next_u128();
        let block = rng.next_u64();
        let tweak = rng.next_u64();
        let q = Qarma64::new(key);
        assert_eq!(
            q.decrypt(q.encrypt(block, tweak), tweak),
            block,
            "case {case}: key={key:#x} block={block:#x} tweak={tweak:#x}"
        );
    }
}

/// Distinct tweaks produce distinct ciphertexts (PRP under fixed key —
/// collisions would mean modifier confusion; for a fixed block the chance
/// is 2^-64, so any collision is treated as failure).
#[test]
fn qarma_tweak_separation() {
    let q = Qarma64::new(0xFEED_FACE_CAFE_BEEF_0123_4567_89AB_CDEF);
    let mut rng = Rng64::seed_from_u64(0x52);
    for case in 0..256 {
        let block = rng.next_u64();
        let t1 = rng.next_u64();
        let t2 = rng.next_u64();
        if t1 == t2 {
            continue;
        }
        assert_ne!(q.encrypt(block, t1), q.encrypt(block, t2), "case {case}");
    }
}

/// sign→auth roundtrips for any canonical user pointer and modifier; auth
/// under a different modifier fails (unless the truncated PACs collide,
/// which we filter).
#[test]
fn pac_sign_auth_contract() {
    let mut rng = Rng64::seed_from_u64(0x53);
    for case in 0..256 {
        let addr = rng.gen_range(0, 0x0000_7FFF_FFFF_FFFF);
        let m1 = rng.next_u64();
        let m2 = rng.next_u64();
        let mut u = PacUnit::for_tests();
        let signed = u.sign(KeyId::Da, addr, m1);
        assert_eq!(u.auth(KeyId::Da, signed, m1).unwrap(), addr, "case {case}");
        if m1 != m2 {
            let p1 = u.compute_pac(KeyId::Da, addr, m1);
            let p2 = u.compute_pac(KeyId::Da, addr, m2);
            if p1 != p2 {
                assert!(u.auth(KeyId::Da, signed, m2).is_err(), "case {case}");
            }
        }
    }
}

/// TBI tags never disturb PAC validity.
#[test]
fn tbi_tag_transparent_to_auth() {
    let mut rng = Rng64::seed_from_u64(0x54);
    for case in 0..256 {
        let addr = rng.gen_range(0, 0x0000_7FFF_FFFF_FFFF);
        let tag = rng.gen_range(1, 256) as u8;
        let modifier = rng.next_u64();
        let mut u = PacUnit::for_tests();
        let cfg = VaConfig::paper_default();
        let signed = u.sign(KeyId::Da, addr, modifier);
        let tagged = cfg.with_tbi_tag(signed, tag);
        let back = u.auth(KeyId::Da, tagged, modifier).unwrap();
        assert_eq!(cfg.clear_tbi(back), addr, "case {case}: tag={tag:#x}");
    }
}

/// Generated programs: instrumented execution is semantics-preserving
/// under every mechanism, and the equivalence invariants hold.
#[test]
fn generated_programs_differential() {
    for seed in 0..48 {
        let src = rsti_workloads::generate(seed, rsti_workloads::GenConfig::default());
        let m = rsti_frontend::compile(&src, "gen").expect("generator emits valid MiniC");
        let base = Vm::new(&Image::baseline(&m)).run();
        assert!(base.status.is_exit(), "seed {seed}: {:?}", base.status);
        for mech in Mechanism::ALL {
            let p = rsti_core::instrument(&m, mech);
            let r = Vm::new(&Image::from_instrumented(&p)).run();
            assert_eq!(r.status, base.status, "seed {seed} {mech}");
            assert_eq!(r.output, base.output, "seed {seed} {mech}");
        }
        let stats = rsti_core::equivalence_stats(&m);
        assert_eq!(stats.invariant_violation(), None, "seed {seed}");
    }
}

/// The optimizer (inlining + promotion + elision + hoisting + premods)
/// never changes observable behaviour, at any level, on top of arbitrary
/// generated programs.
#[test]
fn optimizer_is_semantics_preserving() {
    for seed in 0..32 {
        let src = rsti_workloads::generate(seed, rsti_workloads::GenConfig::default());
        let mut m = rsti_frontend::compile(&src, "gen").unwrap();
        let base = Vm::new(&Image::baseline(&m)).run();
        rsti_core::inline_leaf_functions(&mut m, rsti_core::LEAF_INLINE_BUDGET);
        // The optimized baseline and every mechanism, at every level.
        for choice in std::iter::once(None).chain(Mechanism::ALL.map(Some)) {
            for level in rsti_core::OptLevel::ALL {
                let r = Vm::new(&Image::build(&m, choice, level).0).run();
                assert_eq!(r.status, base.status, "seed {seed} {choice:?} {}", level.label());
                assert_eq!(r.output, base.output, "seed {seed} {choice:?} {}", level.label());
            }
        }
    }
}

/// Modifier determinism: analyzing twice yields identical modifiers
/// (required for separate sign/auth sites to agree).
#[test]
fn analysis_is_deterministic() {
    for seed in 0..32 {
        let src = rsti_workloads::generate(seed, rsti_workloads::GenConfig::default());
        let m = rsti_frontend::compile(&src, "gen").unwrap();
        for mech in Mechanism::ALL {
            let a = rsti_core::analyze(&m, mech);
            let b = rsti_core::analyze(&m, mech);
            assert_eq!(a.classes.len(), b.classes.len(), "seed {seed} {mech}");
            for (x, y) in a.classes.iter().zip(b.classes.iter()) {
                assert_eq!(x.modifier, y.modifier, "seed {seed} {mech}");
            }
        }
    }
}

fn random_bytes(rng: &mut Rng64, max_len: usize) -> String {
    let len = rng.gen_range(0, max_len as u64 + 1) as usize;
    (0..len)
        .map(|_| {
            // Mostly printable ASCII with occasional arbitrary code points,
            // mirroring proptest's "\\PC*" (printable-char) regime.
            if rng.gen_bool(0.9) {
                char::from_u32(rng.gen_range(0x20, 0x7F) as u32).unwrap()
            } else {
                char::from_u32(rng.gen_range(1, 0xD800) as u32).unwrap_or('?')
            }
        })
        .collect()
}

/// The compiler never panics: arbitrary byte soup either parses or returns
/// a diagnostic with a line number.
#[test]
fn frontend_total_on_arbitrary_input() {
    let mut rng = Rng64::seed_from_u64(0x55);
    for _ in 0..256 {
        let src = random_bytes(&mut rng, 120);
        match rsti_frontend::compile(&src, "fuzz") {
            Ok(_) => {}
            Err(e) => assert!(e.line >= 1, "diagnostic without a line for {src:?}"),
        }
    }
}

/// Structured fuzz: plausible-looking token streams exercise deeper parser
/// paths without panicking.
#[test]
fn frontend_total_on_token_soup() {
    const TOKENS: &[&str] = &[
        "int", "void*", "struct s", "{", "}", "(", ")", ";", ",", "x", "y", "f", "=", "+", "*",
        "&", "->", "if", "while", "return", "1", "null", "malloc", "(int*)", "[3]", "for",
    ];
    let mut rng = Rng64::seed_from_u64(0x56);
    for _ in 0..512 {
        let n = rng.gen_range(0, 40) as usize;
        let parts: Vec<&str> = (0..n).map(|_| *rng.choose(TOKENS)).collect();
        let _ = rsti_frontend::compile(&parts.join(" "), "fuzz");
    }
}

#[test]
fn lexer_total() {
    let mut rng = Rng64::seed_from_u64(0x57);
    for _ in 0..512 {
        let src = random_bytes(&mut rng, 200);
        let _ = rsti_frontend::token::lex(&src);
    }
}

/// Random single-slot corruption of heap pointer fields is either detected
/// or semantics-preserving-by-luck, but never silently *executes an
/// unintended external* under RSTI-STL. (Fuzz-style check on the strongest
/// mechanism.)
#[test]
fn random_corruption_never_reaches_externals_under_stl() {
    let src = r#"
        extern void system(char* cmd);
        struct cell { long v; struct cell* next; void (*fn)(); };
        struct cell* g;
        void ok() { }
        void touch() {
            if (g->next != null) { g->next->v = 1; }
            g->fn();
        }
        int main() {
            g = (struct cell*) malloc(sizeof(struct cell));
            g->v = 0;
            g->next = null;
            g->fn = ok;
            touch();
            return 0;
        }
    "#;
    let m = rsti_frontend::compile(src, "fuzz").unwrap();
    let p = rsti_core::instrument(&m, Mechanism::Stl);
    let img = Image::from_instrumented(&p);
    let mut rng = Rng64::seed_from_u64(0x58);
    for case in 0..50 {
        let junk = rng.next_u64();
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("touch"), rsti_vm::RunStop::Entered);
        let (obj, size) = vm.heap_live()[0];
        // Corrupt one of the object's three slots with junk.
        let slot = obj + 8 * (case % (size / 8));
        vm.attacker_write_u64(slot, junk).unwrap();
        let r = vm.finish();
        assert!(
            !r.reached_critical(),
            "corruption (slot {slot} junk {junk:#x}) reached system(): {:?}",
            r.status
        );
    }
}
