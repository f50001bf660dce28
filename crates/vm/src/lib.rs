//! # rsti-vm — the runtime: one block-threaded driver with the PA data path wired in
//!
//! Executes (instrumented) `rsti-ir` modules under the software PA model,
//! realizing the paper's threat model so that attacks and defenses can be
//! evaluated end-to-end. Each image is translated once into pre-resolved
//! ops (operand slots, folded type layouts, PAC call shapes), and one
//! driver ([`Vm::run`]) direct-threads that translation — charging whole
//! blocks up front ([`ExecBackend::Compiled`], what every run takes) or one
//! op at a time ([`ExecBackend::Interp`], the reference accounting the
//! parity checks hold it to) — so op semantics have one implementation:
//!
//! * [`mem`] — segmented process memory, heap allocator, and the boundary
//!   between program-level permissions and the attacker's corruption
//!   primitive;
//! * [`vm`] — the machine state, the op translation and the driver, the PAC/`pp_*` instruction semantics, the external-library
//!   model, the attacker API, and trap reporting;
//! * [`cycles`] — the deterministic cost model behind the Figure 9/10
//!   overhead numbers (PA op ≈ 7 XOR, per the paper's own emulation).
//!
//! # Example: run a protected program
//!
//! ```
//! use rsti_vm::{Image, Vm, Status};
//!
//! let m = rsti_frontend::compile(r#"
//!     int main() {
//!         int* p = (int*) malloc(sizeof(int));
//!         *p = 41;
//!         *p = *p + 1;
//!         print_int(*p);
//!         return *p;
//!     }
//! "#, "demo").unwrap();
//! let prog = rsti_core::instrument(&m, rsti_core::Mechanism::Stwc);
//! let img = Image::from_instrumented(&prog);
//! let mut vm = Vm::new(&img);
//! let r = vm.run();
//! assert_eq!(r.status, Status::Exited(42));
//! assert_eq!(r.output, vec!["42"]);
//! ```

#![warn(missing_docs)]

pub mod cycles;
pub mod mem;
pub mod vm;

pub use cycles::CostModel;
pub use mem::{layout, Allocator, MemFault, Memory};
pub use vm::{
    func_address, resolve_code_addr, AttrProfile, Backend, ExecBackend, ExecResult, ExtEvent,
    FuncAttr, Image, RtVal, RunStop, SiteAttr, Status, Trap, Vm, CRITICAL_EXTERNALS,
    DEFAULT_ATTR_SAMPLE_EVERY, DEFAULT_RECORD_CAP, MIN_ATTR_SAMPLE_EVERY, OPCLASS_ORDER,
    SITE_ORDER,
};
// The audit-record type carried in [`ExecResult::audit`] and the
// flight-recorder incident carried in [`ExecResult::incident`].
pub use rsti_telemetry::{AuditRecord, Incident, IncidentEvent, SignLineage};

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_core::Mechanism;
    use rsti_frontend::compile;

    fn run_baseline(src: &str) -> ExecResult {
        let m = compile(src, "t").unwrap();
        let img = Image::baseline(&m);
        Vm::new(&img).run()
    }

    fn run_mech(src: &str, mech: Mechanism) -> ExecResult {
        let m = compile(src, "t").unwrap();
        let p = rsti_core::instrument(&m, mech);
        let img = Image::from_instrumented(&p);
        Vm::new(&img).run()
    }

    fn run_all_mechs(src: &str) -> Vec<ExecResult> {
        Mechanism::ALL.iter().map(|&m| run_mech(src, m)).collect()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let r = run_baseline(
            r#"
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main() {
                print_int(fib(15));
                return fib(10);
            }
        "#,
        );
        assert_eq!(r.status, Status::Exited(55));
        assert_eq!(r.output, vec!["610"]);
    }

    #[test]
    fn loops_arrays_pointers() {
        let r = run_baseline(
            r#"
            int main() {
                int buf[10];
                for (int i = 0; i < 10; i = i + 1) { buf[i] = i * i; }
                int* p = &buf[0];
                int acc = 0;
                for (int i = 0; i < 10; i = i + 1) { acc = acc + *(p + i); }
                return acc;
            }
        "#,
        );
        assert_eq!(r.status, Status::Exited(285));
    }

    #[test]
    fn heap_linked_list_under_every_mechanism() {
        let src = r#"
            struct node { int key; struct node* next; };
            int main() {
                struct node* head = null;
                for (int i = 0; i < 20; i = i + 1) {
                    struct node* n = (struct node*) malloc(sizeof(struct node));
                    n->key = i;
                    n->next = head;
                    head = n;
                }
                int acc = 0;
                struct node* cur = head;
                while (cur != null) {
                    acc = acc + cur->key;
                    cur = cur->next;
                }
                return acc;
            }
        "#;
        let base = run_baseline(src);
        assert_eq!(base.status, Status::Exited(190));
        for (mech, r) in Mechanism::ALL.iter().zip(run_all_mechs(src)) {
            assert_eq!(r.status, Status::Exited(190), "{mech}: {:?}", r.status);
            assert!(r.pac_signs > 0, "{mech} signed pointers");
            assert!(r.pac_auths > 0, "{mech} authenticated pointers");
            assert!(r.cycles > base.cycles, "{mech} costs more than baseline");
        }
    }

    #[test]
    fn function_pointers_work_instrumented() {
        let src = r#"
            int add(int a, int b) { return a + b; }
            int mul(int a, int b) { return a * b; }
            int main() {
                int (*op)(int a, int b) = add;
                int r = op(3, 4);
                op = mul;
                return r + op(3, 4);
            }
        "#;
        for r in run_all_mechs(src) {
            assert_eq!(r.status, Status::Exited(19));
        }
    }

    #[test]
    fn composite_function_pointer_fig6() {
        let src = r#"
            void hello_func() { print_str("Hello!"); }
            struct node { int key; void (*fp)(); struct node* next; };
            int main() {
                struct node* ptr = (struct node*) malloc(sizeof(struct node));
                ptr->fp = hello_func;
                ptr->fp();
                return 0;
            }
        "#;
        for (mech, r) in Mechanism::ALL.iter().zip(run_all_mechs(src)) {
            assert_eq!(r.status, Status::Exited(0), "{mech}: {:?}", r.status);
            assert_eq!(r.output, vec!["Hello!"], "{mech}");
        }
    }

    #[test]
    fn double_pointers_all_mechanisms() {
        let src = r#"
            void bump(int** pp) { **pp = **pp + 1; }
            int main() {
                int x = 5;
                int* p = &x;
                bump(&p);
                bump(&p);
                return x;
            }
        "#;
        for (mech, r) in Mechanism::ALL.iter().zip(run_all_mechs(src)) {
            assert_eq!(r.status, Status::Exited(7), "{mech}: {:?}", r.status);
        }
    }

    #[test]
    fn fig7_lost_type_double_pointer_roundtrips() {
        let src = r#"
            struct node { int key; struct node* next; };
            int probe(void** pp) {
                void* inner = *pp;
                if (inner == null) { return 1; }
                return 0;
            }
            int main() {
                struct node* p = (struct node*) malloc(sizeof(struct node));
                p->key = 9;
                int r = probe((void**) &p);
                return p->key + r;
            }
        "#;
        for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
            let r = run_mech(src, mech);
            assert_eq!(r.status, Status::Exited(9), "{mech}: {:?}", r.status);
        }
    }

    #[test]
    fn short_circuit_protects_null_deref() {
        let r = run_baseline(
            r#"
            int main() {
                int* p = null;
                if (p != null && *p == 3) { return 1; }
                return 0;
            }
        "#,
        );
        assert_eq!(r.status, Status::Exited(0));
    }

    #[test]
    fn null_deref_faults() {
        let r = run_baseline("int main() { int* p = null; return *p; }");
        assert!(matches!(r.status, Status::Trapped(Trap::Mem { .. })), "{:?}", r.status);
    }

    #[test]
    fn division_by_zero_traps() {
        let r = run_baseline("int main() { int a = 4; int b = 0; return a / b; }");
        assert!(matches!(r.status, Status::Trapped(Trap::DivByZero { .. })));
    }

    #[test]
    fn externals_record_events_and_strip() {
        let src = r#"
            extern void* dlopen(char* name, int flags);
            int main() {
                void* h = dlopen("libm.so", 2);
                if (h == null) { return 7; }
                return 1;
            }
        "#;
        let r = run_mech(src, Mechanism::Stwc);
        assert_eq!(r.status, Status::Exited(7), "{:?}", r.status);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].name, "dlopen");
        assert!(r.events[0].critical);
    }

    #[test]
    fn globals_and_static_code_pointers() {
        let src = r#"
            int counter = 10;
            void tick() { counter = counter + 2; }
            void (*g_hook)() = tick;
            int main() {
                g_hook();
                g_hook();
                return counter;
            }
        "#;
        for (mech, r) in Mechanism::ALL.iter().zip(run_all_mechs(src)) {
            assert_eq!(r.status, Status::Exited(14), "{mech}: {:?}", r.status);
        }
    }

    #[test]
    fn attack_unsigned_overwrite_is_detected_by_rsti_but_not_baseline() {
        // The canonical experiment: corrupt a signed function pointer in
        // memory with a raw code address. Baseline: hijack succeeds.
        // RSTI: authentication failure.
        let src = r#"
            void benign() { print_str("benign"); }
            void evil() { print_str("EVIL"); }
            struct ctx { void (*cb)(); };
            struct ctx* g_ctx;
            void dispatch() { g_ctx->cb(); }
            int main() {
                g_ctx = (struct ctx*) malloc(sizeof(struct ctx));
                g_ctx->cb = benign;
                dispatch();
                return 0;
            }
        "#;
        let m = compile(src, "t").unwrap();

        // Baseline run: overwrite cb with &evil after main sets it up.
        let img = Image::baseline(&m);
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("dispatch"), RunStop::Entered);
        let obj = vm.heap_live()[0].0;
        let evil = vm.func_addr("evil").unwrap();
        vm.attacker_write_u64(obj, evil).unwrap();
        let r = vm.finish();
        assert_eq!(r.status, Status::Exited(0));
        assert_eq!(r.output, vec!["EVIL"], "unprotected hijack must succeed");

        // Instrumented: same corruption, detection expected.
        for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
            let p = rsti_core::instrument(&m, mech);
            let img = Image::from_instrumented(&p);
            let mut vm = Vm::new(&img);
            assert_eq!(vm.run_to_function("dispatch"), RunStop::Entered);
            let obj = vm.heap_live()[0].0;
            let evil = vm.func_addr("evil").unwrap();
            vm.attacker_write_u64(obj, evil).unwrap();
            let r = vm.finish();
            match &r.status {
                Status::Trapped(t) if t.is_detection() => {}
                other => panic!("{mech}: expected detection, got {other:?}"),
            }
            assert!(r.output.is_empty(), "{mech}: payload must not run");
        }
    }

    #[test]
    fn cycle_overhead_ordering_stc_stwc_stl() {
        // A pointer-heavy workload: overhead(STC) <= overhead(STWC) <=
        // overhead(STL), the paper's Figure 9 ordering.
        let src = r#"
            struct node { int key; struct node* next; };
            struct node* reverse(struct node* head) {
                struct node* prev = null;
                while (head != null) {
                    struct node* next = head->next;
                    head->next = prev;
                    prev = head;
                    head = next;
                }
                return prev;
            }
            int main() {
                struct node* head = null;
                for (int i = 0; i < 50; i = i + 1) {
                    struct node* n = (struct node*) malloc(sizeof(struct node));
                    n->key = i;
                    n->next = head;
                    head = n;
                }
                for (int r = 0; r < 10; r = r + 1) { head = reverse(head); }
                return head->key;
            }
        "#;
        let base = run_baseline(src).cycles as f64;
        let stc = run_mech(src, Mechanism::Stc).cycles as f64 / base;
        let stwc = run_mech(src, Mechanism::Stwc).cycles as f64 / base;
        let stl = run_mech(src, Mechanism::Stl).cycles as f64 / base;
        assert!(stc >= 1.0);
        assert!(stc <= stwc + 1e-9, "stc={stc} stwc={stwc}");
        assert!(stwc <= stl + 1e-9, "stwc={stwc} stl={stl}");
    }

    #[test]
    fn dynamic_site_profile_matches_mechanism() {
        let src = r#"
            struct s { long v; };
            void eat(void* raw) {
                struct s* p = (struct s*) raw;
                p->v = p->v + 1;
            }
            int main() {
                struct s* a = (struct s*) malloc(sizeof(struct s));
                a->v = 0;
                for (int i = 0; i < 5; i = i + 1) { eat((void*) a); }
                return (int) a->v;
            }
        "#;
        // STC: no cast re-signing executes; STWC: some does; both agree on
        // store/load counts.
        let stc = run_mech(src, Mechanism::Stc);
        let stwc = run_mech(src, Mechanism::Stwc);
        assert_eq!(stc.status, Status::Exited(5));
        assert_eq!(stwc.status, Status::Exited(5));
        let idx = |site| SITE_ORDER.iter().position(|&s| s == site).unwrap();
        use rsti_ir::PacSite;
        assert_eq!(stc.site_counts[idx(PacSite::CastResign)], 0, "{:?}", stc.site_counts);
        assert!(stwc.site_counts[idx(PacSite::CastResign)] > 0, "{:?}", stwc.site_counts);
        assert_eq!(
            stc.site_counts[idx(PacSite::OnStore)],
            stwc.site_counts[idx(PacSite::OnStore)]
        );
        assert!(stwc.site_counts[idx(PacSite::OnLoad)] > 0);
    }

    #[test]
    fn mac_table_backend_runs_programs_identically() {
        // §7: the STI policy is enforcement-agnostic — a CCFI-style MAC
        // table enforces the same modifiers without touching pointer bits.
        let src = r#"
            struct node { int key; struct node* next; };
            void hello() { print_str("cb"); }
            void (*g_cb)() = hello;
            int main() {
                struct node* head = null;
                for (int i = 0; i < 8; i = i + 1) {
                    struct node* n = (struct node*) malloc(sizeof(struct node));
                    n->key = i;
                    n->next = head;
                    head = n;
                }
                g_cb();
                int acc = 0;
                while (head != null) { acc = acc + head->key; head = head->next; }
                return acc;
            }
        "#;
        let m = compile(src, "t").unwrap();
        for mech in Mechanism::ALL {
            let p = rsti_core::instrument(&m, mech);
            let img = Image::from_instrumented(&p).with_backend(Backend::MacTable);
            let r = Vm::new(&img).run();
            assert_eq!(r.status, Status::Exited(28), "{mech}: {:?}", r.status);
            assert_eq!(r.output, vec!["cb"], "{mech}");
        }
    }

    #[test]
    fn loader_signs_count_alike_under_both_backends() {
        // Signed global initializers are signs under either enforcement
        // backend: the loader signs through the sign op's split.
        let src = r#"
            int f(int x) { return x + 1; }
            int (*fp)(int) = f;
            char* s = "hi";
            int main() { return fp(2); }
        "#;
        let m = compile(src, "t").unwrap();
        for mech in Mechanism::ALL {
            let p = rsti_core::instrument(&m, mech);
            let [pac, mac] = [Backend::PacInPointer, Backend::MacTable]
                .map(|b| Vm::new(&Image::from_instrumented(&p).with_backend(b)).run());
            assert_eq!(pac.status, Status::Exited(3), "{mech}: {:?}", pac.status);
            assert!(pac.pac_signs > 0, "{mech}");
            assert_eq!((mac.pac_signs, mac.cycles), (pac.pac_signs, pac.cycles), "{mech}");
        }
    }

    #[test]
    fn mac_table_backend_detects_corruption() {
        let src = r#"
            void benign() { }
            void evil() { print_str("EVIL"); }
            struct ctx { long pad; void (*cb)(); };
            struct ctx* g_ctx;
            void dispatch() { g_ctx->cb(); }
            int main() {
                g_ctx = (struct ctx*) malloc(sizeof(struct ctx));
                g_ctx->cb = benign;
                dispatch();
                return 0;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let p = rsti_core::instrument(&m, Mechanism::Stwc);
        let img = Image::from_instrumented(&p).with_backend(Backend::MacTable);
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("dispatch"), RunStop::Entered);
        let obj = vm.heap_live()[0].0;
        let evil = vm.func_addr("evil").unwrap();
        vm.attacker_write_u64(obj + 8, evil).unwrap();
        let r = vm.finish();
        assert!(
            matches!(&r.status, Status::Trapped(t) if t.is_detection()),
            "{:?}",
            r.status
        );
        // Under MacTable, pointers in memory stay canonical (no PAC bits) —
        // the protection is entirely in the shadow table.
        assert!(r.output.is_empty());
    }

    #[test]
    fn mac_table_is_slot_bound_even_for_same_class_substitution() {
        // The shadow table is indexed by slot, so even two same-RSTI-type
        // pointers cannot be substituted — stronger than PAC-in-pointer
        // STWC, akin to STL (see DESIGN.md on the CCFI modelling choice).
        let src = r#"
            struct item { long v; };
            struct item* a;
            struct item* b;
            long consume() { return a->v + b->v; }
            int main() {
                a = (struct item*) malloc(sizeof(struct item));
                b = (struct item*) malloc(sizeof(struct item));
                a->v = 1;
                b->v = 2;
                return (int) consume();
            }
        "#;
        let m = compile(src, "t").unwrap();
        let p = rsti_core::instrument(&m, Mechanism::Stwc);
        let img = Image::from_instrumented(&p).with_backend(Backend::MacTable);
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("consume"), RunStop::Entered);
        let src_a = vm.global_addr("b").unwrap();
        let dst_a = vm.global_addr("a").unwrap();
        let bytes = vm.attacker_read(src_a, 8).unwrap();
        vm.attacker_write(dst_a, &bytes).unwrap();
        let r = vm.finish();
        assert!(
            matches!(&r.status, Status::Trapped(t) if t.is_detection()),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn adaptive_instrumentation_closes_large_class_substitution() {
        // Two same-fact pointers are substitutable under plain STWC
        // (shared RSTI-type), but adaptive hardening (threshold 1) binds
        // their slots' locations and detects the replay — the paper's §7
        // proposal, end to end.
        let src = r#"
            struct item { long v; };
            struct item* a;
            struct item* b;
            long consume() { return a->v + b->v; }
            int main() {
                a = (struct item*) malloc(sizeof(struct item));
                b = (struct item*) malloc(sizeof(struct item));
                a->v = 1;
                b->v = 2;
                return (int) consume();
            }
        "#;
        let m = compile(src, "t").unwrap();
        let substitute = |img: &Image| {
            let mut vm = Vm::new(img);
            assert_eq!(vm.run_to_function("consume"), RunStop::Entered);
            let src_a = vm.global_addr("b").unwrap();
            let dst_a = vm.global_addr("a").unwrap();
            let bytes = vm.attacker_read(src_a, 8).unwrap();
            vm.attacker_write(dst_a, &bytes).unwrap();
            vm.finish()
        };
        // Plain STWC: same class → substitution passes.
        let stwc = Image::from_instrumented(&rsti_core::instrument(&m, Mechanism::Stwc));
        let r = substitute(&stwc);
        assert_eq!(r.status, Status::Exited(4), "{:?}", r.status);
        // Adaptive: the 2-member class exceeds threshold 1 → locations
        // bound → detected.
        let adaptive = Image::from_instrumented(&rsti_core::instrument_adaptive(&m, 1));
        let r = substitute(&adaptive);
        assert!(
            matches!(&r.status, Status::Trapped(t) if t.is_detection()),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn auth_elision_preserves_semantics_and_detection() {
        let src = r#"
            struct s { long a; long b; };
            struct s* g;
            long churn() {
                long acc = 0;
                for (int i = 0; i < 10; i = i + 1) {
                    acc = acc + g->a + g->b + g->a;
                }
                return acc;
            }
            int main() {
                g = (struct s*) malloc(sizeof(struct s));
                g->a = 2;
                g->b = 3;
                return (int) churn();
            }
        "#;
        let m = compile(src, "t").unwrap();
        let plain = rsti_core::instrument(&m, Mechanism::Stwc);
        let mut opt = rsti_core::instrument(&m, Mechanism::Stwc);
        let elided = rsti_core::optimize_program_at(&mut opt, rsti_core::OptLevel::Cfg).total();
        assert!(elided > 0, "churn re-reads g repeatedly");

        let r_plain = Vm::new(&Image::from_instrumented(&plain)).run();
        let r_opt = Vm::new(&Image::from_instrumented(&opt)).run();
        assert_eq!(r_plain.status, Status::Exited(70));
        assert_eq!(r_opt.status, r_plain.status);
        assert!(
            r_opt.pac_auths < r_plain.pac_auths,
            "optimized: {} vs {}",
            r_opt.pac_auths,
            r_plain.pac_auths
        );
        assert!(r_opt.cycles < r_plain.cycles);

        // Detection at the re-check boundary still works: corrupt before
        // `churn` runs — its first (non-elided) auth fires.
        let img = Image::from_instrumented(&opt);
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("churn"), RunStop::Entered);
        let slot = vm.global_addr("g").unwrap();
        vm.attacker_write_u64(slot, 0x4000_0000_0040).unwrap();
        let r = vm.finish();
        assert!(
            matches!(&r.status, Status::Trapped(t) if t.is_detection()),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn do_while_and_compound_ops_execute() {
        let r = run_baseline(
            r#"
            int main() {
                int acc = 0;
                int i = 0;
                do { acc += i; i++; } while (i < 5);
                acc *= 3;       // (0+1+2+3+4)*3 = 30
                acc -= 5;       // 25
                return acc;
            }
        "#,
        );
        assert_eq!(r.status, Status::Exited(25));
    }

    #[test]
    fn shadow_stack_assumption_demonstrated() {
        // §3: RSTI assumes return addresses are protected elsewhere. With
        // the shadow stack off, a classic saved-return overwrite redirects
        // control even under full RSTI-STL — with it on (the default),
        // the same corruption is inert.
        let src = r#"
            extern void system(char* cmd);
            long helper(long x) {
                long y = x * 2;
                return y;
            }
            int main() {
                long r = helper(21);
                return (int) r;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let p = rsti_core::instrument(&m, Mechanism::Stl);

        // No shadow stack: hijack the return to libc system().
        let img = Image::from_instrumented(&p).without_shadow_stack();
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("helper"), RunStop::Entered);
        let slot = vm.current_ret_slot().expect("ret slot spilled");
        let system = vm.func_addr("system").unwrap();
        vm.attacker_write_u64(slot, system).unwrap();
        let r = vm.finish();
        assert!(
            r.events.iter().any(|e| e.name == "system"),
            "ROP must reach system() without a shadow stack: {:?}",
            r.status
        );

        // Shadow stack (default): the same write has no control effect.
        let img = Image::from_instrumented(&p);
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("helper"), RunStop::Entered);
        assert_eq!(vm.current_ret_slot(), None, "return address not in memory");
        let r = vm.finish();
        assert_eq!(r.status, Status::Exited(42));
        assert!(r.events.is_empty());
    }

    #[test]
    fn benign_runs_unaffected_without_shadow_stack() {
        let src = r#"
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main() { return fib(12); }
        "#;
        let m = compile(src, "t").unwrap();
        let img = Image::baseline(&m).without_shadow_stack();
        let r = Vm::new(&img).run();
        assert_eq!(r.status, Status::Exited(144));
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let m = compile("int main() { while (true) { } return 0; }", "t").unwrap();
        let img = Image::baseline(&m);
        let mut vm = Vm::new(&img);
        vm.set_fuel(10_000);
        let r = vm.run();
        assert_eq!(r.status, Status::Trapped(Trap::FuelExhausted));
    }

    #[test]
    fn indirect_call_to_data_traps_as_non_function() {
        // DEP: function pointers must resolve to real code addresses.
        let src = r#"
            struct box { long pad; void (*fp)(); };
            struct box* g;
            void f() { }
            void fire() { g->fp(); }
            int main() {
                g = (struct box*) malloc(sizeof(struct box));
                g->fp = f;
                fire();
                return 0;
            }
        "#;
        let m = compile(src, "t").unwrap();
        // Baseline (no PAC): plant a heap address — the call itself traps.
        let img = Image::baseline(&m);
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("fire"), RunStop::Entered);
        let obj = vm.heap_live()[0].0;
        vm.attacker_write_u64(obj + 8, obj).unwrap();
        let r = vm.finish();
        assert!(
            matches!(r.status, Status::Trapped(Trap::CallNonFunction { .. })),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn signed_pointer_dereferenced_raw_is_non_canonical() {
        // A signed pointer used as an address WITHOUT authentication is
        // non-canonical and faults — why uninstrumented consumers need the
        // strip at the boundary (§7 "Handling external code").
        let m = compile("int main() { return 0; }", "t").unwrap();
        let img = Image::baseline(&m);
        let vm = Vm::new(&img);
        let signed = {
            let mut pac = rsti_pac::PacUnit::for_tests();
            pac.sign(rsti_pac::KeyId::Da, crate::layout::HEAP_BASE, 1)
        };
        assert!(vm.attacker_read(signed, 1).is_err(), "PAC bits break translation");
        let _ = vm;
    }

    #[test]
    fn misaligned_function_address_rejected() {
        let src = r#"
            struct box { long pad; void (*fp)(); };
            struct box* g;
            void f() { }
            void fire() { g->fp(); }
            int main() {
                g = (struct box*) malloc(sizeof(struct box));
                g->fp = f;
                fire();
                return 0;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let img = Image::baseline(&m);
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("fire"), RunStop::Entered);
        let obj = vm.heap_live()[0].0;
        let f_addr = vm.func_addr("f").unwrap();
        // Mid-function address (gadget offset): stride misaligned.
        vm.attacker_write_u64(obj + 8, f_addr + 4).unwrap();
        let r = vm.finish();
        assert!(
            matches!(r.status, Status::Trapped(Trap::CallNonFunction { .. })),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn stack_recursion_overflow() {
        let r = run_baseline("int f(int n) { return f(n + 1); } int main() { return f(0); }");
        assert!(matches!(r.status, Status::Trapped(Trap::StackOverflow)), "{:?}", r.status);
    }

    #[test]
    fn module_without_main_traps_instead_of_panicking() {
        let m = compile("int helper() { return 1; }", "t").unwrap();
        let img = Image::baseline(&m);
        let r = Vm::new(&img).run();
        assert!(
            matches!(&r.status, Status::Trapped(Trap::BadProgram(s)) if s.contains("main")),
            "{:?}",
            r.status
        );
        assert!(r.audit.is_empty(), "BadProgram is not an RSTI detection");
    }

    #[test]
    fn with_backend_retranslates_and_a_clone_shares_the_translation() {
        // The backend is folded into the translation: switching it on an
        // already-translated image must give MAC-table semantics (a fresh
        // translation), while a plain clone reuses the translation.
        use std::sync::Arc;
        let src = r#"
            void benign() { }
            void evil() { print_str("EVIL"); }
            struct ctx { long pad; void (*cb)(); };
            struct ctx* g_ctx;
            void dispatch() { g_ctx->cb(); }
            int main() {
                g_ctx = (struct ctx*) malloc(sizeof(struct ctx));
                g_ctx->cb = benign;
                dispatch();
                return 0;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let corrupted = |img: &Image| {
            let mut vm = Vm::new(img);
            assert_eq!(vm.run_to_function("dispatch"), RunStop::Entered);
            let obj = vm.heap_live()[0].0;
            let evil = vm.func_addr("evil").unwrap();
            vm.attacker_write_u64(obj + 8, evil).unwrap();
            vm.finish()
        };
        let pac = Image::from_instrumented(&rsti_core::instrument(&m, Mechanism::Stwc));
        let r = corrupted(&pac);
        assert!(r.audit[0].detail.starts_with("found PAC"), "{:?}", r.audit);
        let code = pac.compiled();
        assert!(Arc::ptr_eq(code, pac.clone().compiled()), "a clone retranslated");

        let mac = pac.clone().with_backend(Backend::MacTable);
        let r = corrupted(&mac);
        assert!(!Arc::ptr_eq(code, mac.compiled()), "the MAC image reused PAC code");
        assert!(r.audit[0].detail.starts_with("MAC missing or stale"), "{:?}", r.audit);
        assert!(r.output.is_empty());
    }

    #[test]
    fn block_precharge_is_the_default_accounting_for_every_constructor() {
        let m = compile("int main() { return 0; }", "t").unwrap();
        let p = rsti_core::instrument(&m, Mechanism::Stwc);
        assert_eq!(ExecBackend::default(), ExecBackend::Compiled);
        for img in [
            Image::from_instrumented(&p),
            Image::from_instrumented_owned(p.clone()),
            Image::baseline(&m),
            Image::baseline_owned(m.clone()),
        ] {
            assert_eq!(img.exec(), ExecBackend::Compiled);
        }
    }

    #[test]
    fn a_second_run_of_an_image_translates_nothing_under_either_engine() {
        // Both engines execute the image's one cached translation: the
        // first run fills the cache, every later run (and clone) reuses it.
        use std::sync::Arc;
        let m = compile("int main() { print_int(7); return 0; }", "t").unwrap();
        let p = rsti_core::instrument(&m, Mechanism::Stwc);
        for exec in [ExecBackend::Interp, ExecBackend::Compiled] {
            let img = Image::from_instrumented(&p).with_exec(exec);
            assert!(format!("{img:?}").contains("<uninit>"));
            let first = Vm::new(&img).run();
            assert!(format!("{img:?}").contains("CompiledModule("), "{exec:?}");
            let code = img.compiled();
            let second = Vm::new(&img.clone()).run();
            assert!(Arc::ptr_eq(code, img.compiled()), "{exec:?} retranslated");
            assert_eq!(first, second);
        }
    }

    #[test]
    fn violation_produces_audit_record_naming_mechanism_and_site() {
        let src = r#"
            void benign() { }
            void evil() { print_str("EVIL"); }
            struct ctx { void (*cb)(); };
            struct ctx* g_ctx;
            void dispatch() { g_ctx->cb(); }
            int main() {
                g_ctx = (struct ctx*) malloc(sizeof(struct ctx));
                g_ctx->cb = benign;
                dispatch();
                return 0;
            }
        "#;
        let m = compile(src, "t").unwrap();
        for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
            let p = rsti_core::instrument(&m, mech);
            let img = Image::from_instrumented(&p);
            let mut vm = Vm::new(&img);
            assert_eq!(vm.run_to_function("dispatch"), RunStop::Entered);
            let obj = vm.heap_live()[0].0;
            let evil = vm.func_addr("evil").unwrap();
            vm.attacker_write_u64(obj, evil).unwrap();
            let r = vm.finish();
            assert!(matches!(&r.status, Status::Trapped(t) if t.is_detection()));
            assert_eq!(r.audit.len(), 1, "{mech}: one record per detection");
            let rec = &r.audit[0];
            assert_eq!(rec.mechanism, mech.name(), "{mech}");
            assert_eq!(rec.site, "on_load");
            assert_eq!(rec.inst, "pac_auth");
            assert_eq!(rec.func, "dispatch");
            assert!(rec.detail.contains("PAC"), "{}", rec.detail);
        }
    }
}
