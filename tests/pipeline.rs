//! Cross-crate integration tests: source → IR → STI analysis →
//! instrumentation → VM execution, over the paper's figure programs and
//! the benchmark proxies.

use rsti_core::Mechanism;
use rsti_vm::{Image, Status, Vm};

fn run(src: &str, mech: Option<Mechanism>) -> rsti_vm::ExecResult {
    let m = rsti_frontend::compile(src, "it").expect("compiles");
    let img = Image::build(&m, mech, rsti_core::OptLevel::None).0;
    let mut vm = Vm::new(&img);
    vm.set_fuel(50_000_000);
    vm.run()
}

/// The paper's Figure 1 (libtiff) code shape runs cleanly when benign.
#[test]
fn figure1_libtiff_shape_runs_under_all_mechanisms() {
    let src = r#"
        struct tiff {
            long tif_scanlinesize;
            void (*tif_encoderow)(struct tiff* t);
        };
        void _TIFFNoRowEncode(struct tiff* t) {
            t->tif_scanlinesize = t->tif_scanlinesize + 1;
        }
        void _TIFFSetDefaultCompressionState(struct tiff* t) {
            t->tif_encoderow = _TIFFNoRowEncode;
        }
        struct tiff* TIFFOpen(int width, int length) {
            struct tiff* t = (struct tiff*) malloc(sizeof(struct tiff));
            t->tif_scanlinesize = width * length;
            _TIFFSetDefaultCompressionState(t);
            return t;
        }
        int TIFFWriteScanline(struct tiff* t) {
            t->tif_encoderow(t);
            return 1;
        }
        int main() {
            int uncompr_size = 8 * 4;
            char* uncomprbuf = (char*) malloc(uncompr_size);
            struct tiff* out = TIFFOpen(8, 4);
            if (TIFFWriteScanline(out) < 0) { return 1; }
            return 0;
        }
    "#;
    for mech in [None, Some(Mechanism::Stwc), Some(Mechanism::Stc), Some(Mechanism::Stl)] {
        let r = run(src, mech);
        assert_eq!(r.status, Status::Exited(0), "{mech:?}: {:?}", r.status);
    }
}

/// Figure 6's composite-type program produces identical output across
/// every configuration.
#[test]
fn figure6_output_identical_across_mechanisms() {
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
    let base = run(src, None);
    for mech in Mechanism::ALL {
        let r = run(src, Some(mech));
        assert_eq!(r.output, base.output, "{mech}");
        assert_eq!(r.status, base.status, "{mech}");
    }
}

/// A program exercising every MiniC feature at once survives the whole
/// pipeline under every mechanism.
#[test]
fn kitchen_sink_program() {
    let src = r#"
        extern void syslog(char* msg);
        struct inner { long tag; };
        struct outer { struct inner in; long (*measure)(struct outer* o); struct outer* link; };
        const char* g_banner = "sink";
        long g_total;
        long measure_impl(struct outer* o) { return o->in.tag * 2; }
        long chase(struct outer* head) {
            long acc = 0;
            while (head != null) {
                acc = acc + head->measure(head);
                head = head->link;
            }
            return acc;
        }
        void grow(struct outer** slot, long tag) {
            struct outer* o = (struct outer*) malloc(sizeof(struct outer));
            o->in.tag = tag;
            o->measure = measure_impl;
            o->link = *slot;
            *slot = o;
        }
        int main() {
            struct outer* head = null;
            for (int i = 1; i <= 5; i = i + 1) { grow(&head, i); }
            g_total = chase(head);
            double scale = 1.5;
            long scaled = (long) (scale * g_total);
            int small[4];
            small[0] = (int) scaled % 100;
            char c = 'x';
            bool flag = small[0] > 0 || c == 'y';
            if (flag && g_total == 30) {
                syslog(g_banner);
                print_int(scaled);
            }
            return (int) g_total;
        }
    "#;
    let base = run(src, None);
    assert_eq!(base.status, Status::Exited(30), "{:?}", base.status);
    assert_eq!(base.output, vec!["45"]);
    for mech in Mechanism::ALL {
        let r = run(src, Some(mech));
        assert_eq!(r.status, base.status, "{mech}: {:?}", r.status);
        assert_eq!(r.output, base.output, "{mech}");
        assert_eq!(r.events.len(), 1, "{mech}: syslog called once");
    }
}

/// The workload proxies produce identical results instrumented vs not —
/// instrumentation must never change semantics.
#[test]
fn representative_workloads_are_semantics_preserving() {
    for name in ["perlbench", "mcf", "xalancbmk", "lbm"] {
        let w = rsti_workloads::spec2006()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let m = w.module();
        let base = {
            let img = Image::baseline(&m);
            let mut vm = Vm::new(&img);
            vm.set_fuel(100_000_000);
            vm.run()
        };
        assert!(base.status.is_exit(), "{name}: {:?}", base.status);
        for mech in [Mechanism::Stwc, Mechanism::Stl] {
            let p = rsti_core::instrument(&m, mech);
            let img = Image::from_instrumented(&p);
            let mut vm = Vm::new(&img);
            vm.set_fuel(100_000_000);
            let r = vm.run();
            assert_eq!(r.status, base.status, "{name} {mech}");
            assert_eq!(r.output, base.output, "{name} {mech}");
        }
    }
}

/// Instrumentation counts relate across mechanisms the way §4.6 says.
#[test]
fn instrumentation_count_ordering_over_the_proxy_suite() {
    for w in rsti_workloads::spec2006() {
        let m = w.module();
        let stc = rsti_core::instrument(&m, Mechanism::Stc).stats.total_pac_ops();
        let stwc = rsti_core::instrument(&m, Mechanism::Stwc).stats.total_pac_ops();
        let stl = rsti_core::instrument(&m, Mechanism::Stl).stats.total_pac_ops();
        assert!(stc <= stwc, "{}: STC {stc} > STWC {stwc}", w.name);
        assert!(stwc <= stl, "{}: STWC {stwc} > STL {stl}", w.name);
    }
}

/// The CLI drives the same pipeline.
#[test]
fn cli_end_to_end() {
    let path = std::env::temp_dir().join("rsti_it_cli.mc");
    std::fs::write(
        &path,
        "int main() { long* p = (long*) malloc(8); *p = 11; print_int(*p); return 0; }",
    )
    .unwrap();
    let p = path.to_string_lossy().into_owned();
    for mech in ["stwc", "stc", "stl", "parts", "none"] {
        let (code, out) =
            rsti_cli::run_cli(&["run".into(), p.clone(), "--mech".into(), mech.into()]);
        assert_eq!(code, 0, "{mech}: {out}");
        assert!(out.contains("11"), "{mech}: {out}");
    }
}

/// Leaf inlining must not reuse a callee local across calls. The VM zeroes
/// a frame slot once per activation, so `bump`'s uninitialized `x` reads 0
/// on every call; spliced into the loop, the same slot would carry the
/// previous iteration's value and print `1 2 3` instead of `1 1 1`.
#[test]
fn leaf_inlining_keeps_callee_locals_fresh() {
    let src = r#"
        long bump() { long x; x = x + 1; return x; }
        int main() {
            for (int i = 0; i < 3; i = i + 1) { print_int(bump()); }
            return 0;
        }
    "#;
    let m = rsti_frontend::compile(src, "bump").expect("compiles");
    let plain = Vm::new(&Image::baseline(&m)).run();
    assert_eq!(plain.output, ["1", "1", "1"], "{:?}", plain.status);
    let mut inlined = m.clone();
    rsti_core::inline_leaf_functions(&mut inlined, rsti_core::LEAF_INLINE_BUDGET);
    let r = Vm::new(&Image::baseline(&inlined)).run();
    assert_eq!(r.status, plain.status);
    assert_eq!(r.output, plain.output);
}

/// One build recipe: `rsti run --stats`, a `serve` `run` response and
/// `Image::build` report the same cycles for every (defense, opt level)
/// cell of `samples/dispatcher.mc`, and the baseline is optimized at the
/// requested level on all three (933 at cfg; 958 unoptimized).
#[test]
fn cli_serve_and_image_build_share_one_recipe() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples/dispatcher.mc");
    let src = std::fs::read_to_string(path).expect("sample exists");
    let m = rsti_frontend::compile(&src, path).expect("compiles");
    let server = rsti_serve::Server::new(rsti_serve::ServeConfig::default());
    for mech in ["none", "stwc"] {
        for opt in ["none", "block", "cfg", "ipo"] {
            let cell = format!("{mech}/{opt}");
            let choice = rsti_core::MechChoice::parse(mech).unwrap();
            let level = rsti_core::OptLevel::parse(opt).unwrap();
            let built = Vm::new(&Image::build(&m, choice, level).0).run().cycles;

            let args = ["run", path, "--mech", mech, "--opt", opt, "--stats"].map(String::from);
            let (code, out) = rsti_cli::run_cli(&args);
            assert_eq!(code, 0, "{cell}: {out}");
            let cli = out
                .split("cycles: ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{cell}: no cycles in {out}"));

            let line = format!(
                "{{\"cmd\":\"run\",\"source\":{},\"mech\":\"{mech}\",\"opt\":\"{opt}\"}}",
                rsti_telemetry::json_str(&src)
            );
            let resp = server.handle_line(&line);
            let served = rsti_telemetry::parse_json(&resp)
                .ok()
                .and_then(|j| j.get("cycles").and_then(|c| c.as_u64()))
                .unwrap_or_else(|| panic!("{cell}: no cycles in {resp}"));

            assert_eq!((cli, served), (built, built), "{cell}");
            match (mech, opt) {
                ("none", "none") => assert_eq!(built, 958, "{cell}"),
                ("none", "cfg") => assert_eq!(built, 933, "{cell}"),
                ("stwc", "cfg") => assert_eq!(built, 1297, "{cell}"),
                _ => {}
            }
        }
    }
}
