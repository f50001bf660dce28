//! The benchmark-proxy suites: one named workload per benchmark the paper
//! evaluates (SPEC CPU 2017, SPEC CPU 2006, nbench, CPython/PyTorch,
//! NGINX).
//!
//! Each proxy's kernel mix follows the paper's characterization:
//! "perlbench, povray, and xalancbmk ... are known to heavily dereference
//! pointers, either in a loop or very frequently" (§6.3.2) — those get
//! pointer-chasing and dispatch kernels; the numeric codes (lbm, namd,
//! nab, imagick, most of nbench) spend their time in scalar loops that
//! RSTI does not instrument, which is what keeps their overhead near zero.

use crate::kernels::*;
use crate::nbench_kernels;
use rsti_frontend::compile;
use rsti_ir::Module;

/// Which published suite a workload proxies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU 2017.
    Spec2017,
    /// SPEC CPU 2006.
    Spec2006,
    /// nbench.
    Nbench,
    /// CPython running PyTorch benchmarks.
    Cpython,
    /// NGINX under wrk load.
    Nginx,
}

impl Suite {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Spec2017 => "SPEC CPU2017",
            Suite::Spec2006 => "SPEC CPU2006",
            Suite::Nbench => "nbench",
            Suite::Cpython => "CPython PyTorch",
            Suite::Nginx => "NGINX",
        }
    }
}

/// A named benchmark proxy.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (paper spelling).
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// The MiniC program.
    pub source: String,
}

impl Workload {
    /// Compiles the proxy to IR.
    ///
    /// # Panics
    /// Panics when the generated source does not compile — a bug in the
    /// kernel generators, caught by the suite tests.
    pub fn module(&self) -> Module {
        compile(&self.source, self.name)
            .unwrap_or_else(|e| panic!("workload {}: {e}", self.name))
    }

    /// [`Workload::module`] after the proxies' one preparation step: leaf
    /// inlining at [`rsti_core::LEAF_INLINE_BUDGET`] (the LTO model),
    /// before any instrumentation. Every Fig. 9-style cell starts here.
    pub fn proxy_module(&self) -> Module {
        let mut m = self.module();
        rsti_core::inline_leaf_functions(&mut m, rsti_core::LEAF_INLINE_BUDGET);
        m
    }
}

fn wl(name: &'static str, suite: Suite, kernels: &[Kernel]) -> Workload {
    Workload { name, suite, source: assemble(kernels) }
}

/// The SPEC CPU 2017 proxies (the benchmarks of Figure 9's x-axis).
pub fn spec2017() -> Vec<Workload> {
    use Suite::Spec2017 as S;
    vec![
        wl("500.perlbench_r", S, &[
            list_kernel("pl", 120, 20),
            dispatch_kernel("pd", 24, 30),
            string_kernel("ps", 96, 30),
            interp_kernel("pi", 48, 20),
            numeric_kernel("pn", 1000, 9),
        ]),
        wl("505.mcf_r", S, &[graph_kernel("mg", 160, 30), list_kernel("ml", 60, 10), numeric_kernel("mn", 1800, 30)]),
        wl("520.omnetpp_r", S, &[
            dispatch_kernel("od", 32, 30),
            list_kernel("ol", 100, 16),
            server_kernel("ov", 8, 12),
            numeric_kernel("on", 640, 7),
        ]),
        wl("523.xalancbmk_r", S, &[
            dispatch_kernel("xd", 32, 36),
            tree_kernel("xt", 150, 16),
            string_kernel("xs", 96, 24),
            numeric_kernel("xn", 770, 10),
        ]),
        wl("531.deepsjeng_r", S, &[tree_kernel("jt", 120, 12), numeric_kernel("jn", 600, 72)]),
        wl("541.leela_r", S, &[tree_kernel("lt", 100, 10), numeric_kernel("ln", 700, 56)]),
        wl("557.xz_r", S, &[string_kernel("zs", 128, 16), numeric_kernel("zn", 800, 55)]),
        wl("600.perlbench_s", S, &[
            list_kernel("ql", 110, 18),
            dispatch_kernel("qd", 24, 28),
            string_kernel("qs", 96, 26),
            interp_kernel("qi", 48, 18),
            numeric_kernel("qn", 900, 9),
        ]),
        wl("605.mcf_s", S, &[graph_kernel("ng", 150, 28), list_kernel("nl", 60, 9), numeric_kernel("nn", 1700, 28)]),
        wl("620.omnetpp_s", S, &[
            dispatch_kernel("rd", 30, 28),
            list_kernel("rl", 100, 15),
            server_kernel("rv", 8, 11),
            numeric_kernel("rn", 600, 7),
        ]),
        wl("623.xalancbmk_s", S, &[
            dispatch_kernel("yd", 30, 34),
            tree_kernel("yt", 140, 15),
            string_kernel("ys", 96, 22),
            numeric_kernel("yn", 720, 10),
        ]),
        wl("631.deepsjeng_s", S, &[tree_kernel("kt", 110, 11), numeric_kernel("kn", 600, 68)]),
        wl("641.leela_s", S, &[tree_kernel("ut", 95, 10), numeric_kernel("un", 700, 52)]),
        wl("657.xz_s", S, &[string_kernel("ws", 120, 15), numeric_kernel("wn", 800, 52)]),
        wl("508.namd_r", S, &[float_kernel("af", 2500, 30)]),
        wl("510.parest_r", S, &[float_kernel("bf", 2000, 28), graph_kernel("bg", 40, 6)]),
        wl("511.povray_r", S, &[
            float_kernel("cf", 1200, 35),
            dispatch_kernel("cd", 24, 28),
            list_kernel("cl", 90, 14),
        ]),
        wl("519.lbm_r", S, &[float_kernel("df", 3000, 30)]),
        wl("538.imagick_r", S, &[float_kernel("ef", 2600, 28), string_kernel("es", 48, 6)]),
        wl("544.nab_r", S, &[float_kernel("ff", 2400, 28), numeric_kernel("fn", 500, 10)]),
        wl("619.lbm_s", S, &[float_kernel("gf", 2800, 30)]),
        wl("638.imagick_s", S, &[float_kernel("hf", 2500, 27), string_kernel("hs", 48, 6)]),
        wl("644.nab_s", S, &[float_kernel("if2", 2300, 27), numeric_kernel("in2", 500, 10)]),
    ]
}

/// The SPEC CPU 2006 proxies (Table 3 + Figure 10).
pub fn spec2006() -> Vec<Workload> {
    use Suite::Spec2006 as S;
    vec![
        wl("perlbench", S, &[
            list_kernel("apl", 120, 20),
            dispatch_kernel("apd", 24, 30),
            string_kernel("aps", 96, 28),
            interp_kernel("api", 48, 18),
            numeric_kernel("apn", 950, 9),
        ]),
        wl("bzip2", S, &[string_kernel("abs", 128, 16), numeric_kernel("abn", 800, 28)]),
        wl("mcf", S, &[graph_kernel("amg", 170, 30), numeric_kernel("amn2", 1500, 28)]),
        wl("milc", S, &[float_kernel("amf", 2400, 28), numeric_kernel("amn", 300, 8)]),
        wl("namd", S, &[float_kernel("anf", 2600, 30)]),
        wl("gobmk", S, &[tree_kernel("agt", 130, 12), numeric_kernel("agn", 500, 60)]),
        wl("dealII", S, &[
            tree_kernel("adt", 120, 10),
            float_kernel("adf", 1000, 14),
            dispatch_kernel("add", 20, 20),
        ]),
        wl("soplex", S, &[float_kernel("asf", 1600, 20), graph_kernel("asg", 80, 12)]),
        wl("povray", S, &[
            float_kernel("avf", 1200, 35),
            dispatch_kernel("avd", 24, 28),
            list_kernel("avl", 90, 14),
        ]),
        wl("hmmer", S, &[numeric_kernel("ahn", 900, 28), string_kernel("ahs", 64, 10)]),
        wl("libquantum", S, &[numeric_kernel("aqn", 1200, 30)]),
        wl("sjeng", S, &[tree_kernel("ajt", 110, 10), numeric_kernel("ajn", 600, 55)]),
        wl("h264ref", S, &[string_kernel("ars", 112, 14), numeric_kernel("arn", 700, 24)]),
        wl("lbm", S, &[float_kernel("alf", 3000, 30)]),
        wl("omnetpp", S, &[
            dispatch_kernel("aod", 30, 28),
            list_kernel("aol", 100, 15),
            server_kernel("aov", 8, 10),
            numeric_kernel("aon", 600, 7),
        ]),
        wl("astar", S, &[graph_kernel("aag", 120, 18), tree_kernel("aat", 80, 8), numeric_kernel("aan", 900, 30)]),
        wl("sphinx3", S, &[float_kernel("axf", 1800, 22), string_kernel("axs", 64, 8)]),
        wl("xalancbmk", S, &[
            dispatch_kernel("azd", 32, 36),
            tree_kernel("azt", 150, 16),
            string_kernel("azs", 96, 22),
            numeric_kernel("azn", 740, 10),
        ]),
    ]
}

/// The nbench proxies (§6.3.2's PARTS comparison runs here) — real
/// BYTEmark algorithms at reduced scale (see [`nbench_kernels`]).
pub fn nbench() -> Vec<Workload> {
    use Suite::Nbench as S;
    vec![
        wl("numeric sort", S, &[nbench_kernels::numeric_sort("b1", 256, 12)]),
        wl("string sort", S, &[nbench_kernels::string_sort("b2", 48, 8)]),
        wl("bitfield", S, &[nbench_kernels::bitfield("b3", 1024, 12)]),
        wl("fp emulation", S, &[nbench_kernels::fp_emulation("b4", 600, 12)]),
        wl("fourier", S, &[nbench_kernels::fourier("b5", 12, 12)]),
        wl("assignment", S, &[nbench_kernels::assignment("b6", 20, 12)]),
        wl("idea", S, &[nbench_kernels::idea("b7", 120, 12)]),
        wl("huffman", S, &[nbench_kernels::huffman("b8", 32, 10)]),
        wl("neural net", S, &[nbench_kernels::neural_net("b9", 24, 40)]),
        wl("lu decomposition", S, &[nbench_kernels::lu_decomposition("ba", 16, 10)]),
    ]
}

/// The CPython/PyTorch proxy (§6.3.2 "CPython 3.9").
pub fn cpython() -> Vec<Workload> {
    use Suite::Cpython as S;
    vec![
        wl("pytorch-forward", S, &[
            interp_kernel("c1", 64, 24),
            float_kernel("c1f", 1400, 18),
        ]),
        wl("pytorch-backward", S, &[
            interp_kernel("c2", 64, 22),
            float_kernel("c2f", 1500, 18),
            list_kernel("c2l", 60, 8),
        ]),
        wl("pytorch-optimizer", S, &[
            interp_kernel("c3", 48, 20),
            float_kernel("c3f", 1600, 20),
        ]),
    ]
}

/// The NGINX proxy (TLS transactions-per-second configuration, §6.3.1).
pub fn nginx() -> Vec<Workload> {
    vec![wl("NGINX", Suite::Nginx, &[
        server_kernel("w1", 12, 24),
        string_kernel("w1s", 96, 16),
        numeric_kernel("w1n", 600, 80),
    ])]
}

/// Every workload across all suites.
pub fn all_workloads() -> Vec<Workload> {
    let mut v = spec2017();
    v.extend(spec2006());
    v.extend(nbench());
    v.extend(cpython());
    v.extend(nginx());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_vm::{Image, Status, Vm};

    #[test]
    fn suites_have_paper_sizes() {
        assert_eq!(spec2017().len(), 23, "Figure 9 lists 23 SPEC2017 runs");
        assert_eq!(spec2006().len(), 18, "Table 3 lists 18 SPEC2006 benchmarks");
        assert_eq!(nbench().len(), 10);
        assert!(!cpython().is_empty());
        assert_eq!(nginx().len(), 1);
    }

    #[test]
    fn every_workload_compiles_and_runs_baseline() {
        for w in all_workloads() {
            let m = w.module();
            let img = Image::baseline(&m);
            let mut vm = Vm::new(&img);
            vm.set_fuel(80_000_000);
            let r = vm.run();
            assert!(
                matches!(r.status, Status::Exited(0)),
                "{}: {:?}",
                w.name,
                r.status
            );
        }
    }

    #[test]
    fn pointer_heavy_proxies_have_more_pac_sites_than_numeric_ones() {
        let find = |name: &str| {
            spec2006()
                .into_iter()
                .find(|w| w.name == name)
                .expect("workload exists")
        };
        let heavy = rsti_core::instrument(&find("perlbench").module(), rsti_core::Mechanism::Stwc);
        let light = rsti_core::instrument(&find("lbm").module(), rsti_core::Mechanism::Stwc);
        assert!(
            heavy.stats.total_pac_ops() > 5 * light.stats.total_pac_ops().max(1),
            "perlbench {} vs lbm {}",
            heavy.stats.total_pac_ops(),
            light.stats.total_pac_ops()
        );
    }
}
