//! Check-site enumeration: the stable site → function/source mapping the
//! attribution profiler keys on.
//!
//! A *check site* is one PAC-family instruction in the final (instrumented
//! and optimized) module — a `pac`/`aut`/`xpac` or a `pp_*` runtime call.
//! [`check_sites`] enumerates them in deterministic `(function, block,
//! instruction)` order over the module, so a site's index in the returned
//! table is a stable identity the VM agrees on: its translation walks
//! functions/blocks/insts in exactly this order and builds the same table
//! through [`CheckSite::at`], baking each index into its compiled op. Because the table is computed *after*
//! instrument/optimize, it survives every pass by construction — elided or
//! hoisted sites simply aren't in it, and the instrumentation pass already
//! propagates the source `DebugLoc` of the protected load/store onto the
//! PAC instruction it inserts, which is where [`CheckSite::line`] comes
//! from.
//!
//! The same scan-order rule is the **id stability contract** for the
//! interprocedural level: `--opt ipo` inlining splices callee bodies into
//! callers *before* this table is built, so an inlined check's id is the
//! caller-relative scan position of its spliced copy — deterministic for a
//! given (source, mechanism, level) triple — while its `line` keeps the
//! callee's source provenance (the splice keeps every `DebugLoc` verbatim).
//! Ids are **not** stable across optimization levels (elision changes the
//! set); they are stable across engines, runs, and processes at a fixed
//! level, which is what `--attr` attribution and incident lineage key on.
//! Property-tested in `crate::ipo` (`check_site_ids_stable_under_ipo_inlining`)
//! and, for cross-engine folded-stack bit-identity on the real mix, in the
//! bench crate's `attr_parity` suite.

use rsti_ir::{Inst, InstNode, Module, PacSite};
use std::sync::Arc;

/// One PAC-family instruction in the final module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSite {
    /// Dense site index: position in [`check_sites`] order.
    pub id: u32,
    /// Index of the containing function in `module.funcs`.
    pub func: u32,
    /// Containing function's symbol name, shared by every site of the
    /// function (one allocation per function, not per site).
    pub func_name: Arc<str>,
    /// Basic-block index within the function.
    pub block: u32,
    /// Instruction index within the block.
    pub inst: u32,
    /// Opcode kind: `pac_sign`, `pac_auth`, `pac_strip`, `pp_add`,
    /// `pp_sign`, `pp_add_tbi`, or `pp_auth`.
    pub kind: &'static str,
    /// Instrumentation-site class for sign/auth ops (`on_store`,
    /// `on_load`, ...); empty for strips and `pp_*` calls.
    pub site: &'static str,
    /// Source line of the protected access (0 when debug info is absent).
    pub line: u32,
}

impl CheckSite {
    /// `func_name:bbB:I` — the stable human label used in reports.
    pub fn label(&self) -> String {
        format!("{}:bb{}:{}", self.func_name, self.block, self.inst)
    }
}

/// Stable serialized name of a [`PacSite`] class (matches the audit-record
/// vocabulary).
pub fn pac_site_name(site: PacSite) -> &'static str {
    match site {
        PacSite::OnStore => "on_store",
        PacSite::OnLoad => "on_load",
        PacSite::CastResign => "cast_resign",
        PacSite::ArgResign => "arg_resign",
        PacSite::ExternalStrip => "external_strip",
        PacSite::NewPointer => "new_pointer",
    }
}

/// Classifies one instruction as a check site, returning `(kind, site)`.
pub fn check_kind(inst: &Inst) -> Option<(&'static str, &'static str)> {
    match inst {
        Inst::PacSign { site, .. } => Some(("pac_sign", pac_site_name(*site))),
        Inst::PacAuth { site, .. } => Some(("pac_auth", pac_site_name(*site))),
        Inst::PacStrip { .. } => Some(("pac_strip", "")),
        Inst::PpAdd { .. } => Some(("pp_add", "")),
        Inst::PpSign { .. } => Some(("pp_sign", "")),
        Inst::PpAddTbi { .. } => Some(("pp_add_tbi", "")),
        Inst::PpAuth { .. } => Some(("pp_auth", "")),
        _ => None,
    }
}

/// Enumerates every check site in the module, in deterministic
/// `(function, block, instruction)` order.
pub fn check_sites(module: &Module) -> Vec<CheckSite> {
    let mut sites = Vec::new();
    for (fi, func) in module.funcs.iter().enumerate() {
        let mut name = None;
        for (bi, block) in func.blocks.iter().enumerate() {
            for (ii, node) in block.insts.iter().enumerate() {
                let id = sites.len() as u32;
                sites.extend(CheckSite::at(id, fi, &func.name, &mut name, bi, ii, node));
            }
        }
    }
    sites
}

impl CheckSite {
    /// The site numbered `id` that instruction `ii` of block `bi` of
    /// function `fi` (named `name`) forms, or `None` when it is no check —
    /// the one rule behind [`check_sites`] and the VM's translation walk,
    /// which builds the same table. `shared` holds the function's shared
    /// name once its first site made it (start each function with `None`).
    pub fn at(
        id: u32,
        fi: usize,
        name: &str,
        shared: &mut Option<Arc<str>>,
        bi: usize,
        ii: usize,
        node: &InstNode,
    ) -> Option<Self> {
        let (kind, site) = check_kind(&node.inst)?;
        Some(CheckSite {
            id,
            func: fi as u32,
            func_name: shared.get_or_insert_with(|| name.into()).clone(),
            block: bi as u32,
            inst: ii as u32,
            kind,
            site,
            line: node.loc.as_ref().map_or(0, |l| l.line),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instrument, Mechanism};
    use rsti_frontend::compile;

    fn instrumented(src: &str, mech: Mechanism) -> Module {
        let module = compile(src, "sites_test").expect("compile");
        instrument(&module, mech).module
    }

    const SRC: &str = r#"
        int g;
        int use_ptr(int* p) { return *p; }
        int main() {
            int x = 7;
            int* p = &x;
            return use_ptr(p) + g;
        }
    "#;

    #[test]
    fn sites_enumerate_in_func_block_inst_order() {
        let m = instrumented(SRC, Mechanism::Stwc);
        let sites = check_sites(&m);
        assert!(!sites.is_empty(), "instrumented module has no check sites");
        // Dense ids, sorted by (func, block, inst).
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.id as usize, i);
        }
        let keys: Vec<(u32, u32, u32)> = sites.iter().map(|s| (s.func, s.block, s.inst)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "sites out of scan order");
        // Every site points at a real PAC-family instruction.
        for s in &sites {
            let node = &m.funcs[s.func as usize].blocks[s.block as usize].insts[s.inst as usize];
            assert!(check_kind(&node.inst).is_some(), "site {} is not a check", s.label());
            assert_eq!(m.funcs[s.func as usize].name, *s.func_name);
        }
    }

    #[test]
    fn sites_carry_source_lines_from_instrumentation() {
        let m = instrumented(SRC, Mechanism::Stwc);
        let sites = check_sites(&m);
        assert!(
            sites.iter().any(|s| s.line > 0),
            "no site inherited a source line: {:?}",
            sites.iter().map(CheckSite::label).collect::<Vec<_>>()
        );
        assert!(sites.iter().any(|s| s.kind == "pac_auth" || s.kind == "pac_sign"));
    }

    #[test]
    fn site_table_is_deterministic() {
        let a = check_sites(&instrumented(SRC, Mechanism::Stl));
        let b = check_sites(&instrumented(SRC, Mechanism::Stl));
        assert_eq!(a, b);
    }
}
