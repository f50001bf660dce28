//! Modules: the unit of whole-program analysis.
//!
//! The paper runs its pass in the LTO phase "after all the object files have
//! been combined into one" (§5) precisely so the analysis sees the entire
//! program at once. Our [`Module`] is that combined view: all functions,
//! globals, struct definitions, string literals, and the variable debug
//! table live together.

use crate::debug::{VarId, VarInfo};
use crate::function::Function;
use crate::types::{Sizer, TypeId, TypeTable};
use std::fmt;

/// Index of a function in a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Index of a global variable in a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Index of an interned string literal in a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrId(pub u32);

/// Initial value of a global.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInit {
    /// Zero-initialized storage.
    Zero,
    /// An integer constant.
    Int(i64),
    /// The address of a function (a statically initialized code pointer).
    FuncAddr(FuncId),
    /// The address of a string literal.
    Str(StrId),
}

/// A module-level global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Symbol name.
    pub name: String,
    /// Stored type.
    pub ty: TypeId,
    /// Debug variable record (type/scope/permission facts for STI).
    pub var: VarId,
    /// Initializer.
    pub init: GlobalInit,
}

/// Base virtual address of the globals segment.
///
/// This is *the* address contract between the VM's memory model
/// (`rsti-vm`'s `layout::GLOBAL_BASE` re-exports it) and the optimizer's
/// precomputed-modifier pass: global addresses are fully determined by the
/// module (see [`Module::global_addresses`]), so RSTI-STL's
/// location-mixing (`M ^ &p`, paper Fig. 5c) can be folded into the
/// instruction's modifier field at optimize time instead of being derived
/// on every executed check.
pub const GLOBAL_SEG_BASE: u64 = 0x2000_0000_0000;

/// A whole program.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Module name (reports only).
    pub name: String,
    /// The type universe.
    pub types: TypeTable,
    /// All functions; [`FuncId`] indexes here.
    pub funcs: Vec<Function>,
    /// All globals; [`GlobalId`] indexes here.
    pub globals: Vec<GlobalDef>,
    /// Interned string literals; [`StrId`] indexes here.
    pub strings: Vec<String>,
    /// The program-wide debug variable table; [`VarId`] indexes here.
    /// Covers locals, params, globals, and struct fields.
    pub vars: Vec<VarInfo>,
}

impl Module {
    /// An empty module with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Module { name: name.into(), ..Default::default() }
    }

    /// Looks up a function by symbol name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Looks up a global by symbol name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// The function behind an id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutable access to a function (instrumentation passes rewrite bodies).
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// Releases the spare capacity that rewriting in place leaves in the
    /// function bodies (instrumentation grows instruction lists, the
    /// optimizer shrinks them), so a module kept alive afterwards holds
    /// no more memory than a fresh copy of it would.
    pub fn shrink_to_fit(&mut self) {
        for f in &mut self.funcs {
            for b in &mut f.blocks {
                b.insts.shrink_to_fit();
            }
            f.blocks.shrink_to_fit();
            f.value_types.shrink_to_fit();
        }
    }

    /// The global behind an id.
    pub fn global(&self, id: GlobalId) -> &GlobalDef {
        &self.globals[id.0 as usize]
    }

    /// The debug record behind a variable id.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    /// Registers a debug variable and returns its id.
    pub fn add_var(&mut self, info: VarInfo) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(info);
        id
    }

    /// Interns a string literal.
    pub fn intern_str(&mut self, s: impl Into<String>) -> StrId {
        let s = s.into();
        if let Some(i) = self.strings.iter().position(|x| *x == s) {
            return StrId(i as u32);
        }
        let id = StrId(self.strings.len() as u32);
        self.strings.push(s);
        id
    }

    /// Total instruction count across all function bodies — the program
    /// "size" metric used when correlating overhead with instrumentation
    /// density (§6.3.2).
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }

    /// The virtual address every global will live at when this module is
    /// loaded, and the size in bytes of the globals segment: each global
    /// sits at `GLOBAL_SEG_BASE` plus the sizes of the preceding globals,
    /// each rounded up to a multiple of 8 bytes (at least 8), all
    /// saturating, sized by [`crate::TypeTable::size_of`]'s one pass.
    /// Deterministic per module — the VM's loader uses exactly this
    /// layout, which is what lets the optimizer precompute STL
    /// location-mixed modifiers statically.
    pub fn global_addresses(&self) -> (Vec<u64>, u64) {
        let mut sizer = Sizer::new(&self.types);
        let mut end = 0u64;
        let addrs = self
            .globals
            .iter()
            .map(|g| {
                let addr = GLOBAL_SEG_BASE.saturating_add(end);
                let size = sizer.size(g.ty).unwrap_or(u64::MAX);
                end = end.saturating_add(size.max(8).div_ceil(8).saturating_mul(8));
                addr
            })
            .collect();
        (addrs, end)
    }

    /// Iterator over `(FuncId, &Function)` pairs.
    pub fn funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debug::{Scope, VarKind};

    #[test]
    fn string_interning_dedups() {
        let mut m = Module::new("t");
        let a = m.intern_str("hello");
        let b = m.intern_str("hello");
        let c = m.intern_str("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(m.strings.len(), 2);
    }

    #[test]
    fn var_table_roundtrip() {
        let mut m = Module::new("t");
        let ty = m.types.i32();
        let id = m.add_var(VarInfo {
            name: "x".into(),
            ty,
            scope: Scope::Module,
            is_const: true,
            kind: VarKind::Global,
            line: 1,
        });
        assert_eq!(m.var(id).name, "x");
        assert!(m.var(id).is_const);
    }
}
