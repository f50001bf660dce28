//! # rsti-ir — the intermediate representation underneath the RSTI pipeline
//!
//! This crate models the slice of LLVM IR that the RSTI paper's compiler
//! pass consumes and rewrites:
//!
//! * a typed instruction set with `alloca`/`load`/`store`, struct and array
//!   GEPs, `bitcast`, direct/indirect calls, and heap intrinsics
//!   ([`inst`]),
//! * a faithful debug-metadata layer carrying the **scope, type, and
//!   permission** facts STI extracts from `llvm.dbg` ([`debug`]),
//! * PAC pseudo-instructions and the pointer-to-pointer runtime calls that
//!   the instrumentation pass inserts (the analogue of `llvm.ptrauth.*`
//!   intrinsics and the compiler-rt `pp_*` library),
//! * a builder ([`builder::FunctionBuilder`]), a verifier
//!   ([`verify::verify_module`], over the total id check
//!   [`verify::check_ids`]), and a textual printer ([`printer`]).
//!
//! # Example
//!
//! Build and verify `int twice(int x) { return x + x; }`:
//!
//! ```
//! use rsti_ir::{Module, FunctionBuilder, FuncSig, BinOp};
//!
//! let mut m = Module::new("example");
//! let i32t = m.types.i32();
//! let f = m.declare_func("twice", FuncSig::new(i32t, vec![i32t]), false);
//! let mut b = FunctionBuilder::new(&mut m, f);
//! let x = b.param(0);
//! let r = b.bin(BinOp::Add, x, x, i32t);
//! b.ret(Some(r.into()));
//! b.finish();
//! rsti_ir::verify_module(&m).unwrap();
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod callgraph;
pub mod cfg;
pub mod debug;
pub mod dom;
pub mod function;
pub mod loops;
pub mod inst;
pub mod module;
pub mod printer;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use callgraph::{direct_callees, CallGraph};
pub use cfg::{term_successors, Cfg};
pub use debug::{DebugLoc, Scope, VarId, VarInfo, VarKind};
pub use dom::DomTree;
pub use function::{BasicBlock, BlockId, Function, InstNode, ValueId};
pub use inst::{BinOp, CmpOp, Inst, Operand, PacKey, PacSite, Terminator};
pub use loops::{insert_preheaders, LoopForest, NaturalLoop};
pub use module::{FuncId, GlobalDef, GlobalId, GlobalInit, Module, StrId, GLOBAL_SEG_BASE};
pub use printer::{print_function, print_inst, print_module};
pub use types::{FieldDef, FuncSig, StructDef, StructId, Type, TypeId, TypeLayout, TypeTable};
pub use verify::{check_ids, verify_module, VerifyError};
