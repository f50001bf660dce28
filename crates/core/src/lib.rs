//! # rsti-core — Scope-Type Integrity and the RSTI instrumentation pass
//!
//! This crate is the reproduction of the paper's contribution: the STI
//! policy analysis and the three Runtime Scope-Type Integrity enforcement
//! mechanisms, plus the PARTS baseline the paper compares against.
//!
//! * [`storage`] — resolving which variable a pointer access touches;
//! * [`sti`] — fact collection (type / scope / permission), escape
//!   widening, and RSTI-type construction per mechanism (paper §4.4–4.6);
//! * [`equivalence`] — the Table 3 analytics (NT/RT/NV/ECV/ECT);
//! * [`ptr2ptr`] — the Compact/Full Equivalent plan for lost-type double
//!   pointers (§4.7.7, Figure 7);
//! * [`mod@instrument`] — the pass inserting `pac`/`aut`/`xpac`/`pp_*`
//!   operations into the IR (§4.7).
//!
//! # Example
//!
//! ```
//! use rsti_core::{instrument, Mechanism};
//!
//! let m = rsti_frontend::compile(r#"
//!     int main() {
//!         int* p = (int*) malloc(sizeof(int));
//!         *p = 7;
//!         return *p;
//!     }
//! "#, "demo").unwrap();
//! let prog = instrument(&m, Mechanism::Stwc);
//! assert!(prog.stats.signs_on_store >= 1); // the store of p is signed
//! ```

#![warn(missing_docs)]

pub mod equivalence;
pub mod ipo;
pub mod optimize;
pub mod replay;
pub mod instrument;
pub mod ptr2ptr;
pub mod sites;
pub mod sti;
pub mod storage;

pub use equivalence::{equivalence_stats, EquivalenceStats};
pub use ipo::{
    fold_boundary_resigns, inline_small_functions, FuncSummary, IpoAnalysis, IPO_INLINE_BUDGET,
    LEAF_INLINE_BUDGET,
};
pub use instrument::{
    instrument, instrument_adaptive, GlobalSign, InstrumentStats, InstrumentedProgram, MechChoice,
};
pub use optimize::{
    compact_values, inline_leaf_functions, optimize_module, optimize_program_at, OptLevel,
    OptSummary,
};
pub use replay::{recommend, replay_surface, ReplaySurface, DEFAULT_ECV_THRESHOLD};
pub use ptr2ptr::{plan_pp, PpCensus, PpPlan, PpSite};
pub use sites::{check_kind, check_sites, pac_site_name, CheckSite};
pub use sti::{analyze, collect_facts, Mechanism, PointerVar, RstiClass, StiAnalysis, StiFacts};
pub use storage::{storage_of_addr, DefMap, StorageKey};
