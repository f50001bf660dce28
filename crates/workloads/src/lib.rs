//! # rsti-workloads — benchmark proxies and a random-program generator
//!
//! The paper evaluates RSTI on SPEC CPU 2006/2017, nbench, CPython/PyTorch,
//! and NGINX — none of which can be compiled by the reproduction's MiniC
//! frontend (nor licensed here). This crate substitutes *proxies*: MiniC
//! programs assembled from parameterized kernels ([`kernels`]) whose
//! pointer-operation density matches each benchmark's published character
//! ([`suites`]), so the *shape* of the overhead results (who is expensive,
//! who is free, where the mechanisms separate) reproduces Figures 9/10 and
//! Table 3. A seeded random-program generator ([`generator`]) provides
//! differential-testing inputs beyond the hand-written set.

#![warn(missing_docs)]

pub mod generator;
pub mod kernels;
pub mod nbench_kernels;
pub mod suites;

pub use generator::{generate_items, generate_source, AstGenConfig};
pub use suites::{all_workloads, cpython, nbench, nginx, spec2006, spec2017, Suite, Workload};
