//! # dart-ram — the RAM machine DART executes
//!
//! The DART paper (PLDI 2005, §2.2) formalizes program execution on a RAM
//! (Random Access Memory) machine: a memory `M` mapping addresses to words,
//! and statements that are assignments `m <- e`, conditionals
//! `if (e) then goto e'`, `abort` and `halt`. This crate implements that
//! machine — extended with explicit calls/returns, external-function calls
//! and allocations so the concolic layer can trace values
//! interprocedurally — together with a word-addressed [`Memory`] that makes
//! crashes (NULL dereference, out-of-bounds, use-after-return, stack
//! overflow) observable, and a step-wise interpreter ([`Machine`]) the
//! concolic executor drives one statement at a time.
//!
//! The MiniC front end (`dart-minic`) compiles to this IR; the DART engine
//! (`dart`) runs it both concretely (here) and symbolically (`dart-sym`).
//!
//! ## Quickstart
//!
//! ```
//! use dart_ram::{Expr, BinOp, Function, Machine, MachineConfig, Program, Statement, StepOutcome, ZeroEnv};
//!
//! // fn double(x) { return x + x; }
//! let program = Program {
//!     stmts: vec![Statement::Ret {
//!         value: Some(Expr::binary(BinOp::Add, Expr::local(0), Expr::local(0))),
//!     }],
//!     funcs: vec![Function { name: "double".into(), entry: 0, frame_words: 1, num_params: 1 }],
//!     ..Program::default()
//! };
//! program.validate()?;
//! let mut machine = Machine::new(&program, MachineConfig::default());
//! machine.call(program.func_by_name("double").unwrap(), &[21])?;
//! assert_eq!(machine.run(&mut ZeroEnv), StepOutcome::Finished { value: Some(42) });
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expr;
pub mod interp;
pub mod memory;
pub mod program;

pub use expr::{apply_binop, eval_concrete, BinOp, Expr, MemView, UnOp};
pub use interp::{Environment, Machine, MachineConfig, ResourceBudget, StepOutcome, ZeroEnv};
pub use memory::{
    AddrHasher, BuildAddrHasher, Fault, Memory, Region, GLOBAL_BASE, HEAP_BASE, STACK_BASE,
};
pub use program::{
    AllocKind, DecodedProgram, ExtId, External, FuncId, Function, Label, Program, Statement,
    ValidateError,
};
