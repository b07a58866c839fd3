//! RAM-machine programs: statements, functions, externals, validation and a
//! disassembler.
//!
//! A program is a flat statement array; labels are statement indices, and —
//! as in the paper's §2.2 — "if e is the address of a statement … then e+1 is
//! guaranteed to also be an address of a statement". Functions are entry
//! labels plus frame layouts; calls and returns are explicit statements so
//! the concolic layer can trace symbolic values interprocedurally.

use crate::expr::Expr;
use std::fmt;

/// A statement label (index into [`Program::stmts`]).
pub type Label = usize;

/// Identifies a defined (program) function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// Identifies an external function — part of the program's interface,
/// simulated by the environment (paper §3.1: "external functions …
/// can nondeterministically return any value of their specified return
/// type").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtId(pub u32);

/// How an allocation behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// `malloc`: always succeeds (the model's heap is unbounded).
    Heap,
    /// `alloca`: draws from the bounded stack budget and yields NULL when
    /// exhausted — the unchecked-NULL pattern behind the paper's oSIP
    /// parser attack.
    Stack,
}

/// A RAM-machine statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `M[dst] <- src`: both sides are expressions; `dst` evaluates to an
    /// address (possibly via pointer arithmetic, resolved at runtime —
    /// paper §2.2's `statement_at`).
    Assign {
        /// Address expression of the left-hand side.
        dst: Expr,
        /// Value expression.
        src: Expr,
    },
    /// `if (cond) then goto target` — fallthrough otherwise.
    If {
        /// Branch condition; taken when nonzero.
        cond: Expr,
        /// Label executed when the condition holds.
        target: Label,
    },
    /// Unconditional jump.
    Goto(Label),
    /// Call a defined function: evaluates `args` in the caller's frame,
    /// pushes a new frame with the values in slots `0..args.len()`, and on
    /// return stores the callee's result at address `dst` (if any).
    Call {
        /// Callee.
        func: FuncId,
        /// Argument value expressions (evaluated in the caller frame).
        args: Vec<Expr>,
        /// Address expression receiving the return value.
        dst: Option<Expr>,
    },
    /// Call an external (environment-controlled) function: the environment
    /// supplies the return value, stored at address `dst`.
    CallExternal {
        /// Which external.
        ext: ExtId,
        /// Address expression receiving the environment's value.
        dst: Option<Expr>,
    },
    /// Return from the current function.
    Ret {
        /// Result value expression (evaluated in the callee frame).
        value: Option<Expr>,
    },
    /// Program error (assertion violation / `abort()`).
    Abort {
        /// Human-readable reason shown in bug reports.
        reason: String,
    },
    /// Normal termination.
    Halt,
    /// Allocate `size` words and store the block's base address (or NULL for
    /// a failed stack allocation) at address `dst`.
    Alloc {
        /// Address expression receiving the pointer.
        dst: Expr,
        /// Size in words.
        size: Expr,
        /// Heap (`malloc`) or stack (`alloca`).
        kind: AllocKind,
    },
}

/// Metadata for a defined function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Source-level name (used in reports and the interface listing).
    pub name: String,
    /// Label of the first statement.
    pub entry: Label,
    /// Total frame size in words (parameters first, then locals/temps).
    pub frame_words: u32,
    /// Number of parameter slots at the start of the frame.
    pub num_params: u32,
}

/// Metadata for an external function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct External {
    /// Source-level name.
    pub name: String,
}

/// A complete RAM program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Flat statement array; labels index into it.
    pub stmts: Vec<Statement>,
    /// Defined functions.
    pub funcs: Vec<Function>,
    /// External (environment) functions.
    pub externals: Vec<External>,
    /// Number of global words mapped at [`crate::memory::GLOBAL_BASE`].
    pub global_words: u32,
    /// Names of global variables, `(name, offset_words)` — diagnostics and
    /// interface extraction.
    pub global_names: Vec<(String, u32)>,
}

/// A structural validation error in a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A jump target is outside the statement array.
    BadLabel {
        /// Offending statement index.
        at: Label,
        /// The bad target.
        target: Label,
    },
    /// A call references an undefined function id.
    BadFunc {
        /// Offending statement index.
        at: Label,
        /// The bad function id.
        func: FuncId,
    },
    /// A call references an undefined external id.
    BadExt {
        /// Offending statement index.
        at: Label,
        /// The bad external id.
        ext: ExtId,
    },
    /// A call passes more arguments than the callee's frame can hold.
    ArityOverflow {
        /// Offending statement index.
        at: Label,
        /// The callee.
        func: FuncId,
    },
    /// A function's entry label is out of range.
    BadEntry {
        /// The function.
        func: FuncId,
    },
    /// A function declares more parameters than frame words.
    BadFrame {
        /// The function.
        func: FuncId,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadLabel { at, target } => {
                write!(f, "statement {at}: jump to invalid label {target}")
            }
            ValidateError::BadFunc { at, func } => {
                write!(f, "statement {at}: call to undefined function #{}", func.0)
            }
            ValidateError::BadExt { at, ext } => {
                write!(f, "statement {at}: call to undefined external #{}", ext.0)
            }
            ValidateError::ArityOverflow { at, func } => {
                write!(
                    f,
                    "statement {at}: too many arguments for function #{}",
                    func.0
                )
            }
            ValidateError::BadEntry { func } => {
                write!(f, "function #{}: entry label out of range", func.0)
            }
            ValidateError::BadFrame { func } => {
                write!(f, "function #{}: more parameters than frame words", func.0)
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// The metadata of `func`.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range (programs are validated on load).
    pub fn func(&self, func: FuncId) -> &Function {
        &self.funcs[func.0 as usize]
    }

    /// Structurally validates the program.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let n = self.stmts.len();
        for (i, f) in self.funcs.iter().enumerate() {
            let id = FuncId(i as u32);
            if f.entry >= n {
                return Err(ValidateError::BadEntry { func: id });
            }
            if f.num_params > f.frame_words {
                return Err(ValidateError::BadFrame { func: id });
            }
        }
        for (at, s) in self.stmts.iter().enumerate() {
            match s {
                Statement::If { target, .. } | Statement::Goto(target) if *target >= n => {
                    return Err(ValidateError::BadLabel {
                        at,
                        target: *target,
                    });
                }
                Statement::Call { func, args, .. } => {
                    let Some(meta) = self.funcs.get(func.0 as usize) else {
                        return Err(ValidateError::BadFunc { at, func: *func });
                    };
                    if args.len() > meta.frame_words as usize {
                        return Err(ValidateError::ArityOverflow { at, func: *func });
                    }
                }
                Statement::CallExternal { ext, .. }
                    if self.externals.get(ext.0 as usize).is_none() =>
                {
                    return Err(ValidateError::BadExt { at, ext: *ext });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl Program {
    /// Renders the statement at `label` in disassembly syntax (without the
    /// label prefix). Returns `"<invalid>"` for out-of-range labels.
    pub fn render_stmt(&self, label: Label) -> String {
        let Some(s) = self.stmts.get(label) else {
            return "<invalid>".into();
        };
        match s {
            Statement::Assign { dst, src } => format!("M[{dst}] <- {src}"),
            Statement::If { cond, target } => format!("if {cond} goto {target}"),
            Statement::Goto(t) => format!("goto {t}"),
            Statement::Call { func, args, dst } => {
                let name = self
                    .funcs
                    .get(func.0 as usize)
                    .map(|x| x.name.as_str())
                    .unwrap_or("?");
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                match dst {
                    Some(d) => format!("M[{d}] <- call {name}({})", args.join(", ")),
                    None => format!("call {name}({})", args.join(", ")),
                }
            }
            Statement::CallExternal { ext, dst } => {
                let name = self
                    .externals
                    .get(ext.0 as usize)
                    .map(|x| x.name.as_str())
                    .unwrap_or("?");
                match dst {
                    Some(d) => format!("M[{d}] <- external {name}()"),
                    None => format!("external {name}()"),
                }
            }
            Statement::Ret { value: Some(v) } => format!("ret {v}"),
            Statement::Ret { value: None } => "ret".into(),
            Statement::Abort { reason } => format!("abort \"{reason}\""),
            Statement::Halt => "halt".into(),
            Statement::Alloc { dst, size, kind } => {
                let k = match kind {
                    AllocKind::Heap => "malloc",
                    AllocKind::Stack => "alloca",
                };
                format!("M[{dst}] <- {k}({size})")
            }
        }
    }
}

impl fmt::Display for Program {
    /// Disassembles the program, one labeled statement per line, with
    /// function entries annotated.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.stmts.len() {
            for (fi, func) in self.funcs.iter().enumerate() {
                if func.entry == i {
                    writeln!(
                        f,
                        "; fn {} (#{fi}, {} params, {} frame words)",
                        func.name, func.num_params, func.frame_words
                    )?;
                }
            }
            writeln!(f, "{i:5}: {}", self.render_stmt(i))?;
        }
        Ok(())
    }
}

/// Ignored: an empty stand-in for a program lowered for the compiled
/// execution tier, which is gone; every run executes on [`crate::Machine`].
/// It stays only because the end-to-end benchmark still names it, and goes
/// with the benchmark PR that retires `bench_e2e`'s replica.
#[derive(Debug)]
pub struct DecodedProgram;

impl DecodedProgram {
    /// Does nothing.
    pub fn new(_program: &Program) -> DecodedProgram {
        DecodedProgram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn one_func_program(stmts: Vec<Statement>) -> Program {
        Program {
            funcs: vec![Function {
                name: "main".into(),
                entry: 0,
                frame_words: 4,
                num_params: 1,
            }],
            stmts,
            ..Program::default()
        }
    }

    #[test]
    fn valid_program_passes() {
        let p = one_func_program(vec![
            Statement::Assign {
                dst: Expr::frame_slot(1),
                src: Expr::Const(3),
            },
            Statement::If {
                cond: Expr::Const(1),
                target: 0,
            },
            Statement::Halt,
        ]);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn bad_label_detected() {
        let p = one_func_program(vec![Statement::Goto(99)]);
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadLabel { at: 0, target: 99 })
        );
    }

    #[test]
    fn bad_func_detected() {
        let p = one_func_program(vec![Statement::Call {
            func: FuncId(7),
            args: vec![],
            dst: None,
        }]);
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadFunc {
                at: 0,
                func: FuncId(7)
            })
        );
    }

    #[test]
    fn bad_external_detected() {
        let p = one_func_program(vec![Statement::CallExternal {
            ext: ExtId(0),
            dst: None,
        }]);
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadExt {
                at: 0,
                ext: ExtId(0)
            })
        );
    }

    #[test]
    fn arity_overflow_detected() {
        let p = one_func_program(vec![Statement::Call {
            func: FuncId(0),
            args: vec![Expr::Const(0); 10],
            dst: None,
        }]);
        assert_eq!(
            p.validate(),
            Err(ValidateError::ArityOverflow {
                at: 0,
                func: FuncId(0)
            })
        );
    }

    #[test]
    fn bad_entry_detected() {
        let mut p = one_func_program(vec![Statement::Halt]);
        p.funcs[0].entry = 5;
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadEntry { func: FuncId(0) })
        );
    }

    #[test]
    fn bad_frame_detected() {
        let mut p = one_func_program(vec![Statement::Halt]);
        p.funcs[0].num_params = 10;
        assert_eq!(
            p.validate(),
            Err(ValidateError::BadFrame { func: FuncId(0) })
        );
    }

    #[test]
    fn func_lookup_by_name() {
        let p = one_func_program(vec![Statement::Halt]);
        assert_eq!(p.func_by_name("main"), Some(FuncId(0)));
        assert_eq!(p.func_by_name("nope"), None);
        assert_eq!(p.func(FuncId(0)).name, "main");
    }

    #[test]
    fn disassembly_mentions_statements() {
        let p = one_func_program(vec![
            Statement::Assign {
                dst: Expr::frame_slot(1),
                src: Expr::Const(3),
            },
            Statement::Abort {
                reason: "assert failed".into(),
            },
            Statement::Halt,
        ]);
        let text = p.to_string();
        assert!(text.contains("fn main"));
        assert!(text.contains("abort \"assert failed\""));
        assert!(text.contains("halt"));
    }
}
