//! The flat executable IR.
//!
//! Lowering compiles the structured AST into one program-wide instruction
//! array. Control flow is explicit (`Jump`/`Branch`), every instruction
//! performs **at most one shared-memory access**, and the operands of shared
//! accesses are [`PureExpr`]s — expressions over thread-local slots only, so
//! an instruction's target memory location can be computed *without executing
//! it*. That property is what lets the RaceFuzzer scheduler ask "would thread
//! `t`'s next statement race with a postponed thread?" (Algorithm 2 of the
//! paper) before committing to running it.

use crate::ast::{BinOp, UnOp};
use crate::bytecode::CodeImage;
use crate::intern::{Interner, Symbol};
use crate::span::Span;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a class in [`Program::classes`].
    ClassId
);
id_type!(
    /// Identifies a global variable in [`Program::globals`].
    GlobalId
);
id_type!(
    /// Identifies a procedure in [`Program::procs`].
    ProcId
);
id_type!(
    /// Identifies a local slot within a procedure frame (params first,
    /// then declared locals, then lowering temporaries).
    LocalId
);
id_type!(
    /// Identifies an instruction in [`Program::instrs`].
    ///
    /// This plays the role of the paper's *statement*: `RaceSet`s are pairs
    /// of `InstrId`s, and race reports are pairs of `InstrId`s mapped back to
    /// source spans.
    InstrId
);

/// A compile-time constant.
#[derive(Clone, Debug, PartialEq)]
pub enum Const {
    /// 64-bit signed integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(Arc<str>),
    /// The null reference.
    Null,
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(value) => write!(f, "{value}"),
            Const::Bool(value) => write!(f, "{value}"),
            Const::Str(value) => write!(f, "{value:?}"),
            Const::Null => write!(f, "null"),
        }
    }
}

/// An expression over thread-local slots only.
///
/// Evaluating a `PureExpr` never mutates state and never generates a shared
/// memory event. (`Len` reads an array's length, which is fixed at
/// allocation, so it is not a racy access.)
#[derive(Clone, Debug, PartialEq)]
pub enum PureExpr {
    /// A constant.
    Const(Const),
    /// Read of a local slot.
    Local(LocalId),
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: Box<PureExpr>,
    },
    /// Binary operation (strict).
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<PureExpr>,
        /// Right operand.
        rhs: Box<PureExpr>,
    },
    /// Array length.
    Len(Box<PureExpr>),
}

impl PureExpr {
    /// Convenience: an integer constant.
    pub fn int(value: i64) -> Self {
        PureExpr::Const(Const::Int(value))
    }

    /// Convenience: a local read.
    pub fn local(id: LocalId) -> Self {
        PureExpr::Local(id)
    }
}

/// Which exception names a lowered `catch` handles.
#[derive(Clone, Debug, PartialEq)]
pub enum CatchKinds {
    /// Catches everything.
    All,
    /// Catches only the listed exception names.
    Named(Vec<Symbol>),
}

impl CatchKinds {
    /// Returns `true` if an exception with this name symbol is caught.
    pub fn matches(&self, name: Symbol) -> bool {
        match self {
            CatchKinds::All => true,
            CatchKinds::Named(names) => names.contains(&name),
        }
    }
}

/// A flat instruction.
///
/// Shared-memory instructions (the ones that generate `MEM` events, §2.1 of
/// the paper) are exactly: `LoadGlobal`, `StoreGlobal`, `LoadField`,
/// `StoreField`, `LoadElem`, `StoreElem`.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `dst = pure-expr` — thread-local computation.
    Assign {
        /// Destination slot.
        dst: LocalId,
        /// The value.
        expr: PureExpr,
    },
    /// `dst = global` — shared read.
    LoadGlobal {
        /// Destination slot.
        dst: LocalId,
        /// The global read.
        global: GlobalId,
    },
    /// `global = src` — shared write.
    StoreGlobal {
        /// The global written.
        global: GlobalId,
        /// The value.
        src: PureExpr,
    },
    /// `dst = obj.field` — shared read.
    LoadField {
        /// Destination slot.
        dst: LocalId,
        /// Slot holding the object reference.
        obj: LocalId,
        /// The field name.
        field: Symbol,
    },
    /// `obj.field = src` — shared write.
    StoreField {
        /// Slot holding the object reference.
        obj: LocalId,
        /// The field name.
        field: Symbol,
        /// The value.
        src: PureExpr,
    },
    /// `dst = arr[idx]` — shared read.
    LoadElem {
        /// Destination slot.
        dst: LocalId,
        /// Slot holding the array reference.
        arr: LocalId,
        /// Element index.
        idx: PureExpr,
    },
    /// `arr[idx] = src` — shared write.
    StoreElem {
        /// Slot holding the array reference.
        arr: LocalId,
        /// Element index.
        idx: PureExpr,
        /// The value.
        src: PureExpr,
    },
    /// `dst = new Class`.
    New {
        /// Destination slot.
        dst: LocalId,
        /// The class.
        class: ClassId,
    },
    /// `dst = new [len]`.
    NewArray {
        /// Destination slot.
        dst: LocalId,
        /// Element count.
        len: PureExpr,
    },
    /// Acquire the monitor of the object in `obj`.
    ///
    /// `monitor` is `true` when the acquire came from a structured `sync`
    /// block, in which case unwinding releases it automatically (Java monitor
    /// semantics). Raw `lock` statements set it to `false`.
    Lock {
        /// Slot holding the lock object.
        obj: LocalId,
        /// Structured (`sync`) acquire?
        monitor: bool,
    },
    /// Release the monitor of the object in `obj`.
    Unlock {
        /// Slot holding the lock object.
        obj: LocalId,
        /// Structured (`sync`) release?
        monitor: bool,
    },
    /// `wait obj` — must hold the monitor; releases it and blocks.
    Wait {
        /// Slot holding the monitor object.
        obj: LocalId,
    },
    /// `notify obj` — wake one waiter (must hold the monitor).
    Notify {
        /// Slot holding the monitor object.
        obj: LocalId,
    },
    /// `notifyall obj` — wake all waiters (must hold the monitor).
    NotifyAll {
        /// Slot holding the monitor object.
        obj: LocalId,
    },
    /// Start a new thread running `proc(args…)`.
    Spawn {
        /// Slot receiving the thread handle, if any.
        dst: Option<LocalId>,
        /// The thread's entry procedure.
        proc: ProcId,
        /// Its arguments.
        args: Vec<PureExpr>,
    },
    /// Wait for the thread whose handle is in `thread` to terminate.
    Join {
        /// Slot holding the thread handle.
        thread: LocalId,
    },
    /// Set the interrupt flag of the thread whose handle is in `thread`.
    Interrupt {
        /// Slot holding the thread handle.
        thread: LocalId,
    },
    /// An interruptible no-op (`sleep`).
    Sleep {
        /// Nominal duration (ignored by the deterministic interpreter).
        duration: PureExpr,
    },
    /// Call `proc(args…)`, storing the return value in `dst` if present.
    Call {
        /// Slot receiving the return value, if any.
        dst: Option<LocalId>,
        /// The callee.
        proc: ProcId,
        /// Arguments.
        args: Vec<PureExpr>,
    },
    /// Return from the current procedure.
    Return {
        /// The returned value (`null` when omitted).
        value: Option<PureExpr>,
    },
    /// Unconditional jump.
    Jump {
        /// The target instruction.
        target: InstrId,
    },
    /// Conditional jump.
    Branch {
        /// The condition.
        cond: PureExpr,
        /// Target when true.
        if_true: InstrId,
        /// Target when false.
        if_false: InstrId,
    },
    /// Throw `AssertionError` if `cond` is false.
    Assert {
        /// Must hold.
        cond: PureExpr,
        /// Failure message.
        message: Arc<str>,
    },
    /// Throw a named exception.
    Throw {
        /// The exception name.
        exception: Symbol,
        /// Optional detail message.
        message: Option<Arc<str>>,
    },
    /// Enter a `try` region; pushed handlers are popped by `ExitTry` or
    /// consumed by unwinding.
    EnterTry {
        /// First instruction of the handler block.
        handler: InstrId,
        /// Which exceptions the handler catches.
        catches: CatchKinds,
    },
    /// Leave a `try` region without an exception.
    ExitTry,
    /// Print a value (debugging).
    Print {
        /// The value, if any.
        value: Option<PureExpr>,
    },
    /// Do nothing.
    Nop,
}

impl Instr {
    /// Returns `true` if this instruction reads or writes shared memory
    /// (i.e. generates a `MEM` event).
    pub fn is_memory_access(&self) -> bool {
        matches!(
            self,
            Instr::LoadGlobal { .. }
                | Instr::StoreGlobal { .. }
                | Instr::LoadField { .. }
                | Instr::StoreField { .. }
                | Instr::LoadElem { .. }
                | Instr::StoreElem { .. }
        )
    }

    /// Returns `true` if this instruction writes shared memory.
    pub fn is_memory_write(&self) -> bool {
        matches!(
            self,
            Instr::StoreGlobal { .. } | Instr::StoreField { .. } | Instr::StoreElem { .. }
        )
    }

    /// Returns `true` for synchronization operations (the events RaceFuzzer
    /// always tracks, per §4: "only performs thread switches before
    /// synchronization operations").
    pub fn is_sync_op(&self) -> bool {
        matches!(
            self,
            Instr::Lock { .. }
                | Instr::Unlock { .. }
                | Instr::Wait { .. }
                | Instr::Notify { .. }
                | Instr::NotifyAll { .. }
                | Instr::Spawn { .. }
                | Instr::Join { .. }
                | Instr::Interrupt { .. }
                | Instr::Sleep { .. }
        )
    }
}

/// A class: name plus ordered field names.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassInfo {
    /// The class name.
    pub name: Symbol,
    /// Field names in slot order.
    pub fields: Vec<Symbol>,
}

impl ClassInfo {
    /// Returns the slot index of `field`, if the class has it.
    pub fn field_slot(&self, field: Symbol) -> Option<usize> {
        self.fields.iter().position(|&candidate| candidate == field)
    }
}

/// A global variable: name plus initial value.
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalInfo {
    /// The global's name.
    pub name: Symbol,
    /// Its initial value.
    pub init: Const,
}

/// A procedure: name, arity, local-slot names, and its code range.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcInfo {
    /// The procedure name.
    pub name: Symbol,
    /// Number of parameters (the first `param_count` local slots).
    pub param_count: usize,
    /// Names of all local slots (params, declared locals, then temps).
    pub local_names: Vec<Arc<str>>,
    /// First instruction.
    pub entry: InstrId,
    /// One past the last instruction.
    pub end: InstrId,
}

impl ProcInfo {
    /// Total number of local slots a frame for this procedure needs.
    pub fn local_count(&self) -> usize {
        self.local_names.len()
    }

    /// Returns `true` if `instr` belongs to this procedure's code range.
    pub fn contains(&self, instr: InstrId) -> bool {
        self.entry <= instr && instr < self.end
    }
}

/// Symbols for the exception names the interpreter can raise on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuiltinExceptions {
    /// Field/element access through `null`.
    pub null_pointer: Symbol,
    /// Array index out of range.
    pub index_out_of_bounds: Symbol,
    /// Division/remainder by zero.
    pub arithmetic: Symbol,
    /// Operand of the wrong runtime type.
    pub type_error: Symbol,
    /// `assert` failure.
    pub assertion: Symbol,
    /// Interrupted while in `wait`, `sleep`, or `join`.
    pub interrupted: Symbol,
    /// `wait`/`notify`/`unlock` without holding the monitor.
    pub illegal_monitor_state: Symbol,
}

impl BuiltinExceptions {
    /// Interns the builtin exception names into `interner`.
    pub fn intern(interner: &mut Interner) -> Self {
        BuiltinExceptions {
            null_pointer: interner.intern("NullPointerException"),
            index_out_of_bounds: interner.intern("ArrayIndexOutOfBoundsException"),
            arithmetic: interner.intern("ArithmeticException"),
            type_error: interner.intern("TypeError"),
            assertion: interner.intern("AssertionError"),
            interrupted: interner.intern("InterruptedException"),
            illegal_monitor_state: interner.intern("IllegalMonitorStateException"),
        }
    }
}

/// A fully lowered, executable CIL program.
///
/// A `Program` is immutable after lowering and all its shared strings are
/// `Arc`-backed, so it is `Send + Sync`: compile once, then fan trials out
/// across a worker pool against the same `&Program` (the paper's §1
/// "performance … can be increased linearly with the number of processors").
#[derive(Clone, Debug)]
pub struct Program {
    /// Name table.
    pub interner: Interner,
    /// Classes, indexed by [`ClassId`].
    pub classes: Vec<ClassInfo>,
    /// Globals, indexed by [`GlobalId`].
    pub globals: Vec<GlobalInfo>,
    /// Procedures, indexed by [`ProcId`].
    pub procs: Vec<ProcInfo>,
    /// All instructions, program-wide, indexed by [`InstrId`].
    pub instrs: Vec<Instr>,
    /// Source span of each instruction (parallel to `instrs`).
    pub spans: Vec<Span>,
    /// `@tag` → instructions lowered from the tagged statement.
    pub tags: HashMap<String, Vec<InstrId>>,
    /// Pre-interned builtin exception names.
    pub builtins: BuiltinExceptions,
    /// Lazily compiled register-bytecode image (see [`Program::bytecode`]).
    pub(crate) bytecode: OnceLock<CodeImage>,
    /// Set on the reference copy made by [`Program::tree_walked`].
    pub(crate) tree_walked: bool,
}

impl Program {
    /// Number of procedures.
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// Number of instructions.
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// The instruction at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn instr(&self, id: InstrId) -> &Instr {
        &self.instrs[id.index()]
    }

    /// The source span of the instruction at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn span(&self, id: InstrId) -> Span {
        self.spans[id.index()]
    }

    /// Looks up a procedure by name.
    pub fn proc_named(&self, name: &str) -> Option<ProcId> {
        let symbol = self.interner.lookup(name)?;
        self.procs
            .iter()
            .position(|proc| proc.name == symbol)
            .map(|index| ProcId(index as u32))
    }

    /// Looks up a global by name.
    pub fn global_named(&self, name: &str) -> Option<GlobalId> {
        let symbol = self.interner.lookup(name)?;
        self.globals
            .iter()
            .position(|global| global.name == symbol)
            .map(|index| GlobalId(index as u32))
    }

    /// Looks up a class by name.
    pub fn class_named(&self, name: &str) -> Option<ClassId> {
        let symbol = self.interner.lookup(name)?;
        self.classes
            .iter()
            .position(|class| class.name == symbol)
            .map(|index| ClassId(index as u32))
    }

    /// The procedure containing instruction `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to no procedure (cannot happen for ids produced
    /// by lowering).
    pub fn proc_of(&self, id: InstrId) -> ProcId {
        self.procs
            .iter()
            .position(|proc| proc.contains(id))
            .map(|index| ProcId(index as u32))
            .expect("instruction outside all procedure ranges")
    }

    /// All instructions lowered from the statement tagged `tag`.
    pub fn tagged(&self, tag: &str) -> &[InstrId] {
        self.tags.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The unique *shared-memory-access* instruction tagged `tag`.
    ///
    /// This is the convenient way to build `RaceSet`s in tests and
    /// harnesses: tag the two statements and call this for each.
    ///
    /// # Panics
    ///
    /// Panics if the tag is missing or covers zero or multiple memory-access
    /// instructions.
    pub fn tagged_access(&self, tag: &str) -> InstrId {
        let accesses: Vec<InstrId> = self
            .tagged(tag)
            .iter()
            .copied()
            .filter(|&id| self.instr(id).is_memory_access())
            .collect();
        match accesses.as_slice() {
            [only] => *only,
            [] => panic!("tag `{tag}` covers no shared-memory access"),
            _ => panic!("tag `{tag}` covers multiple shared-memory accesses"),
        }
    }

    /// All shared-memory-access instructions lowered from the statement
    /// tagged `tag`, in program order. Useful when a tagged statement is a
    /// read-modify-write (e.g. `x = x + 1`), which lowers to a load *and* a
    /// store.
    pub fn tagged_accesses(&self, tag: &str) -> Vec<InstrId> {
        self.tagged(tag)
            .iter()
            .copied()
            .filter(|&id| self.instr(id).is_memory_access())
            .collect()
    }

    /// All shared-memory-access instructions in the program.
    pub fn memory_access_instrs(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.instrs
            .iter()
            .enumerate()
            .filter(|(_, instr)| instr.is_memory_access())
            .map(|(index, _)| InstrId(index as u32))
    }

    /// Resolves a symbol to its string.
    pub fn name(&self, symbol: Symbol) -> &str {
        self.interner.resolve(symbol)
    }

    /// Resolves a symbol to its interned `Arc<str>` (a refcount bump, no
    /// text copy) — for accounting maps keyed by name on hot paths.
    pub fn name_shared(&self, symbol: Symbol) -> std::sync::Arc<str> {
        self.interner.resolve_shared(symbol)
    }

    /// The register-bytecode image of this program, compiled on first use
    /// and cached for the program's lifetime (the program is immutable
    /// after lowering, so the image never invalidates). Thread-safe: a
    /// compiled `Program` is shared across trial workers and whichever
    /// worker gets here first pays the one-time compile.
    pub fn bytecode(&self) -> &CodeImage {
        self.bytecode.get_or_init(|| CodeImage::compile(self))
    }

    /// A copy of this program that executions run on the tree-walking
    /// interpreter — the reference semantics the bytecode engine is
    /// differentially tested against. The two are observably identical,
    /// so anything driven with the copy (analysis, campaigns, parallel
    /// workers, snapshots) must produce the same reports.
    pub fn tree_walked(&self) -> Program {
        Program {
            tree_walked: true,
            ..self.clone()
        }
    }

    /// The image executions of this program dispatch to: `None` for a
    /// [`Program::tree_walked`] copy, [`Program::bytecode`] otherwise.
    pub fn code_image(&self) -> Option<&CodeImage> {
        (!self.tree_walked).then(|| self.bytecode())
    }
}
