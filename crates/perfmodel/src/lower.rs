//! The lowered form of a model and the machine that runs it.
//!
//! [`Lowered::new`] walks an [`AlgorithmDef`] once, when the model is
//! compiled, and resolves every name statically:
//!
//! * every scalar parameter, coordinate, link binder and scheme `int` gets
//!   a fixed slot of one flat `i64` frame, and every scheme struct variable
//!   a run of consecutive slots, one per field, so `Root.I` is a slot too;
//! * array parameters become indices into the instance's bound arrays, and
//!   a subscript chain indexes the array by stride without copying it;
//! * block scoping and shadowing are settled here, so execution never
//!   looks a name up; the body of an `if`, `else`, `for` or `par` is a
//!   scope of its own, as in C99;
//! * extern calls name an entry of a callee table that each instance
//!   resolves against its registry once.
//!
//! [`Exec`] then runs the `node`, `link`, `parent` and `scheme` sections
//! over the frame. Evaluation keeps the original interpreter's rules
//! exactly: integer context (guards, subscripts, loop control, C integer
//! arithmetic with short-circuit `&&`/`||`) and number context (volumes and
//! percentages, `f64` with true division and both operands of every
//! operator evaluated), operands left to right, subscripts last first.
//!
//! Errors stay lazy: a name that is not in scope, a struct used as an
//! integer, a missing field or an unknown `sizeof` type is lowered to a
//! fault that raises, with the interpreter's variant and message, only
//! when the code holding it executes. Variables keep the type they were
//! declared with: storing a value of another shape into one, or into a
//! field the struct does not declare, raises a [`EvalError::TypeError`] or
//! [`EvalError::Undefined`] where the scope-stack interpreter re-typed or
//! extended the variable.

use crate::ast::{self, AlgorithmDef, AssignOp, BinOp, CallArg, LValue, Stmt, StructDef, UnOp};
use crate::error::EvalError;
use crate::eval::{locate_processor, sizeof, Extern, Externs};
use crate::scheme::{SchemeSink, ITERATION_LIMIT};
use crate::value::{ArrayVal, StructVal, Value};

/// A lowered expression. Names are resolved; evaluation never fails except
/// through the checks C arithmetic and the model's arrays require, or a
/// [`Fault`] standing where the source named something it cannot use.
#[derive(Debug, Clone)]
pub(crate) enum Expr {
    Const(i64),
    Slot(usize),
    /// `arr[subs[0]]...[subs[k]]`, rank already checked.
    Index(usize, Box<[Expr]>),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A value-returning extern call.
    Call(usize, Box<[Arg]>),
    /// Evaluates `inner` as an integer, then fails: it was used as a struct.
    NotStruct(Box<Expr>),
    Fault(Box<Fault>),
}

/// An expression that always fails, after evaluating `subs` last first
/// (the subscripts of an index chain whose base cannot be indexed).
#[derive(Debug, Clone)]
pub(crate) struct Fault {
    subs: Box<[Expr]>,
    kind: FaultKind,
}

#[derive(Debug, Clone)]
enum FaultKind {
    Error(EvalError),
    /// An array parameter used as an integer.
    ArrayAsInt(usize),
    /// An array parameter used as a struct.
    ArrayAsStruct(usize),
    /// An integer variable subscripted.
    IntAsArray(usize),
}

/// An operand as an extern call or a whole-value assignment sees it.
#[derive(Debug, Clone)]
pub(crate) enum Arg {
    Int(Expr),
    Array(usize),
    Struct { base: usize, ty: usize },
}

/// A store target of a whole-value assignment or an `&` out-argument.
#[derive(Debug, Clone)]
enum Place {
    Int(usize, String),
    Field(usize),
    Struct {
        base: usize,
        ty: usize,
        name: String,
    },
    Array(String),
    Unbound(String),
    MissingField(String),
    /// `x.f` where `x` is not a struct; the operand reads `x`.
    NonStruct(Arg),
}

#[derive(Debug, Clone)]
enum CallArgL {
    Value(Arg),
    Out(Arg, Place),
}

/// The `GetProcessor(row, col, m, h, w, &S)` shape the builtin runs
/// natively: arrays `h` and `w`, and the slots of `S.I` and `S.J`.
#[derive(Debug, Clone, Copy)]
struct NativeLocate {
    h: usize,
    w: usize,
    i: usize,
    j: usize,
}

#[derive(Debug, Clone)]
enum Op {
    Set(usize, Expr),
    Update(usize, AssignOp, Expr),
    Zero(usize, usize),
    Assign(Place, Arg),
    /// Evaluates an expression that always fails.
    Raise(Expr),
    If(Expr, Box<[Op]>, Box<[Op]>),
    Loop(Box<Loop>),
    Compute(Expr, Box<[Expr]>),
    Transfer(Expr, Box<[Expr]>, Box<[Expr]>),
    Call(Box<CallOp>),
}

#[derive(Debug, Clone)]
struct Loop {
    par: bool,
    init: Box<[Op]>,
    cond: Option<Expr>,
    step: Box<[Op]>,
    body: Box<[Op]>,
}

#[derive(Debug, Clone)]
struct CallOp {
    callee: usize,
    args: Box<[CallArgL]>,
    native: Option<NativeLocate>,
}

/// How a formal parameter binds.
#[derive(Debug, Clone)]
pub(crate) enum ParamSlot {
    /// A scalar, stored in this frame slot.
    Int(usize),
    /// An array with its dimension expressions.
    Array(Vec<Expr>),
}

/// A formal parameter.
#[derive(Debug, Clone)]
pub(crate) struct Param {
    pub(crate) name: String,
    pub(crate) slot: ParamSlot,
}

/// A `coord` variable or link binder: name, slot and extent.
#[derive(Debug, Clone)]
pub(crate) struct Var {
    pub(crate) name: String,
    pub(crate) slot: usize,
    pub(crate) extent: Expr,
}

/// A lowered `link` rule.
#[derive(Debug, Clone)]
pub(crate) struct LinkRule {
    pub(crate) guard: Expr,
    pub(crate) volume: Expr,
    pub(crate) src: Vec<Expr>,
    pub(crate) dst: Vec<Expr>,
}

#[derive(Debug, Clone)]
struct StructType {
    name: String,
    /// Field names, duplicates dropped; a field's slot offset is its index.
    fields: Vec<String>,
}

impl StructType {
    fn new(def: &StructDef) -> Self {
        let mut fields: Vec<String> = Vec::with_capacity(def.fields.len());
        for f in &def.fields {
            if !fields.contains(f) {
                fields.push(f.clone());
            }
        }
        StructType {
            name: def.name.clone(),
            fields,
        }
    }

    fn offset(&self, field: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == field)
    }
}

/// A model definition with every name resolved.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lowered {
    pub(crate) name: String,
    pub(crate) params: Vec<Param>,
    pub(crate) coords: Vec<Var>,
    pub(crate) node_rules: Vec<(Expr, Expr)>,
    pub(crate) binders: Vec<Var>,
    pub(crate) link_rules: Vec<LinkRule>,
    pub(crate) parent: Vec<Expr>,
    /// `None` when the source has no scheme section (the default pattern).
    scheme: Option<Box<[Op]>>,
    pub(crate) frame_len: usize,
    array_names: Vec<String>,
    structs: Vec<StructType>,
    callees: Vec<String>,
}

#[derive(Debug, Clone, Copy)]
enum Binding {
    Int(usize),
    Array(usize),
    Struct { base: usize, ty: usize },
}

/// Name resolution state: a scope stack of bindings, the slot counter and
/// the tables the lowered code indexes.
struct Resolver {
    names: Vec<(String, Binding)>,
    marks: Vec<usize>,
    next_slot: usize,
    array_names: Vec<String>,
    array_ranks: Vec<usize>,
    structs: Vec<StructType>,
    callees: Vec<String>,
}

impl Resolver {
    fn new(structs: Vec<StructType>) -> Self {
        Resolver {
            names: Vec::new(),
            marks: Vec::new(),
            next_slot: 0,
            array_names: Vec::new(),
            array_ranks: Vec::new(),
            structs,
            callees: Vec::new(),
        }
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        self.names
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, b)| b)
    }

    fn declare(&mut self, name: &str, b: Binding) {
        self.names.push((name.to_string(), b));
    }

    fn slots(&mut self, n: usize) -> usize {
        let base = self.next_slot;
        self.next_slot += n;
        base
    }

    fn declare_int(&mut self, name: &str) -> usize {
        let slot = self.slots(1);
        self.declare(name, Binding::Int(slot));
        slot
    }

    fn push(&mut self) {
        self.marks.push(self.names.len());
    }

    fn pop(&mut self) {
        let mark = self.marks.pop().expect("balanced scopes");
        self.names.truncate(mark);
    }

    fn callee(&mut self, name: &str) -> usize {
        match self.callees.iter().position(|c| c == name) {
            Some(i) => i,
            None => {
                self.callees.push(name.to_string());
                self.callees.len() - 1
            }
        }
    }

    fn struct_display(&self, ty: usize) -> String {
        format!("{} {{..}}", self.structs[ty].name)
    }

    // ----- expressions ------------------------------------------------------

    fn expr(&mut self, e: &ast::Expr) -> Expr {
        match e {
            ast::Expr::Int(n) => Expr::Const(*n),
            ast::Expr::Var(name) => match self.lookup(name) {
                Some(Binding::Int(s)) => Expr::Slot(s),
                Some(Binding::Array(a)) => fault(FaultKind::ArrayAsInt(a)),
                Some(Binding::Struct { ty, .. }) => fault(FaultKind::Error(EvalError::TypeError(
                    format!("expected int, found {}", self.struct_display(ty)),
                ))),
                None => fault(FaultKind::Error(EvalError::Undefined(name.clone()))),
            },
            ast::Expr::Member(base, field) => self.member(base, field),
            ast::Expr::Index(..) => self.index(e),
            ast::Expr::Unary(UnOp::Neg, x) => Expr::Neg(Box::new(self.expr(x))),
            ast::Expr::Unary(UnOp::Not, x) => Expr::Not(Box::new(self.expr(x))),
            ast::Expr::Binary(op, a, b) => {
                Expr::Bin(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            ast::Expr::SizeOf(ty) => match sizeof(ty) {
                Ok(n) => Expr::Const(n),
                Err(err) => fault(FaultKind::Error(err)),
            },
            ast::Expr::Call(name, args) => {
                let callee = self.callee(name);
                Expr::Call(callee, args.iter().map(|a| self.arg(a)).collect())
            }
        }
    }

    /// An operand whole: arrays and structs stay values, the rest is an
    /// integer expression.
    fn arg(&mut self, e: &ast::Expr) -> Arg {
        if let ast::Expr::Var(name) = e {
            match self.lookup(name) {
                Some(Binding::Array(a)) => return Arg::Array(a),
                Some(Binding::Struct { base, ty }) => return Arg::Struct { base, ty },
                _ => {}
            }
        }
        Arg::Int(self.expr(e))
    }

    fn member(&mut self, base: &ast::Expr, field: &str) -> Expr {
        let ast::Expr::Var(name) = base else {
            return Expr::NotStruct(Box::new(self.expr(base)));
        };
        match self.lookup(name) {
            Some(Binding::Struct { base, ty }) => match self.structs[ty].offset(field) {
                Some(o) => Expr::Slot(base + o),
                None => fault(FaultKind::Error(EvalError::Undefined(format!(
                    "field {field}"
                )))),
            },
            Some(Binding::Int(s)) => Expr::NotStruct(Box::new(Expr::Slot(s))),
            Some(Binding::Array(a)) => fault(FaultKind::ArrayAsStruct(a)),
            None => fault(FaultKind::Error(EvalError::Undefined(name.clone()))),
        }
    }

    fn index(&mut self, e: &ast::Expr) -> Expr {
        let mut subs = Vec::new();
        let mut cur = e;
        while let ast::Expr::Index(base, idx) = cur {
            subs.push(self.expr(idx));
            cur = base;
        }
        subs.reverse();
        let kind = match cur {
            ast::Expr::Var(name) => match self.lookup(name) {
                Some(Binding::Array(a)) if self.array_ranks[a] == subs.len() => {
                    return Expr::Index(a, subs.into())
                }
                Some(Binding::Array(a)) => FaultKind::Error(EvalError::TypeError(format!(
                    "`{name}` has rank {} but was indexed with {} subscripts",
                    self.array_ranks[a],
                    subs.len()
                ))),
                Some(Binding::Int(s)) => FaultKind::IntAsArray(s),
                Some(Binding::Struct { ty, .. }) => FaultKind::Error(EvalError::TypeError(
                    format!("expected array, found {}", self.struct_display(ty)),
                )),
                None => FaultKind::Error(EvalError::Undefined(name.clone())),
            },
            other => FaultKind::Error(EvalError::TypeError(format!("cannot index into {other:?}"))),
        };
        Expr::Fault(Box::new(Fault {
            subs: subs.into(),
            kind,
        }))
    }

    // ----- statements -------------------------------------------------------

    fn place(&self, lv: &LValue) -> Place {
        match lv {
            LValue::Var(name) => match self.lookup(name) {
                Some(Binding::Int(s)) => Place::Int(s, name.clone()),
                Some(Binding::Array(_)) => Place::Array(name.clone()),
                Some(Binding::Struct { base, ty }) => Place::Struct {
                    base,
                    ty,
                    name: name.clone(),
                },
                None => Place::Unbound(name.clone()),
            },
            LValue::Member(name, field) => match self.lookup(name) {
                Some(Binding::Struct { base, ty }) => match self.structs[ty].offset(field) {
                    Some(o) => Place::Field(base + o),
                    None => Place::MissingField(field.clone()),
                },
                Some(Binding::Int(s)) => Place::NonStruct(Arg::Int(Expr::Slot(s))),
                Some(Binding::Array(a)) => Place::NonStruct(Arg::Array(a)),
                None => Place::Unbound(name.clone()),
            },
        }
    }

    /// The current value of an lvalue, as an `&` argument passes it.
    fn read(&mut self, lv: &LValue) -> Arg {
        match lv {
            LValue::Var(name) => self.arg(&ast::Expr::Var(name.clone())),
            LValue::Member(name, field) => {
                Arg::Int(self.member(&ast::Expr::Var(name.clone()), field))
            }
        }
    }

    /// A statement that is its own scope (a block, or the body of a
    /// conditional or loop).
    fn scoped(&mut self, s: &Stmt) -> Box<[Op]> {
        let mut out = Vec::new();
        self.push();
        self.stmt(s, &mut out);
        self.pop();
        out.into()
    }

    /// A loop's init or step statement, in the loop's own scope.
    fn header(&mut self, s: Option<&Stmt>) -> Box<[Op]> {
        let mut out = Vec::new();
        if let Some(s) = s {
            self.stmt(s, &mut out);
        }
        out.into()
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<Op>) {
        match s {
            Stmt::Empty => {}
            Stmt::Block(body) => {
                self.push();
                for s in body {
                    self.stmt(s, out);
                }
                self.pop();
            }
            Stmt::Decl { ty, vars } => self.decl(ty, vars, out),
            Stmt::Assign { lv, op, rhs } => out.push(self.assign(lv, *op, rhs)),
            Stmt::If { cond, then, els } => {
                let cond = self.expr(cond);
                let then = self.scoped(then);
                let els = els.as_deref().map(|e| self.scoped(e)).unwrap_or_default();
                out.push(Op::If(cond, then, els));
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            }
            | Stmt::Par {
                init,
                cond,
                step,
                body,
            } => {
                let init = self.header(init.as_deref());
                let cond = cond.as_ref().map(|c| self.expr(c));
                let body = self.scoped(body);
                let step = self.header(step.as_deref());
                out.push(Op::Loop(Box::new(Loop {
                    par: matches!(s, Stmt::Par { .. }),
                    init,
                    cond,
                    step,
                    body,
                })));
            }
            Stmt::Compute { percent, proc } => {
                let pct = self.expr(percent);
                out.push(Op::Compute(
                    pct,
                    proc.iter().map(|e| self.expr(e)).collect(),
                ));
            }
            Stmt::Transfer { percent, src, dst } => {
                let pct = self.expr(percent);
                let src = src.iter().map(|e| self.expr(e)).collect();
                let dst = dst.iter().map(|e| self.expr(e)).collect();
                out.push(Op::Transfer(pct, src, dst));
            }
            Stmt::CallStmt { name, args } => {
                let callee = self.callee(name);
                let args: Box<[CallArgL]> = args
                    .iter()
                    .map(|a| match a {
                        CallArg::Value(e) => CallArgL::Value(self.arg(e)),
                        CallArg::OutRef(lv) => CallArgL::Out(self.read(lv), self.place(lv)),
                    })
                    .collect();
                let native = self.native_locate(&args);
                out.push(Op::Call(Box::new(CallOp {
                    callee,
                    args,
                    native,
                })));
            }
        }
    }

    fn decl(&mut self, ty: &str, vars: &[(String, Option<ast::Expr>)], out: &mut Vec<Op>) {
        for (name, init) in vars {
            if ty == "int" {
                let e = init.as_ref().map_or(Expr::Const(0), |e| self.expr(e));
                out.push(Op::Set(self.declare_int(name), e));
                continue;
            }
            let Some(ty) = self.structs.iter().rposition(|s| s.name == ty) else {
                out.push(raise(EvalError::TypeError(format!(
                    "unknown struct type `{ty}`"
                ))));
                return;
            };
            if init.is_some() {
                out.push(raise(EvalError::TypeError(
                    "struct declarations cannot take initialisers".into(),
                )));
                return;
            }
            let len = self.structs[ty].fields.len();
            let base = self.slots(len);
            out.push(Op::Zero(base, len));
            self.declare(name, Binding::Struct { base, ty });
        }
    }

    fn assign(&mut self, lv: &LValue, op: AssignOp, rhs: &ast::Expr) -> Op {
        if op != AssignOp::Set {
            // The old value is read before the right side is evaluated.
            return match self.read(lv) {
                Arg::Int(Expr::Slot(s)) => Op::Update(s, op, self.expr(rhs)),
                Arg::Int(read) => Op::Raise(read),
                Arg::Array(a) => Op::Raise(fault(FaultKind::ArrayAsInt(a))),
                Arg::Struct { ty, .. } => raise(EvalError::TypeError(format!(
                    "expected int, found {}",
                    self.struct_display(ty)
                ))),
            };
        }
        match (self.place(lv), self.arg(rhs)) {
            (Place::Int(s, _) | Place::Field(s), Arg::Int(e)) => Op::Set(s, e),
            (place, value) => Op::Assign(place, value),
        }
    }

    /// The builtin's native shape: three integer operands, two arrays and
    /// an out-struct with exactly the fields `I` and `J`.
    fn native_locate(&self, args: &[CallArgL]) -> Option<NativeLocate> {
        use CallArgL::{Out, Value};
        if args.len() != 6 || !args[..3].iter().all(|a| matches!(a, Value(Arg::Int(_)))) {
            return None;
        }
        let (Value(Arg::Array(h)), Value(Arg::Array(w)), Out(_, Place::Struct { base, ty, .. })) =
            (&args[3], &args[4], &args[5])
        else {
            return None;
        };
        let st = &self.structs[*ty];
        if st.fields.len() != 2 {
            return None;
        }
        Some(NativeLocate {
            h: *h,
            w: *w,
            i: base + st.offset("I")?,
            j: base + st.offset("J")?,
        })
    }
}

fn fault(kind: FaultKind) -> Expr {
    Expr::Fault(Box::new(Fault {
        subs: Box::new([]),
        kind,
    }))
}

fn raise(err: EvalError) -> Op {
    Op::Raise(fault(FaultKind::Error(err)))
}

impl Lowered {
    /// Lowers `alg` against the program's struct typedefs.
    pub(crate) fn new(alg: &AlgorithmDef, typedefs: &[StructDef]) -> Lowered {
        let mut r = Resolver::new(typedefs.iter().map(StructType::new).collect());

        // Parameters bind left to right; dimensions see earlier ones.
        let mut params = Vec::with_capacity(alg.params.len());
        for decl in &alg.params {
            let slot = if decl.dims.is_empty() {
                ParamSlot::Int(r.declare_int(&decl.name))
            } else {
                let dims = decl.dims.iter().map(|d| r.expr(d)).collect();
                r.array_names.push(decl.name.clone());
                r.array_ranks.push(decl.dims.len());
                let id = r.array_names.len() - 1;
                r.declare(&decl.name, Binding::Array(id));
                ParamSlot::Array(dims)
            };
            params.push(Param {
                name: decl.name.clone(),
                slot,
            });
        }

        // Coordinate extents, binder extents and the parent see parameters
        // only; rules see coordinates (and binders) over them.
        let vars = |r: &mut Resolver, list: &[(String, ast::Expr)]| -> Vec<Var> {
            let extents: Vec<Expr> = list.iter().map(|(_, e)| r.expr(e)).collect();
            list.iter()
                .zip(extents)
                .map(|((name, _), extent)| Var {
                    name: name.clone(),
                    slot: r.slots(1),
                    extent,
                })
                .collect()
        };
        let coords = vars(&mut r, &alg.coords);
        let binders = vars(&mut r, &alg.link_binders);
        let parent = alg.parent.iter().map(|e| r.expr(e)).collect();

        r.push();
        for c in &coords {
            r.declare(&c.name, Binding::Int(c.slot));
        }
        let node_rules = alg
            .node_rules
            .iter()
            .map(|rule| (r.expr(&rule.guard), r.expr(&rule.volume)))
            .collect();
        r.push();
        for b in &binders {
            r.declare(&b.name, Binding::Int(b.slot));
        }
        let link_rules = alg
            .link_rules
            .iter()
            .map(|rule| LinkRule {
                guard: r.expr(&rule.guard),
                volume: r.expr(&rule.volume),
                src: rule.src.iter().map(|e| r.expr(e)).collect(),
                dst: rule.dst.iter().map(|e| r.expr(e)).collect(),
            })
            .collect();
        r.pop();

        // The scheme sees parameters and coordinates, then its own scope.
        let scheme = (!alg.scheme.is_empty()).then(|| {
            let mut ops = Vec::new();
            r.push();
            for s in &alg.scheme {
                r.stmt(s, &mut ops);
            }
            r.pop();
            ops.into_boxed_slice()
        });
        r.pop();

        Lowered {
            name: alg.name.clone(),
            params,
            coords,
            node_rules,
            binders,
            link_rules,
            parent,
            scheme,
            frame_len: r.next_slot,
            array_names: r.array_names,
            structs: r.structs,
            callees: r.callees,
        }
    }

    /// Resolves the callee table against a registry.
    pub(crate) fn resolve(&self, externs: &Externs) -> Vec<Option<Extern>> {
        self.callees.iter().map(|n| externs.resolve(n)).collect()
    }

    /// True if the source declares a scheme.
    pub(crate) fn has_scheme(&self) -> bool {
        self.scheme.is_some()
    }

    /// Lowers a standalone expression over named bindings (no extern is
    /// registered) and hands it, with a machine over those bindings, to
    /// `run`.
    pub(crate) fn standalone<T>(
        e: &ast::Expr,
        bindings: &[(&str, Value)],
        run: impl FnOnce(&Exec<'_>, &Expr) -> T,
    ) -> T {
        let mut r = Resolver::new(Vec::new());
        let mut frame = Vec::new();
        let mut arrays = Vec::new();
        for (name, v) in bindings {
            match v {
                Value::Int(n) => {
                    r.declare_int(name);
                    frame.push(*n);
                }
                Value::Array(a) => {
                    r.array_names.push(name.to_string());
                    r.array_ranks.push(a.rank());
                    arrays.push(a.clone());
                    r.declare(name, Binding::Array(arrays.len() - 1));
                }
                Value::Struct(s) => {
                    r.structs.push(StructType {
                        name: s.type_name.clone(),
                        fields: s.fields.keys().cloned().collect(),
                    });
                    let base = r.slots(s.fields.len());
                    frame.extend(s.fields.values());
                    let ty = r.structs.len() - 1;
                    r.declare(name, Binding::Struct { base, ty });
                }
            }
        }
        let expr = r.expr(e);
        let externs = vec![None; r.callees.len()];
        let code = Lowered {
            array_names: r.array_names,
            structs: r.structs,
            callees: r.callees,
            ..Lowered::default()
        };
        run(&Exec::new(&code, &arrays, &externs, &[], &mut frame), &expr)
    }
}

/// Runs lowered code over one frame.
pub(crate) struct Exec<'a> {
    code: &'a Lowered,
    arrays: &'a [ArrayVal],
    externs: &'a [Option<Extern>],
    extents: &'a [usize],
    frame: &'a mut [i64],
    iterations: u64,
}

fn array_display(a: &ArrayVal) -> String {
    format!("int[{:?}]", a.dims)
}

impl<'a> Exec<'a> {
    /// A machine over `frame`, indexing `arrays` and calling `externs`
    /// (the code's callee table resolved), with coordinate space `extents`.
    pub(crate) fn new(
        code: &'a Lowered,
        arrays: &'a [ArrayVal],
        externs: &'a [Option<Extern>],
        extents: &'a [usize],
        frame: &'a mut [i64],
    ) -> Self {
        Exec {
            code,
            arrays,
            externs,
            extents,
            frame,
            iterations: 0,
        }
    }

    /// Sets `vars` to the row-major coordinates of `linear` in `extents`.
    pub(crate) fn bind(&mut self, vars: &[Var], extents: &[usize], linear: usize) {
        let mut rem = linear;
        for (v, &extent) in vars.iter().zip(extents).rev() {
            self.frame[v.slot] = (rem % extent) as i64;
            rem /= extent;
        }
    }

    /// The extents of `vars`, each of which must be positive.
    pub(crate) fn extents(&self, vars: &[Var], what: &str) -> Result<Vec<usize>, EvalError> {
        let mut out = Vec::with_capacity(vars.len());
        for v in vars {
            let extent = self.int(&v.extent)?;
            if extent <= 0 {
                return Err(EvalError::BadParameters(format!(
                    "{what} `{}` has non-positive extent {extent}",
                    v.name
                )));
            }
            out.push(extent as usize);
        }
        Ok(out)
    }

    /// Integer-context evaluation.
    pub(crate) fn int(&self, e: &Expr) -> Result<i64, EvalError> {
        match e {
            Expr::Const(n) => Ok(*n),
            Expr::Slot(s) => Ok(self.frame[*s]),
            Expr::Index(a, subs) => self.index(*a, subs),
            Expr::Neg(x) => Ok(-self.int(x)?),
            Expr::Not(x) => Ok(i64::from(self.int(x)? == 0)),
            Expr::Bin(BinOp::And, a, b) => Ok(if self.int(a)? != 0 {
                i64::from(self.int(b)? != 0)
            } else {
                0
            }),
            Expr::Bin(BinOp::Or, a, b) => Ok(if self.int(a)? != 0 {
                1
            } else {
                i64::from(self.int(b)? != 0)
            }),
            Expr::Bin(op, a, b) => {
                let x = self.int(a)?;
                let y = self.int(b)?;
                Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0 {
                            return Err(EvalError::DivisionByZero);
                        }
                        x / y
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return Err(EvalError::DivisionByZero);
                        }
                        x % y
                    }
                    BinOp::Eq => i64::from(x == y),
                    BinOp::Ne => i64::from(x != y),
                    BinOp::Lt => i64::from(x < y),
                    BinOp::Gt => i64::from(x > y),
                    BinOp::Le => i64::from(x <= y),
                    BinOp::Ge => i64::from(x >= y),
                    BinOp::And | BinOp::Or => unreachable!("short-circuit arms above"),
                })
            }
            Expr::Call(callee, args) => self.call_value(*callee, args),
            Expr::NotStruct(x) => {
                let v = self.int(x)?;
                Err(EvalError::TypeError(format!("expected struct, found {v}")))
            }
            Expr::Fault(f) => Err(self.fault(f)?),
        }
    }

    /// Number-context evaluation.
    pub(crate) fn num(&self, e: &Expr) -> Result<f64, EvalError> {
        match e {
            Expr::Const(n) => Ok(*n as f64),
            Expr::Neg(x) => Ok(-self.num(x)?),
            Expr::Not(x) => Ok(f64::from(self.num(x)? == 0.0)),
            Expr::Bin(op, a, b) => {
                let x = self.num(a)?;
                let y = self.num(b)?;
                Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0.0 {
                            return Err(EvalError::DivisionByZero);
                        }
                        x / y
                    }
                    BinOp::Rem => {
                        if y == 0.0 {
                            return Err(EvalError::DivisionByZero);
                        }
                        x % y
                    }
                    BinOp::Eq => f64::from(x == y),
                    BinOp::Ne => f64::from(x != y),
                    BinOp::Lt => f64::from(x < y),
                    BinOp::Gt => f64::from(x > y),
                    BinOp::Le => f64::from(x <= y),
                    BinOp::Ge => f64::from(x >= y),
                    BinOp::And => f64::from(x != 0.0 && y != 0.0),
                    BinOp::Or => f64::from(x != 0.0 || y != 0.0),
                })
            }
            _ => Ok(self.int(e)? as f64),
        }
    }

    /// Subscripts evaluate last first; the first out-of-range one, left to
    /// right, is reported.
    fn index(&self, a: usize, subs: &[Expr]) -> Result<i64, EvalError> {
        let arr = &self.arrays[a];
        let mut flat = 0usize;
        let mut stride = 1usize;
        let mut bad = None;
        for (e, &extent) in subs.iter().zip(&arr.dims).rev() {
            let i = self.int(e)?;
            if i < 0 || i as usize >= extent {
                bad = Some((i, extent));
            } else {
                flat += i as usize * stride;
            }
            stride *= extent;
        }
        match bad {
            None => Ok(arr.data[flat]),
            Some((index, extent)) => Err(EvalError::IndexOutOfBounds {
                name: self.code.array_names[a].clone(),
                index,
                extent,
            }),
        }
    }

    /// The error a fault raises, unless one of its subscripts fails first.
    fn fault(&self, f: &Fault) -> Result<EvalError, EvalError> {
        for e in f.subs.iter().rev() {
            self.int(e)?;
        }
        Ok(match &f.kind {
            FaultKind::Error(err) => err.clone(),
            FaultKind::ArrayAsInt(a) => EvalError::TypeError(format!(
                "expected int, found {}",
                array_display(&self.arrays[*a])
            )),
            FaultKind::ArrayAsStruct(a) => EvalError::TypeError(format!(
                "expected struct, found {}",
                array_display(&self.arrays[*a])
            )),
            FaultKind::IntAsArray(s) => {
                EvalError::TypeError(format!("expected array, found {}", self.frame[*s]))
            }
        })
    }

    fn extern_fn(&self, callee: usize) -> Result<&'a Extern, EvalError> {
        self.externs[callee].as_ref().ok_or_else(|| {
            EvalError::Undefined(format!("extern function {}", self.code.callees[callee]))
        })
    }

    fn value(&self, a: &Arg) -> Result<Value, EvalError> {
        Ok(match a {
            Arg::Int(e) => Value::Int(self.int(e)?),
            Arg::Array(a) => Value::Array(self.arrays[*a].clone()),
            Arg::Struct { base, ty } => {
                let st = &self.code.structs[*ty];
                Value::Struct(StructVal {
                    type_name: st.name.clone(),
                    fields: st
                        .fields
                        .iter()
                        .enumerate()
                        .map(|(o, f)| (f.clone(), self.frame[base + o]))
                        .collect(),
                })
            }
        })
    }

    fn call_value(&self, callee: usize, args: &[Arg]) -> Result<i64, EvalError> {
        let f = self.extern_fn(callee)?;
        let vals = args
            .iter()
            .map(|a| self.value(a))
            .collect::<Result<Vec<_>, _>>()?;
        f.call(&vals)?
            .ret
            .ok_or_else(|| EvalError::ExternError {
                name: self.code.callees[callee].clone(),
                message: "used in expression position but returned no value".into(),
            })?
            .as_int()
    }

    fn store(&mut self, place: &Place, v: Value) -> Result<(), EvalError> {
        let retype =
            |name: &str, v: &Value| EvalError::TypeError(format!("cannot store {v} in `{name}`"));
        match place {
            Place::Int(s, name) => match v {
                Value::Int(n) => self.frame[*s] = n,
                other => return Err(retype(name, &other)),
            },
            Place::Field(s) => self.frame[*s] = v.as_int()?,
            Place::Struct { base, ty, name } => {
                let st = &self.code.structs[*ty];
                match &v {
                    Value::Struct(sv)
                        if sv.fields.len() == st.fields.len()
                            && st.fields.iter().all(|f| sv.fields.contains_key(f)) =>
                    {
                        for (o, f) in st.fields.iter().enumerate() {
                            self.frame[base + o] = sv.fields[f];
                        }
                    }
                    other => return Err(retype(name, other)),
                }
            }
            Place::Array(name) => return Err(retype(name, &v)),
            Place::Unbound(name) => return Err(EvalError::Undefined(name.clone())),
            Place::MissingField(field) => {
                v.as_int()?;
                return Err(EvalError::Undefined(format!("field {field}")));
            }
            Place::NonStruct(cur) => {
                return Err(EvalError::TypeError(format!(
                    "member assignment into non-struct {}",
                    self.value(cur)?
                )))
            }
        }
        Ok(())
    }

    fn tick(&mut self) -> Result<(), EvalError> {
        self.iterations += 1;
        if self.iterations > ITERATION_LIMIT {
            return Err(EvalError::IterationLimit(ITERATION_LIMIT));
        }
        Ok(())
    }

    /// Linear index of a scheme activity's processor.
    fn activity_proc(&self, coords: &[Expr]) -> Result<usize, EvalError> {
        if coords.len() != self.extents.len() {
            return Err(EvalError::BadProcessor(format!(
                "activity names {} coordinates but the coordinate space has {}",
                coords.len(),
                self.extents.len()
            )));
        }
        self.linear(coords)
    }

    /// Linear index of a `link` endpoint or the parent.
    pub(crate) fn processor(&self, coords: &[Expr]) -> Result<usize, EvalError> {
        if coords.len() != self.extents.len() {
            return Err(EvalError::BadProcessor(format!(
                "{} coordinates given, {} expected",
                coords.len(),
                self.extents.len()
            )));
        }
        self.linear(coords)
    }

    fn linear(&self, coords: &[Expr]) -> Result<usize, EvalError> {
        let mut linear = 0usize;
        for (e, &extent) in coords.iter().zip(self.extents) {
            linear = linear * extent + self.coordinate(e, extent)?;
        }
        Ok(linear)
    }

    fn coordinate(&self, e: &Expr, extent: usize) -> Result<usize, EvalError> {
        let c = self.int(e)?;
        if c < 0 || c as usize >= extent {
            return Err(EvalError::BadProcessor(format!(
                "coordinate {c} outside 0..{extent}"
            )));
        }
        Ok(c as usize)
    }

    /// Runs the scheme into `sink`.
    ///
    /// # Panics
    /// If the code has no scheme section.
    pub(crate) fn run_scheme(&mut self, sink: &mut dyn SchemeSink) -> Result<(), EvalError> {
        let code = self.code;
        let ops = code.scheme.as_deref().expect("the model has a scheme");
        self.run(ops, sink)
    }

    fn run(&mut self, ops: &[Op], sink: &mut dyn SchemeSink) -> Result<(), EvalError> {
        for op in ops {
            self.step(op, sink)?;
        }
        Ok(())
    }

    fn step(&mut self, op: &Op, sink: &mut dyn SchemeSink) -> Result<(), EvalError> {
        match op {
            Op::Set(s, e) => self.frame[*s] = self.int(e)?,
            Op::Update(s, op, e) => {
                let old = self.frame[*s];
                let r = self.int(e)?;
                self.frame[*s] = match op {
                    AssignOp::Add => old + r,
                    AssignOp::Sub => old - r,
                    AssignOp::Mul => old * r,
                    AssignOp::Set => unreachable!("plain stores lower to Set"),
                };
            }
            Op::Zero(base, len) => self.frame[*base..base + len].fill(0),
            Op::Assign(place, arg) => {
                let v = self.value(arg)?;
                self.store(place, v)?;
            }
            Op::Raise(e) => return Err(self.int(e).expect_err("lowered to fail")),
            Op::If(cond, then, els) => {
                let branch = if self.int(cond)? != 0 { then } else { els };
                self.run(branch, sink)?;
            }
            Op::Loop(l) => {
                self.run(&l.init, sink)?;
                if !l.par {
                    return self.iterate(l, sink);
                }
                sink.par_begin();
                let result = self.iterate(l, sink);
                sink.par_end();
                return result;
            }
            Op::Compute(pct, proc) => {
                let pct = self.num(pct)?;
                let p = self.activity_proc(proc)?;
                sink.compute(p, pct);
            }
            Op::Transfer(pct, src, dst) => {
                let pct = self.num(pct)?;
                let s = self.activity_proc(src)?;
                let d = self.activity_proc(dst)?;
                sink.transfer(s, d, pct);
            }
            Op::Call(call) => self.call(call)?,
        }
        Ok(())
    }

    fn iterate(&mut self, l: &Loop, sink: &mut dyn SchemeSink) -> Result<(), EvalError> {
        loop {
            match &l.cond {
                Some(c) if self.int(c)? == 0 => return Ok(()),
                Some(_) => {}
                None => {
                    return Err(EvalError::TypeError(format!(
                        "{} loop without a condition never terminates",
                        if l.par { "par" } else { "for" }
                    )))
                }
            }
            self.tick()?;
            self.run(&l.body, sink)?;
            self.run(&l.step, sink)?;
            if l.par {
                sink.par_branch();
            }
        }
    }

    fn call(&mut self, call: &CallOp) -> Result<(), EvalError> {
        let f = self.extern_fn(call.callee)?;
        if let (Extern::GetProcessor, Some(n)) = (f, call.native) {
            let mut ints = [0i64; 3];
            for (v, a) in ints.iter_mut().zip(call.args.iter()) {
                if let CallArgL::Value(Arg::Int(e)) = a {
                    *v = self.int(e)?;
                }
            }
            let [row, col, m] = ints;
            let (i, j) = locate_processor(row, col, m, &self.arrays[n.h], &self.arrays[n.w])?;
            self.frame[n.i] = i;
            self.frame[n.j] = j;
            return Ok(());
        }
        let mut vals = Vec::with_capacity(call.args.len());
        for a in call.args.iter() {
            vals.push(match a {
                CallArgL::Value(a) | CallArgL::Out(a, _) => self.value(a)?,
            });
        }
        let result = f.call(&vals)?;
        let places: Vec<&Place> = call
            .args
            .iter()
            .filter_map(|a| match a {
                CallArgL::Out(_, p) => Some(p),
                CallArgL::Value(_) => None,
            })
            .collect();
        if places.len() != result.outs.len() {
            return Err(EvalError::ExternError {
                name: self.code.callees[call.callee].clone(),
                message: format!(
                    "returned {} out-values for {} &-arguments",
                    result.outs.len(),
                    places.len()
                ),
            });
        }
        for (p, v) in places.into_iter().zip(result.outs) {
            self.store(p, v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::error::EvalError;
    use crate::model::{CompiledModel, ParamValue, PerformanceModel};
    use crate::scheme::{RecordingSink, SchemeEvent};

    /// Runs a scheme over `T(int p)` with `p = 4`; returns the computes.
    fn computes(scheme: &str) -> Result<Vec<usize>, EvalError> {
        let inst = CompiledModel::compile(&format!(
            "typedef struct {{int I; int J;}} Processor;
             typedef struct {{int A;}} Other;
             algorithm T(int p, int d[p]) {{
                 coord I=p;
                 node {{I>=0: bench*(1);}};
                 parent[0];
                 scheme {{ {scheme} }};
             }}"
        ))
        .unwrap()
        .instantiate(&[ParamValue::Int(4), ParamValue::Array(vec![0, 1, 2, 3])])?;
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink)?;
        Ok(sink
            .events
            .iter()
            .filter_map(|e| match e {
                SchemeEvent::Compute { proc, .. } => Some(*proc),
                _ => None,
            })
            .collect())
    }

    #[test]
    fn blocks_shadow_and_restore() {
        let procs = computes(
            "int x = 1;
             { int x = x + 2; 100%%[x]; { x = 0; int x = 2; 100%%[x]; } 100%%[x]; }
             100%%[x];",
        )
        .unwrap();
        assert_eq!(procs, vec![3, 2, 0, 1]);
    }

    #[test]
    fn coordinates_and_parameters_are_scheme_variables() {
        // Coordinates start at zero and may be loop variables; parameters
        // may be reassigned for the rest of one run only.
        let procs =
            computes("100%%[I]; for (I = 1; I < p; I += 2) 100%%[I]; p = 1; 100%%[p];").unwrap();
        assert_eq!(procs, vec![0, 1, 3, 1]);
        assert_eq!(
            computes("100%%[p - 1];").unwrap(),
            vec![3],
            "each run starts from the bound parameters"
        );
    }

    #[test]
    fn structs_copy_field_by_field() {
        let procs = computes(
            "Processor A, B; A.I = 3; A.J = 1; B = A; A.I = 0; 100%%[B.I]; 100%%[B.J]; 100%%[A.I];",
        )
        .unwrap();
        assert_eq!(procs, vec![3, 1, 0]);
    }

    #[test]
    fn a_declaration_as_a_branch_body_is_scoped_to_it() {
        // As in C99, the body of an `if` or loop is a block of its own.
        assert_eq!(
            computes("if (p > 0) int x = 2; 100%%[x];").unwrap_err(),
            EvalError::Undefined("x".into())
        );
        assert_eq!(
            computes("int x = 1; if (p > 0) int x = 2; 100%%[x];").unwrap(),
            vec![1]
        );
    }

    #[test]
    fn variables_keep_their_declared_type() {
        let ty = |m: &str| EvalError::TypeError(m.to_string());
        assert_eq!(
            computes("int x; x = d;").unwrap_err(),
            ty("cannot store int[[4]] in `x`")
        );
        assert_eq!(
            computes("Processor A; Other B; A = B;").unwrap_err(),
            ty("cannot store Other {..} in `A`")
        );
        assert_eq!(
            computes("Processor A; A = 1;").unwrap_err(),
            ty("cannot store 1 in `A`")
        );
        assert_eq!(computes("d = 1;").unwrap_err(), ty("cannot store 1 in `d`"));
        assert_eq!(
            computes("Processor A; A.K = 1;").unwrap_err(),
            EvalError::Undefined("field K".into())
        );
        assert_eq!(
            computes("Processor A; Other B; A.I = B;").unwrap_err(),
            ty("expected int, found Other {..}")
        );
        assert_eq!(
            computes("y = 1;").unwrap_err(),
            EvalError::Undefined("y".into())
        );
    }
}
