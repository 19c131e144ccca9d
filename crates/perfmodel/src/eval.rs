//! Extern functions, builtins and standalone expression evaluation.
//!
//! Models evaluate through their lowered form (module `lower`). This
//! module holds what that form calls out to — the extern-function registry
//! and the Figure 7 builtin `GetProcessor` — plus [`eval_int`] and
//! [`eval_num`], which run one expression through the same lowering in the
//! two contexts the crate-level semantics note defines: integer (array
//! subscripts, loop control, guards — C integer semantics with truncating
//! division) and number (volume and percentage expressions — `f64` with
//! true division).

use crate::ast::Expr;
use crate::error::EvalError;
use crate::lower::Lowered;
use crate::value::{ArrayVal, StructVal, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// What an extern function produced.
#[derive(Debug, Clone)]
pub struct ExternResult {
    /// Value returned in expression position (if any).
    pub ret: Option<Value>,
    /// Values stored into the `&lvalue` out-parameters, in order.
    pub outs: Vec<Value>,
}

/// An extern function: receives the evaluated values of *all* arguments
/// (out-parameters contribute their current value) and returns the values to
/// write back.
pub type ExternFn = Arc<dyn Fn(&[Value]) -> Result<ExternResult, EvalError> + Send + Sync>;

/// A registry entry: the builtin, which the lowered form can run without
/// building argument values, or a registered function.
#[derive(Clone)]
pub(crate) enum Extern {
    GetProcessor,
    Fn(ExternFn),
}

impl Extern {
    pub(crate) fn call(&self, args: &[Value]) -> Result<ExternResult, EvalError> {
        match self {
            Extern::GetProcessor => get_processor(args),
            Extern::Fn(f) => f(args),
        }
    }
}

impl std::fmt::Debug for Extern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Extern::GetProcessor => "GetProcessor",
            Extern::Fn(_) => "Fn",
        })
    }
}

/// Registry of extern functions callable from model source.
#[derive(Clone, Default)]
pub struct Externs {
    fns: HashMap<String, Extern>,
}

impl std::fmt::Debug for Externs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Externs")
            .field("names", &self.fns.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Externs {
    /// An empty registry.
    pub fn new() -> Self {
        Externs::default()
    }

    /// The default registry: currently the Figure 7 builtin
    /// [`get_processor`] under the name `GetProcessor`.
    pub fn with_builtins() -> Self {
        let mut e = Externs::new();
        e.fns.insert("GetProcessor".into(), Extern::GetProcessor);
        e
    }

    /// Registers (or replaces) a function.
    pub fn register(&mut self, name: impl Into<String>, f: ExternFn) {
        self.fns.insert(name.into(), Extern::Fn(f));
    }

    /// The entry registered under `name`.
    pub(crate) fn resolve(&self, name: &str) -> Option<Extern> {
        self.fns.get(name).cloned()
    }
}

/// The Figure 7 builtin: `GetProcessor(row, col, m, h, w, &Root)` returns in
/// `Root` the grid coordinates `(I, J)` of the abstract processor whose
/// rectangle of a generalised block contains the `r × r` block at
/// `(row, col)`.
///
/// Column slices have widths `w[J]`; within the column slice `J`, row slices
/// have heights `h[I][J][I][J]`.
///
/// # Errors
/// [`EvalError::ExternError`] on wrong arity/shape or coordinates outside
/// the generalised block.
pub fn get_processor(args: &[Value]) -> Result<ExternResult, EvalError> {
    if args.len() != 6 {
        return Err(EvalError::ExternError {
            name: "GetProcessor".into(),
            message: format!("expected 6 arguments, got {}", args.len()),
        });
    }
    let row = args[0].as_int()?;
    let col = args[1].as_int()?;
    let m = args[2].as_int()?;
    let h = args[3].as_array()?;
    let w = args[4].as_array()?;
    let (grid_i, grid_j) = locate_processor(row, col, m, h, w)?;

    let mut fields = std::collections::BTreeMap::new();
    fields.insert("I".to_string(), grid_i);
    fields.insert("J".to_string(), grid_j);
    Ok(ExternResult {
        ret: None,
        outs: vec![Value::Struct(StructVal {
            type_name: "Processor".into(),
            fields,
        })],
    })
}

/// [`get_processor`] on checked operands: the grid coordinates `(I, J)`.
///
/// # Errors
/// As [`get_processor`], after its argument checks.
pub(crate) fn locate_processor(
    row: i64,
    col: i64,
    m: i64,
    h: &ArrayVal,
    w: &ArrayVal,
) -> Result<(i64, i64), EvalError> {
    let fail = |message: String| EvalError::ExternError {
        name: "GetProcessor".into(),
        message,
    };
    // Column slice: smallest J with col < sum(w[0..=J]).
    let mut acc = 0i64;
    let mut grid_j = None;
    for j in 0..m {
        acc += w.get("w", &[j])?;
        if col < acc {
            grid_j = Some(j);
            break;
        }
    }
    let grid_j =
        grid_j.ok_or_else(|| fail(format!("column {col} beyond the generalised block")))?;

    // Row slice within column grid_j: smallest I with row < sum(h[0..=I][J][..]).
    let mut acc = 0i64;
    let mut grid_i = None;
    for i in 0..m {
        acc += h.get("h", &[i, grid_j, i, grid_j])?;
        if row < acc {
            grid_i = Some(i);
            break;
        }
    }
    let grid_i = grid_i.ok_or_else(|| fail(format!("row {row} beyond the generalised block")))?;
    Ok((grid_i, grid_j))
}

/// C byte size of a named type (`sizeof(double)` in Figure 4/7).
///
/// # Errors
/// [`EvalError::TypeError`] for unknown type names.
pub fn sizeof(ty: &str) -> Result<i64, EvalError> {
    match ty {
        "char" => Ok(1),
        "short" => Ok(2),
        "int" | "float" => Ok(4),
        "long" | "double" => Ok(8),
        other => Err(EvalError::TypeError(format!(
            "sizeof unknown type `{other}`"
        ))),
    }
}

/// Evaluates a standalone expression in integer context (guards, indices,
/// loop control: C semantics, truncating division, comparisons yield 0/1,
/// `&&`/`||` short-circuit over zero/nonzero) against named bindings, the
/// way a model evaluates it: lowered once, then run over a frame. No
/// extern function is registered.
///
/// # Errors
/// [`EvalError::DivisionByZero`], [`EvalError::Undefined`],
/// [`EvalError::TypeError`], [`EvalError::IndexOutOfBounds`].
pub fn eval_int(e: &Expr, bindings: &[(&str, Value)]) -> Result<i64, EvalError> {
    Lowered::standalone(e, bindings, |ex, e| ex.int(e))
}

/// Evaluates a standalone expression in number context (volumes and
/// percentages: everything promotes to `f64`, `/` is true division), as
/// [`eval_int`] does in integer context.
///
/// # Errors
/// As [`eval_int`]; division by (exact) zero is reported rather than
/// producing infinity.
pub fn eval_num(e: &Expr, bindings: &[(&str, Value)]) -> Result<f64, EvalError> {
    Lowered::standalone(e, bindings, |ex, e| ex.num(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn expr(src: &str) -> Expr {
        // Wrap in a minimal algorithm so we can reuse the real parser.
        let prog = parse_program(&format!(
            "algorithm T(int p) {{ coord I=p; node {{I>=0: bench*({src});}}; parent[0]; scheme {{;}}; }}"
        ))
        .unwrap();
        prog.algorithms[0].node_rules[0].volume.clone()
    }

    fn env_with(vars: &[(&'static str, i64)]) -> Vec<(&'static str, Value)> {
        vars.iter().map(|&(n, v)| (n, Value::Int(v))).collect()
    }

    #[test]
    fn int_arithmetic_is_c_like() {
        let env = env_with(&[("k", 7), ("l", 3)]);
        assert_eq!(eval_int(&expr("k/l"), &env).unwrap(), 2);
        assert_eq!(eval_int(&expr("k%l"), &env).unwrap(), 1);
        assert_eq!(eval_int(&expr("-k+1"), &env).unwrap(), -6);
    }

    #[test]
    fn num_division_is_true_division() {
        let env = env_with(&[("n", 200)]);
        let v = eval_num(&expr("100/n"), &env).unwrap();
        assert!((v - 0.5).abs() < 1e-12);
        // The same expression in int context is zero: the exact trap the
        // crate-level semantics note documents.
        assert_eq!(eval_int(&expr("100/n"), &env).unwrap(), 0);
    }

    #[test]
    fn comparisons_and_logic() {
        let env = env_with(&[("I", 2), ("L", 2)]);
        assert_eq!(eval_int(&expr("I>=0 && I!=L"), &env).unwrap(), 0);
        assert_eq!(eval_int(&expr("I>=0 || I!=L"), &env).unwrap(), 1);
        assert_eq!(eval_int(&expr("!(I==L)"), &env).unwrap(), 0);
    }

    #[test]
    fn short_circuit_protects_rhs() {
        // I != 0 && d[I] > 0 with I = -1 must not index d.
        let mut env = env_with(&[("I", -1)]);
        env.push((
            "d",
            Value::Array(ArrayVal::new(vec![2], vec![5, 6]).unwrap()),
        ));
        assert_eq!(eval_int(&expr("I>=0 && d[I]>0"), &env).unwrap(), 0);
    }

    #[test]
    fn array_indexing_multi_dim() {
        let mut env = env_with(&[("I", 1), ("L", 0)]);
        env.push((
            "dep",
            Value::Array(ArrayVal::new(vec![2, 2], vec![0, 1, 2, 3]).unwrap()),
        ));
        assert_eq!(eval_int(&expr("dep[I][L]"), &env).unwrap(), 2);
        assert_eq!(
            eval_num(&expr("dep[I][L]*sizeof(double)"), &env).unwrap(),
            16.0
        );
    }

    #[test]
    fn division_by_zero_reported() {
        let env = env_with(&[("z", 0)]);
        assert_eq!(eval_int(&expr("1/z"), &env), Err(EvalError::DivisionByZero));
        assert_eq!(eval_num(&expr("1/z"), &env), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn sizeof_table() {
        assert_eq!(sizeof("double").unwrap(), 8);
        assert_eq!(sizeof("int").unwrap(), 4);
        assert_eq!(sizeof("char").unwrap(), 1);
        assert!(sizeof("quux").is_err());
    }

    #[test]
    fn get_processor_builtin_maps_block_coords() {
        // m = 2; widths w = [3, 1] (l = 4); heights in column 0: [1, 3],
        // column 1: [2, 2].
        let m = 2i64;
        // h[I][J][I][J]: only diagonal entries matter here.
        let mut h = vec![0i64; 16];
        let at = |i: usize, j: usize, k: usize, l: usize| ((i * 2 + j) * 2 + k) * 2 + l;
        h[at(0, 0, 0, 0)] = 1;
        h[at(1, 0, 1, 0)] = 3;
        h[at(0, 1, 0, 1)] = 2;
        h[at(1, 1, 1, 1)] = 2;
        let args = |row: i64, col: i64| {
            vec![
                Value::Int(row),
                Value::Int(col),
                Value::Int(m),
                Value::Array(ArrayVal::new(vec![2, 2, 2, 2], h.clone()).unwrap()),
                Value::Array(ArrayVal::new(vec![2], vec![3, 1]).unwrap()),
                Value::Int(0), // placeholder for &Root's current value
            ]
        };
        let coords = |row: i64, col: i64| {
            let res = get_processor(&args(row, col)).unwrap();
            let s = res.outs[0].as_struct().unwrap().clone();
            (s.fields["I"], s.fields["J"])
        };
        assert_eq!(coords(0, 0), (0, 0));
        assert_eq!(coords(0, 2), (0, 0));
        assert_eq!(coords(0, 3), (0, 1));
        assert_eq!(coords(1, 0), (1, 0)); // row 1 is past column-0's first slice (height 1)
        assert_eq!(coords(1, 3), (0, 1)); // column 1's first slice has height 2
        assert_eq!(coords(3, 3), (1, 1));
    }

    #[test]
    fn get_processor_rejects_out_of_block() {
        let args = vec![
            Value::Int(0),
            Value::Int(99),
            Value::Int(1),
            Value::Array(ArrayVal::new(vec![1, 1, 1, 1], vec![1]).unwrap()),
            Value::Array(ArrayVal::new(vec![1], vec![1]).unwrap()),
            Value::Int(0),
        ];
        assert!(matches!(
            get_processor(&args),
            Err(EvalError::ExternError { .. })
        ));
    }
}
