//! Error parity: every `EvalError` variant is raised by the code that
//! offends, when it executes, with a fixed message. Names that sit in code
//! that never runs (an untaken branch, the right side of a short-circuited
//! `&&`/`||` in an integer context, a node rule after the first match)
//! must not error.

use perfmodel::eval::{ExternResult, Externs};
use perfmodel::scheme::ITERATION_LIMIT;
use perfmodel::{
    CompiledModel, EvalError, ParamValue, PerformanceModel, RecordingSink, SchemeEvent, Value,
};
use std::sync::Arc;

/// A one-dimensional model `T(int p, int z, int d[p])` with the given
/// node volume and scheme body.
fn model(volume: &str, scheme: &str) -> CompiledModel {
    CompiledModel::compile(&format!(
        "typedef struct {{int I; int J;}} Processor;
         algorithm T(int p, int z, int d[p]) {{
             coord I=p;
             node {{I>=0: bench*({volume});}};
             parent[0];
             scheme {{ {scheme} }};
         }}"
    ))
    .unwrap()
}

fn params() -> Vec<ParamValue> {
    vec![
        ParamValue::Int(2),
        ParamValue::Int(0),
        ParamValue::Array(vec![10, 20]),
    ]
}

fn instantiate_err(volume: &str) -> EvalError {
    model(volume, ";").instantiate(&params()).unwrap_err()
}

fn run(m: &CompiledModel, params: &[ParamValue]) -> Result<Vec<SchemeEvent>, EvalError> {
    let inst = m.instantiate(params)?;
    let mut sink = RecordingSink::default();
    inst.run_scheme(&mut sink)?;
    Ok(sink.events)
}

fn scheme_err(scheme: &str) -> EvalError {
    run(&model("1", scheme), &params()).unwrap_err()
}

/// `G(int m, int w[m], int h[m][m][m][m])` on a 2 x 2 grid whose blocks
/// each hold one unit square.
fn grid_run(scheme: &str) -> Result<Vec<SchemeEvent>, EvalError> {
    let m = CompiledModel::compile(&format!(
        "typedef struct {{int I; int J;}} Processor;
         algorithm G(int m, int w[m], int h[m][m][m][m]) {{
             coord I=m, J=m;
             node {{I>=0 && J>=0: bench*(1);}};
             parent[0,0];
             scheme {{ {scheme} }};
         }}"
    ))
    .unwrap();
    let mut h = vec![0i64; 16];
    for (i, j) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
        h[((i * 2 + j) * 2 + i) * 2 + j] = 1;
    }
    run(
        &m,
        &[
            ParamValue::Int(2),
            ParamValue::Array(vec![1, 1]),
            ParamValue::Array(h),
        ],
    )
}

fn type_error(msg: &str) -> EvalError {
    EvalError::TypeError(msg.to_string())
}

#[test]
fn undefined_names_error_only_where_they_run() {
    assert_eq!(
        scheme_err("100%%[mystery];"),
        EvalError::Undefined("mystery".into())
    );
    assert_eq!(
        instantiate_err("mystery"),
        EvalError::Undefined("mystery".into())
    );
    assert_eq!(
        scheme_err("Processor R; 100%%[R.K];"),
        EvalError::Undefined("field K".into())
    );
    assert_eq!(
        scheme_err("Frob(1);"),
        EvalError::Undefined("extern function Frob".into())
    );
    assert_eq!(
        EvalError::Undefined("mystery".into()).to_string(),
        "undefined name `mystery`"
    );

    // Never executed: untaken branch, zero-trip loop, short-circuit in an
    // integer context, a later node rule.
    let events = run(
        &model(
            "1",
            "int i;
             if (p > 100) 100%%[mystery]; else 100%%[0];
             for (i = 0; i < 0; i++) 100%%[mystery];
             if (p > 0 || mystery) 100%%[1];
             if (p < 0 && mystery) 100%%[mystery];",
        ),
        &params(),
    )
    .unwrap();
    assert_eq!(
        events,
        vec![
            SchemeEvent::Compute {
                proc: 0,
                percent: 100.0
            },
            SchemeEvent::Compute {
                proc: 1,
                percent: 100.0
            },
        ]
    );
    let ok = CompiledModel::compile(
        "algorithm T(int p) {
             coord I=p;
             node {I>=0 || mystery: bench*(1); I>=0: bench*(mystery);};
             parent[0];
         }",
    )
    .unwrap()
    .instantiate(&[ParamValue::Int(2)])
    .unwrap();
    assert_eq!(ok.volumes(), &[1.0, 1.0]);

    // A number context evaluates both operands of `&&`.
    assert_eq!(
        instantiate_err("0 && mystery"),
        EvalError::Undefined("mystery".into())
    );
    // Coordinates are not in scope in the parent section.
    let err = CompiledModel::compile(
        "algorithm T(int p) { coord I=p; node {I>=0: bench*(1);}; parent[I]; }",
    )
    .unwrap()
    .instantiate(&[ParamValue::Int(2)])
    .unwrap_err();
    assert_eq!(err, EvalError::Undefined("I".into()));
}

#[test]
fn type_errors_name_the_offending_value() {
    assert_eq!(
        instantiate_err("d"),
        type_error("expected int, found int[[2]]")
    );
    assert_eq!(
        instantiate_err("p[0]"),
        type_error("expected array, found 2")
    );
    assert_eq!(
        instantiate_err("d[0][0]"),
        type_error("`d` has rank 1 but was indexed with 2 subscripts")
    );
    assert_eq!(
        instantiate_err("p.I"),
        type_error("expected struct, found 2")
    );
    assert_eq!(
        instantiate_err("d.I"),
        type_error("expected struct, found int[[2]]")
    );
    assert_eq!(
        instantiate_err("sizeof(quux)"),
        type_error("sizeof unknown type `quux`")
    );
    assert_eq!(
        scheme_err("Processor R; 100%%[R];"),
        type_error("expected int, found Processor {..}")
    );
    assert_eq!(
        scheme_err("Processor R; 100%%[R.I[0]];"),
        type_error("cannot index into Member(Var(\"R\"), \"I\")")
    );
    assert_eq!(
        scheme_err("int x; x.I = 1;"),
        type_error("member assignment into non-struct 0")
    );
    assert_eq!(
        scheme_err("int x; x += d;"),
        type_error("expected int, found int[[2]]")
    );
    assert_eq!(
        scheme_err("Processor R = 1;"),
        type_error("struct declarations cannot take initialisers")
    );
    assert_eq!(
        scheme_err("int i; for (i = 0; ; i++) ;"),
        type_error("for loop without a condition never terminates")
    );
    // The par block still closes around the failed loop.
    let m = model("1", "int i; par (i = 0; ; i++) ;");
    let inst = m.instantiate(&params()).unwrap();
    let mut sink = RecordingSink::default();
    assert_eq!(
        inst.run_scheme(&mut sink).unwrap_err(),
        type_error("par loop without a condition never terminates")
    );
    assert_eq!(
        sink.events,
        vec![SchemeEvent::ParBegin, SchemeEvent::ParEnd]
    );
}

#[test]
fn index_out_of_bounds_reports_the_first_bad_subscript() {
    let oob = |name: &str, index, extent| EvalError::IndexOutOfBounds {
        name: name.into(),
        index,
        extent,
    };
    assert_eq!(instantiate_err("d[I+1]"), oob("d", 2, 2));
    assert_eq!(instantiate_err("d[-1]"), oob("d", -1, 2));
    assert_eq!(scheme_err("100%%[d[5]];"), oob("d", 5, 2));
    assert_eq!(
        oob("d", 5, 2).to_string(),
        "index 5 out of bounds for `d` (extent 2)"
    );
    // Left to right across dimensions; subscripts are all evaluated first,
    // last one first.
    assert_eq!(
        grid_run("100%%[h[5][7][0][0], 0];").unwrap_err(),
        oob("h", 5, 2)
    );
    assert_eq!(
        grid_run("100%%[h[0][7][0][9], 0];").unwrap_err(),
        oob("h", 7, 2)
    );
    assert_eq!(
        grid_run("100%%[h[9][0][0][1/0], 0];").unwrap_err(),
        EvalError::DivisionByZero
    );
}

#[test]
fn division_by_zero_in_int_and_num_contexts() {
    assert_eq!(instantiate_err("1/z"), EvalError::DivisionByZero);
    assert_eq!(instantiate_err("1%z"), EvalError::DivisionByZero);
    assert_eq!(scheme_err("100%%[1/z];"), EvalError::DivisionByZero);
    assert_eq!(scheme_err("100%%[p%z];"), EvalError::DivisionByZero);
    assert_eq!(scheme_err("(1/z)%%[0];"), EvalError::DivisionByZero);
    assert_eq!(
        EvalError::DivisionByZero.to_string(),
        "integer division by zero"
    );
}

#[test]
fn bad_parameters_are_reported_at_instantiation() {
    let m = model("1", ";");
    let bad = |params: &[ParamValue]| m.instantiate(params).unwrap_err();
    let msg = |s: &str| EvalError::BadParameters(s.to_string());
    assert_eq!(
        bad(&[ParamValue::Int(2)]),
        msg("model `T` takes 3 parameters, got 1")
    );
    assert_eq!(
        bad(&[
            ParamValue::Array(vec![2]),
            ParamValue::Int(0),
            ParamValue::Array(vec![1, 2])
        ]),
        msg("parameter `p` is scalar but an array was supplied")
    );
    assert_eq!(
        bad(&[ParamValue::Int(2), ParamValue::Int(0), ParamValue::Int(1)]),
        msg("parameter `d` is an array but a scalar was supplied")
    );
    assert_eq!(
        bad(&[
            ParamValue::Int(2),
            ParamValue::Int(0),
            ParamValue::Array(vec![1])
        ]),
        msg("array data has 1 elements but dims [2] require 2")
    );
    assert_eq!(
        bad(&[
            ParamValue::Int(0),
            ParamValue::Int(0),
            ParamValue::Array(vec![])
        ]),
        msg("dimension of `d` evaluated to 0")
    );
    let coord = CompiledModel::compile(
        "algorithm T(int p) { coord I=p-2; node {I>=0: bench*(1);}; parent[0]; }",
    )
    .unwrap();
    assert_eq!(
        coord.instantiate(&[ParamValue::Int(2)]).unwrap_err(),
        msg("coordinate `I` has non-positive extent 0")
    );
    let binder = CompiledModel::compile(
        "algorithm T(int p) { coord I=p; node {I>=0: bench*(1);};
           link (L=p-3) { I!=L: length*(1) [I]->[L]; }; parent[0]; }",
    )
    .unwrap();
    assert_eq!(
        binder.instantiate(&[ParamValue::Int(2)]).unwrap_err(),
        msg("link binder `L` has non-positive extent -1")
    );
}

#[test]
fn extern_errors_carry_the_function_name() {
    let ext = |message: &str| EvalError::ExternError {
        name: "GetProcessor".into(),
        message: message.into(),
    };
    assert_eq!(
        grid_run("Processor R; GetProcessor(0, 9, m, h, w, &R);").unwrap_err(),
        ext("column 9 beyond the generalised block")
    );
    assert_eq!(
        grid_run("Processor R; GetProcessor(9, 0, m, h, w, &R);").unwrap_err(),
        ext("row 9 beyond the generalised block")
    );
    assert_eq!(
        grid_run("Processor R; GetProcessor(0, 1, &R);").unwrap_err(),
        ext("expected 6 arguments, got 3")
    );
    assert_eq!(
        grid_run("Processor R; GetProcessor(0, 0, m, h, w, R.I);").unwrap_err(),
        ext("returned 1 out-values for 0 &-arguments")
    );
    assert_eq!(
        grid_run("100%%[GetProcessor(0, 0, m, h, w, 0), 0];").unwrap_err(),
        ext("used in expression position but returned no value")
    );
    assert_eq!(
        grid_run("Processor R; GetProcessor(0, 0, w, h, w, &R);").unwrap_err(),
        type_error("expected int, found int[[2]]")
    );
    assert_eq!(
        grid_run("Processor R; GetProcessor(0, 1, m, h, w, &R); 100%%[R.I, R.J];").unwrap(),
        vec![SchemeEvent::Compute {
            proc: 1,
            percent: 100.0
        }]
    );
    assert_eq!(
        ext("expected 6 arguments, got 3").to_string(),
        "extern function `GetProcessor`: expected 6 arguments, got 3"
    );

    // Custom externs resolve through the registry the model carries.
    let mut externs = Externs::with_builtins();
    externs.register(
        "Twice",
        Arc::new(|args: &[Value]| {
            let x = args[0].as_int()?;
            if x < 0 {
                return Err(EvalError::ExternError {
                    name: "Twice".into(),
                    message: "negative".into(),
                });
            }
            Ok(ExternResult {
                ret: Some(Value::Int(2 * x)),
                outs: vec![],
            })
        }),
    );
    let m = model("Twice(3)", "100%%[Twice(0)]; 100%%[Twice(-1)];").with_externs(externs);
    let inst = m.instantiate(&params()).unwrap();
    assert_eq!(inst.volumes(), &[6.0, 6.0]);
    let mut sink = RecordingSink::default();
    assert_eq!(
        inst.run_scheme(&mut sink).unwrap_err(),
        EvalError::ExternError {
            name: "Twice".into(),
            message: "negative".into()
        }
    );
    assert_eq!(
        sink.events,
        vec![SchemeEvent::Compute {
            proc: 0,
            percent: 100.0
        }]
    );
}

#[test]
fn bad_processors_are_reported_where_they_are_named() {
    let bp = |s: &str| EvalError::BadProcessor(s.to_string());
    assert_eq!(scheme_err("100%%[p];"), bp("coordinate 2 outside 0..2"));
    assert_eq!(
        scheme_err("100%%[0] -> [-1];"),
        bp("coordinate -1 outside 0..2")
    );
    assert_eq!(
        scheme_err("100%%[0, 0];"),
        bp("activity names 2 coordinates but the coordinate space has 1")
    );
    let link = CompiledModel::compile(
        "algorithm T(int p) { coord I=p; node {I>=0: bench*(1);};
           link { I>=0: length*(1) [I]->[I+1]; }; parent[0]; }",
    )
    .unwrap();
    assert_eq!(
        link.instantiate(&[ParamValue::Int(2)]).unwrap_err(),
        bp("coordinate 2 outside 0..2")
    );
    let parent = CompiledModel::compile(
        "algorithm T(int p) { coord I=p; node {I>=0: bench*(1);}; parent[0, 0]; }",
    )
    .unwrap();
    assert_eq!(
        parent.instantiate(&[ParamValue::Int(2)]).unwrap_err(),
        bp("2 coordinates given, 1 expected")
    );
}

#[test]
fn runaway_loops_hit_the_iteration_cap() {
    let err = scheme_err("int i; for (i = 0; i < 1; ) ;");
    assert_eq!(err, EvalError::IterationLimit(ITERATION_LIMIT));
    assert_eq!(
        err.to_string(),
        "scheme exceeded the 200000000-iteration safety cap"
    );
}
