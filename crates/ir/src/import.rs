//! Text/JSON graph import and export.
//!
//! A small interchange format so external graphs — importer fixtures,
//! fuzzer counterexamples, user models — can flow through every
//! optimizing pipeline without linking a serialization crate. This
//! module is the schema mapping only; the grammar (depth cap, finite
//! numbers, escapes) is `smartmem-json`'s. The format is a single JSON
//! object:
//!
//! ```json
//! {
//!   "name": "finn-mlp",
//!   "tensors": [
//!     {"name": "x",  "kind": "input",  "shape": [1, 64], "dtype": "f32"},
//!     {"name": "s0", "kind": "weight", "shape": [1], "dtype": "f32", "init": [0.5]}
//!   ],
//!   "ops": [
//!     {"kind": "transpose", "perm": [1, 0], "inputs": ["x"], "outputs": ["xt"]},
//!     {"kind": "binary", "f": "mul", "inputs": ["xt", "s0"], "outputs": ["y"]}
//!   ],
//!   "outputs": ["y"]
//! }
//! ```
//!
//! Rules:
//!
//! - `tensors` declares graph inputs and weights only; activations are
//!   declared implicitly by the `outputs` lists of ops. Every tensor name
//!   must be unique. `dtype` defaults to `"f16"` (the zoo convention);
//!   `init` (row-major values, weights only) may contain numbers or the
//!   strings `"nan"`, `"inf"`, `"-inf"`.
//! - `ops` reference tensors by name and may appear in any order; the
//!   importer topologically sorts them and reports [`ImportError::Cycle`]
//!   when no order exists. Operator kinds are the snake-case mnemonics
//!   (`conv2d`, `matmul`, `layer_norm`, `instance_norm`, `softmax`,
//!   `reduce`, `pool2d`, `unary`, `binary`, `concat`, `reshape`,
//!   `transpose`, `depth_to_space`, `space_to_depth`, `gather`, `slice`,
//!   `split`) with the attribute fields shown by [`export_json`].
//! - `outputs` names the graph outputs (at least one).
//!
//! Malformed input of any kind maps to a typed [`ImportError`]; the
//! importer never panics on untrusted bytes.

use crate::dtype::DType;
use crate::error::ImportError;
use crate::graph::{Graph, GraphBuilder, TensorKind};
use crate::ops::{BinaryKind, Op, PoolKind, ReduceKind, UnaryKind};
use crate::sym::BucketTable;
use smartmem_json::{escape, fmt_value, Json};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Hard cap on elements per declared tensor (2^40): rejects absurd shape
/// declarations before they reach shape inference or allocation.
const MAX_TENSOR_NUMEL: u64 = 1 << 40;

// ---------------------------------------------------------------------------
// Field extraction helpers
// ---------------------------------------------------------------------------

fn bad(field: impl Into<String>, expected: &'static str) -> ImportError {
    ImportError::BadField { field: field.into(), expected }
}

fn as_str<'a>(v: &'a Json, field: &str) -> Result<&'a str, ImportError> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err(bad(field, "a string")),
    }
}

fn as_arr<'a>(v: &'a Json, field: &str) -> Result<&'a [Json], ImportError> {
    match v {
        Json::Arr(items) => Ok(items),
        _ => Err(bad(field, "an array")),
    }
}

fn as_bool(v: &Json, field: &str) -> Result<bool, ImportError> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(bad(field, "a boolean")),
    }
}

/// A JSON number that is a non-negative integer fitting in u32.
fn as_usize(v: &Json, field: &str) -> Result<usize, ImportError> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => Ok(*n as usize),
        _ => Err(bad(field, "a non-negative integer")),
    }
}

fn usize_vec(v: &Json, field: &str) -> Result<Vec<usize>, ImportError> {
    as_arr(v, field)?.iter().map(|x| as_usize(x, field)).collect()
}

/// A `[a, b]` pair of non-negative integers (stride/padding/kernel).
fn usize_pair(v: &Json, field: &str) -> Result<(usize, usize), ImportError> {
    let items = as_arr(v, field)?;
    if items.len() != 2 {
        return Err(bad(field, "an array of exactly 2 integers"));
    }
    Ok((as_usize(&items[0], field)?, as_usize(&items[1], field)?))
}

fn opt_field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    obj.get(key).filter(|v| !matches!(v, Json::Null))
}

/// An optional field read by `read`, or `default` when absent or null.
fn opt_or<T>(
    obj: &Json,
    key: &str,
    read: fn(&Json, &str) -> Result<T, ImportError>,
    default: T,
) -> Result<T, ImportError> {
    opt_field(obj, key).map_or(Ok(default), |v| read(v, key))
}

fn req_field<'a>(
    obj: &'a Json,
    object: &'static str,
    key: &'static str,
) -> Result<&'a Json, ImportError> {
    opt_field(obj, key).ok_or(ImportError::MissingField { object, field: key })
}

/// Declares the JSON names of a unit-variant enum once: `$parse` maps a
/// name to its variant (any other name is `$unknown(name)`) and `$name`
/// maps a variant back to its name.
macro_rules! json_names {
    ($ty:ident, $parse:ident, $name:ident, $unknown:expr, { $($v:ident => $s:literal),+ $(,)? }) => {
        fn $parse(s: &str) -> Result<$ty, ImportError> {
            match s {
                $($s => Ok($ty::$v),)+
                other => Err($unknown(other)),
            }
        }

        fn $name(v: $ty) -> &'static str {
            match v {
                $($ty::$v => $s,)+
            }
        }
    };
}

json_names!(DType, parse_dtype, dtype_str, |s: &str| ImportError::UnknownDType(s.into()), {
    F16 => "f16", F32 => "f32", I32 => "i32", I8 => "i8",
});

/// One init value: a finite number (checked after the f32 cast) or one of
/// the sentinel strings `"nan"` / `"inf"` / `"-inf"` that [`export_json`]
/// writes for non-finite values.
fn init_value(v: &Json) -> Result<f32, ImportError> {
    match v {
        Json::Num(n) => {
            let f = *n as f32;
            if f.is_finite() {
                Ok(f)
            } else {
                Err(bad("init", "values representable as finite f32"))
            }
        }
        Json::Str(s) => match s.as_str() {
            "nan" => Ok(f32::NAN),
            "inf" => Ok(f32::INFINITY),
            "-inf" => Ok(f32::NEG_INFINITY),
            _ => Err(bad("init", "a number or \"nan\"/\"inf\"/\"-inf\"")),
        },
        _ => Err(bad("init", "a number or \"nan\"/\"inf\"/\"-inf\"")),
    }
}

// ---------------------------------------------------------------------------
// Operator descriptions
// ---------------------------------------------------------------------------

/// An unknown kind of a kinded operator, reported as `"{op}:{kind}"`.
fn unknown_kind(op: &str) -> impl Fn(&str) -> ImportError + '_ {
    move |kind| ImportError::UnknownOp(format!("{op}:{kind}"))
}

json_names!(UnaryKind, parse_unary_kind, unary_kind_str, unknown_kind("unary"), {
    Relu => "relu", Gelu => "gelu", Silu => "silu", Sigmoid => "sigmoid", Tanh => "tanh",
    Exp => "exp", Sqrt => "sqrt", Recip => "recip", Neg => "neg", Identity => "identity",
});
json_names!(BinaryKind, parse_binary_kind, binary_kind_str, unknown_kind("binary"), {
    Add => "add", Sub => "sub", Mul => "mul", Div => "div", Max => "max",
});
json_names!(ReduceKind, parse_reduce_kind, reduce_kind_str, unknown_kind("reduce"), {
    Sum => "sum", Mean => "mean", Max => "max", Min => "min",
});
json_names!(PoolKind, parse_pool_kind, pool_kind_str, unknown_kind("pool2d"), {
    Max => "max", Avg => "avg",
});

fn parse_op(kind: &str, obj: &Json) -> Result<Op, ImportError> {
    let op = match kind {
        "conv2d" => Op::Conv2d {
            stride: opt_or(obj, "stride", usize_pair, (1, 1))?,
            padding: opt_or(obj, "padding", usize_pair, (0, 0))?,
            groups: opt_or(obj, "groups", as_usize, 1)?,
        },
        "matmul" => Op::MatMul {
            trans_a: opt_or(obj, "trans_a", as_bool, false)?,
            trans_b: opt_or(obj, "trans_b", as_bool, false)?,
        },
        "layer_norm" => Op::LayerNorm { axes: usize_vec(req_field(obj, "op", "axes")?, "axes")? },
        "instance_norm" => Op::InstanceNorm,
        "softmax" => Op::Softmax { axis: as_usize(req_field(obj, "op", "axis")?, "axis")? },
        "reduce" => Op::Reduce {
            kind: parse_reduce_kind(as_str(req_field(obj, "op", "reduce")?, "reduce")?)?,
            axes: usize_vec(req_field(obj, "op", "axes")?, "axes")?,
            keep_dims: opt_or(obj, "keep_dims", as_bool, false)?,
        },
        "pool2d" => {
            let kernel = usize_pair(req_field(obj, "op", "kernel")?, "kernel")?;
            Op::Pool2d {
                kind: parse_pool_kind(as_str(req_field(obj, "op", "pool")?, "pool")?)?,
                kernel,
                stride: opt_or(obj, "stride", usize_pair, kernel)?,
                padding: opt_or(obj, "padding", usize_pair, (0, 0))?,
            }
        }
        "unary" => Op::Unary { kind: parse_unary_kind(as_str(req_field(obj, "op", "f")?, "f")?)? },
        "binary" => {
            Op::Binary { kind: parse_binary_kind(as_str(req_field(obj, "op", "f")?, "f")?)? }
        }
        "concat" => Op::Concat { axis: as_usize(req_field(obj, "op", "axis")?, "axis")? },
        "reshape" => Op::Reshape { shape: usize_vec(req_field(obj, "op", "shape")?, "shape")? },
        "transpose" => Op::Transpose { perm: usize_vec(req_field(obj, "op", "perm")?, "perm")? },
        "depth_to_space" => {
            Op::DepthToSpace { block: as_usize(req_field(obj, "op", "block")?, "block")? }
        }
        "space_to_depth" => {
            Op::SpaceToDepth { block: as_usize(req_field(obj, "op", "block")?, "block")? }
        }
        "gather" => Op::Gather { axis: as_usize(req_field(obj, "op", "axis")?, "axis")? },
        "slice" => Op::Slice {
            axis: as_usize(req_field(obj, "op", "axis")?, "axis")?,
            start: as_usize(req_field(obj, "op", "start")?, "start")?,
            len: as_usize(req_field(obj, "op", "len")?, "len")?,
        },
        "split" => Op::Split {
            axis: as_usize(req_field(obj, "op", "axis")?, "axis")?,
            parts: as_usize(req_field(obj, "op", "parts")?, "parts")?,
        },
        other => return Err(ImportError::UnknownOp(other.to_string())),
    };
    Ok(op)
}

struct OpDesc {
    kind: String,
    op: Op,
    inputs: Vec<String>,
    outputs: Vec<String>,
}

// ---------------------------------------------------------------------------
// Import
// ---------------------------------------------------------------------------

/// Imports a graph from its JSON description.
///
/// See the [module docs](self) for the format. Ops may appear in any
/// order; the importer topologically sorts them, runs shape inference on
/// every operator, and validates dtypes, initializers and references.
///
/// # Errors
///
/// Any malformed input returns a typed [`ImportError`]; this function
/// never panics on untrusted input.
///
/// # Examples
///
/// ```
/// let src = r#"{
///   "name": "tiny",
///   "tensors": [
///     {"name": "x", "kind": "input", "shape": [2, 3], "dtype": "f32"},
///     {"name": "s", "kind": "weight", "shape": [1], "dtype": "f32", "init": [0.5]}
///   ],
///   "ops": [
///     {"kind": "transpose", "perm": [1, 0], "inputs": ["x"], "outputs": ["xt"]},
///     {"kind": "binary", "f": "mul", "inputs": ["xt", "s"], "outputs": ["y"]}
///   ],
///   "outputs": ["y"]
/// }"#;
/// let g = smartmem_ir::import::import_json(src).unwrap();
/// assert_eq!(g.op_count(), 2);
/// assert_eq!(g.layout_transform_count(), 1);
/// assert_eq!(g.tensor(g.outputs()[0]).name, "y");
/// ```
pub fn import_json(src: &str) -> Result<Graph, ImportError> {
    let root = smartmem_json::parse(src)
        .map_err(|e| ImportError::Parse { offset: e.offset, msg: e.msg })?;
    if !matches!(root, Json::Obj(_)) {
        return Err(bad("$", "a top-level JSON object"));
    }
    let name = match opt_field(&root, "name") {
        Some(v) => as_str(v, "name")?.to_string(),
        None => "imported".to_string(),
    };
    let mut b = GraphBuilder::new(name);

    // Pass 1: declared tensors (inputs + weights).
    let mut ids: HashMap<String, crate::TensorId> = HashMap::new();
    for t in as_arr(req_field(&root, "graph", "tensors")?, "tensors")? {
        if !matches!(t, Json::Obj(_)) {
            return Err(bad("tensors", "an array of tensor objects"));
        }
        let tname = as_str(req_field(t, "tensor", "name")?, "name")?.to_string();
        let kind = as_str(req_field(t, "tensor", "kind")?, "kind")?;
        let dims = usize_vec(req_field(t, "tensor", "shape")?, "shape")?;
        let numel = dims.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d as u64));
        match numel {
            Some(n) if n <= MAX_TENSOR_NUMEL => {}
            _ => return Err(bad("shape", "a tensor with at most 2^40 elements")),
        }
        let dtype = match opt_field(t, "dtype") {
            Some(v) => parse_dtype(as_str(v, "dtype")?)?,
            None => DType::F16,
        };
        let init = opt_field(t, "init")
            .map(|v| as_arr(v, "init")?.iter().map(init_value).collect::<Result<Vec<f32>, _>>())
            .transpose()?;
        if ids.contains_key(&tname) {
            return Err(ImportError::DuplicateTensor(tname));
        }
        let id = match kind {
            "input" => {
                if init.is_some() {
                    return Err(bad("init", "initializers on weights only"));
                }
                b.input(tname.clone(), &dims, dtype)
            }
            "weight" => match init {
                Some(vals) => {
                    let need: u64 = dims.iter().map(|&d| d as u64).product();
                    if vals.len() as u64 != need {
                        return Err(ImportError::BadInit {
                            tensor: tname,
                            expected: need,
                            got: vals.len(),
                        });
                    }
                    b.weight_init(tname.clone(), &dims, dtype, vals)
                }
                None => b.weight(tname.clone(), &dims, dtype),
            },
            _ => return Err(bad("kind", "\"input\" or \"weight\"")),
        };
        ids.insert(tname, id);
    }

    // Pass 2: parse op descriptions and check name-level integrity
    // (duplicates, dangling references) before ordering.
    let mut pending: Vec<OpDesc> = Vec::new();
    let mut definable: HashSet<String> = ids.keys().cloned().collect();
    for o in as_arr(req_field(&root, "graph", "ops")?, "ops")? {
        if !matches!(o, Json::Obj(_)) {
            return Err(bad("ops", "an array of op objects"));
        }
        let kind = as_str(req_field(o, "op", "kind")?, "kind")?.to_string();
        let op = parse_op(&kind, o)?;
        let inputs: Vec<String> = as_arr(req_field(o, "op", "inputs")?, "inputs")?
            .iter()
            .map(|v| as_str(v, "inputs").map(str::to_string))
            .collect::<Result<_, _>>()?;
        let outputs: Vec<String> = as_arr(req_field(o, "op", "outputs")?, "outputs")?
            .iter()
            .map(|v| as_str(v, "outputs").map(str::to_string))
            .collect::<Result<_, _>>()?;
        if inputs.is_empty() {
            return Err(bad("inputs", "at least one input tensor"));
        }
        if outputs.is_empty() {
            return Err(bad("outputs", "at least one output tensor"));
        }
        for out in &outputs {
            if !definable.insert(out.clone()) {
                return Err(ImportError::DuplicateTensor(out.clone()));
            }
        }
        pending.push(OpDesc { kind, op, inputs, outputs });
    }
    for d in &pending {
        for input in &d.inputs {
            if !definable.contains(input) {
                return Err(ImportError::UnknownTensor(input.clone()));
            }
        }
    }

    // Pass 3: Kahn-style topological ordering — repeatedly push every op
    // whose inputs are all defined; a full sweep with no progress while
    // ops remain means their dependencies form a cycle.
    while !pending.is_empty() {
        let mut progressed = false;
        let mut still_pending = Vec::with_capacity(pending.len());
        for d in pending {
            if !d.inputs.iter().all(|i| ids.contains_key(i)) {
                still_pending.push(d);
                continue;
            }
            progressed = true;
            let in_ids: Vec<crate::TensorId> = d.inputs.iter().map(|i| ids[i]).collect();
            check_dtypes(&d, &in_ids, &b)?;
            let outs = b.try_push(d.op.clone(), &in_ids)?;
            if outs.len() != d.outputs.len() {
                return Err(ImportError::ArityMismatch {
                    op: d.kind.clone(),
                    expected: outs.len(),
                    got: d.outputs.len(),
                });
            }
            for (tid, oname) in outs.iter().zip(&d.outputs) {
                b.set_tensor_name(*tid, oname.clone());
                ids.insert(oname.clone(), *tid);
            }
        }
        if !progressed {
            let names: Vec<&str> = still_pending.iter().map(|d| d.kind.as_str()).take(4).collect();
            return Err(ImportError::Cycle(format!(
                "{} op(s) never became ready (kinds: {})",
                still_pending.len(),
                names.join(", ")
            )));
        }
        pending = still_pending;
    }

    // Pass 4: graph outputs.
    let outs = as_arr(req_field(&root, "graph", "outputs")?, "outputs")?;
    if outs.is_empty() {
        return Err(ImportError::MissingField { object: "graph", field: "outputs" });
    }
    for o in outs {
        let oname = as_str(o, "outputs")?;
        let id = *ids.get(oname).ok_or_else(|| ImportError::UnknownTensor(oname.to_string()))?;
        b.output(id);
    }
    let mut g = b.finish();

    // Pass 5: optional symbolic dimensions. Axes are re-derived by
    // `with_sym_dim` (deterministically), so the JSON form carries only
    // the bindings.
    if let Some(syms) = opt_field(&root, "sym_dims") {
        for s in as_arr(syms, "sym_dims")? {
            if !matches!(s, Json::Obj(_)) {
                return Err(bad("sym_dims", "an array of sym-dim objects"));
            }
            let sname = as_str(req_field(s, "sym_dim", "name")?, "name")?.to_string();
            let buckets = usize_vec(req_field(s, "sym_dim", "buckets")?, "buckets")?;
            let value = as_usize(req_field(s, "sym_dim", "value")?, "value")?;
            let table = BucketTable::new(buckets)
                .map_err(|_| bad("buckets", "a strictly increasing list of positive extents"))?;
            g = g.with_sym_dim(sname, &table, value)?;
        }
    }
    Ok(g)
}

/// Operand dtype agreement: multi-input compute ops require matching
/// element types; `gather` requires `i32` indices.
fn check_dtypes(
    d: &OpDesc,
    in_ids: &[crate::TensorId],
    b: &GraphBuilder,
) -> Result<(), ImportError> {
    match &d.op {
        Op::Gather { .. } => {
            let idx = b.dtype_of(in_ids[1]);
            if idx != DType::I32 {
                return Err(ImportError::DTypeMismatch {
                    op: d.kind.clone(),
                    lhs: "i32 indices".to_string(),
                    rhs: dtype_str(idx).to_string(),
                });
            }
        }
        Op::Conv2d { .. } | Op::MatMul { .. } | Op::Binary { .. } | Op::Concat { .. } => {
            let first = b.dtype_of(in_ids[0]);
            for &t in &in_ids[1..] {
                let dt = b.dtype_of(t);
                if dt != first {
                    return Err(ImportError::DTypeMismatch {
                        op: d.kind.clone(),
                        lhs: dtype_str(first).to_string(),
                        rhs: dtype_str(dt).to_string(),
                    });
                }
            }
        }
        _ => {}
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

fn f32_json(v: f32) -> String {
    if v.is_nan() {
        "\"nan\"".to_string()
    } else if v == f32::INFINITY {
        "\"inf\"".to_string()
    } else if v == f32::NEG_INFINITY {
        "\"-inf\"".to_string()
    } else {
        fmt_value(v)
    }
}

fn usize_list(vs: &[usize]) -> String {
    let items: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn op_attrs(op: &Op) -> String {
    match op {
        Op::Conv2d { stride, padding, groups } => format!(
            ", \"stride\": [{}, {}], \"padding\": [{}, {}], \"groups\": {}",
            stride.0, stride.1, padding.0, padding.1, groups
        ),
        Op::MatMul { trans_a, trans_b } => {
            format!(", \"trans_a\": {trans_a}, \"trans_b\": {trans_b}")
        }
        Op::LayerNorm { axes } => format!(", \"axes\": {}", usize_list(axes)),
        Op::InstanceNorm => String::new(),
        Op::Softmax { axis } => format!(", \"axis\": {axis}"),
        Op::Reduce { kind, axes, keep_dims } => {
            let k = reduce_kind_str(*kind);
            format!(
                ", \"reduce\": \"{k}\", \"axes\": {}, \"keep_dims\": {keep_dims}",
                usize_list(axes)
            )
        }
        Op::Pool2d { kind, kernel, stride, padding } => {
            let k = pool_kind_str(*kind);
            format!(
                ", \"pool\": \"{k}\", \"kernel\": [{}, {}], \"stride\": [{}, {}], \"padding\": [{}, {}]",
                kernel.0, kernel.1, stride.0, stride.1, padding.0, padding.1
            )
        }
        Op::Unary { kind } => format!(", \"f\": \"{}\"", unary_kind_str(*kind)),
        Op::Binary { kind } => format!(", \"f\": \"{}\"", binary_kind_str(*kind)),
        Op::Concat { axis } => format!(", \"axis\": {axis}"),
        Op::Reshape { shape } => format!(", \"shape\": {}", usize_list(shape)),
        Op::Transpose { perm } => format!(", \"perm\": {}", usize_list(perm)),
        Op::DepthToSpace { block } | Op::SpaceToDepth { block } => format!(", \"block\": {block}"),
        Op::Gather { axis } => format!(", \"axis\": {axis}"),
        Op::Slice { axis, start, len } => {
            format!(", \"axis\": {axis}, \"start\": {start}, \"len\": {len}")
        }
        Op::Split { axis, parts } => format!(", \"axis\": {axis}, \"parts\": {parts}"),
    }
}

fn op_kind_str(op: &Op) -> &'static str {
    match op {
        Op::Conv2d { .. } => "conv2d",
        Op::MatMul { .. } => "matmul",
        Op::LayerNorm { .. } => "layer_norm",
        Op::InstanceNorm => "instance_norm",
        Op::Softmax { .. } => "softmax",
        Op::Reduce { .. } => "reduce",
        Op::Pool2d { .. } => "pool2d",
        Op::Unary { .. } => "unary",
        Op::Binary { .. } => "binary",
        Op::Concat { .. } => "concat",
        Op::Reshape { .. } => "reshape",
        Op::Transpose { .. } => "transpose",
        Op::DepthToSpace { .. } => "depth_to_space",
        Op::SpaceToDepth { .. } => "space_to_depth",
        Op::Gather { .. } => "gather",
        Op::Slice { .. } => "slice",
        Op::Split { .. } => "split",
    }
}

/// Serializes a graph back to the JSON import format.
///
/// Only inputs and weights appear in `tensors`; activations are implied
/// by op outputs, referenced by tensor name. The output is accepted by
/// [`import_json`], and `import_json(&export_json(&g))` reproduces the
/// graph structure (ops, shapes, dtypes, names, initializers) for any
/// graph whose tensor names are unique — which builder- and
/// importer-produced graphs guarantee.
pub fn export_json(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"name\": \"{}\",", escape(g.name()));
    let _ = writeln!(out, "  \"tensors\": [");
    let decls: Vec<&crate::TensorInfo> = g
        .tensors()
        .iter()
        .filter(|t| matches!(t.kind, TensorKind::Input | TensorKind::Weight))
        .collect();
    for (i, t) in decls.iter().enumerate() {
        let kind = if t.kind == TensorKind::Input { "input" } else { "weight" };
        let init = match &t.init {
            Some(vals) => {
                let items: Vec<String> = vals.iter().map(|&v| f32_json(v)).collect();
                format!(", \"init\": [{}]", items.join(", "))
            }
            None => String::new(),
        };
        let comma = if i + 1 == decls.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"kind\": \"{kind}\", \"shape\": {}, \"dtype\": \"{}\"{init}}}{comma}",
            escape(&t.name),
            usize_list(t.shape.dims()),
            dtype_str(t.dtype)
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"ops\": [");
    for (i, n) in g.nodes().iter().enumerate() {
        let ins: Vec<String> =
            n.inputs.iter().map(|&t| format!("\"{}\"", escape(&g.tensor(t).name))).collect();
        let outs: Vec<String> =
            n.outputs.iter().map(|&t| format!("\"{}\"", escape(&g.tensor(t).name))).collect();
        let comma = if i + 1 == g.nodes().len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\"{}, \"inputs\": [{}], \"outputs\": [{}]}}{comma}",
            op_kind_str(&n.op),
            op_attrs(&n.op),
            ins.join(", "),
            outs.join(", ")
        );
    }
    let _ = writeln!(out, "  ],");
    let onames: Vec<String> =
        g.outputs().iter().map(|&t| format!("\"{}\"", escape(&g.tensor(t).name))).collect();
    if g.sym_dims().is_empty() {
        let _ = writeln!(out, "  \"outputs\": [{}]", onames.join(", "));
    } else {
        let _ = writeln!(out, "  \"outputs\": [{}],", onames.join(", "));
        let _ = writeln!(out, "  \"sym_dims\": [");
        for (i, d) in g.sym_dims().iter().enumerate() {
            let comma = if i + 1 == g.sym_dims().len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"buckets\": {}, \"value\": {}}}{comma}",
                escape(&d.name),
                usize_list(d.table.buckets()),
                d.value
            );
        }
        let _ = writeln!(out, "  ]");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    const TINY: &str = r#"{
      "name": "tiny",
      "tensors": [
        {"name": "x", "kind": "input", "shape": [2, 3], "dtype": "f32"},
        {"name": "s", "kind": "weight", "shape": [1], "dtype": "f32", "init": [0.5]}
      ],
      "ops": [
        {"kind": "binary", "f": "mul", "inputs": ["xt", "s"], "outputs": ["y"]},
        {"kind": "transpose", "perm": [1, 0], "inputs": ["x"], "outputs": ["xt"]}
      ],
      "outputs": ["y"]
    }"#;

    #[test]
    fn imports_out_of_order_ops() {
        let g = import_json(TINY).unwrap();
        assert_eq!(g.op_count(), 2);
        assert_eq!(g.name(), "tiny");
        // Topological order: transpose first even though listed second.
        assert_eq!(g.nodes()[0].op.mnemonic(), "Transpose");
        assert_eq!(g.tensor(g.outputs()[0]).name, "y");
        assert!(g.validate().is_ok());
    }

    #[test]
    fn roundtrips_through_export() {
        let g = import_json(TINY).unwrap();
        let text = export_json(&g);
        let g2 = import_json(&text).unwrap();
        assert_eq!(export_json(&g2), text);
        assert_eq!(g2.op_count(), g.op_count());
        let w = g2.tensors().iter().find(|t| t.name == "s").unwrap();
        assert_eq!(w.init.as_deref(), Some(&[0.5f32][..]));
    }

    #[test]
    fn export_of_builder_graph_imports() {
        let mut b = GraphBuilder::new("zoo-ish");
        let x = b.input("x", &[1, 4, 6, 6], DType::F16);
        let w = b.weight("w", &[8, 4, 3, 3], DType::F16);
        let c = b.conv2d(x, w, (1, 1), (1, 1), 1);
        let r = b.unary(c, UnaryKind::Relu);
        let parts = b.split(r, 1, 2);
        let cat = b.concat(&parts, 1);
        b.output(cat);
        let g = b.finish();
        let g2 = import_json(&export_json(&g)).unwrap();
        assert_eq!(g2.op_count(), g.op_count());
        assert_eq!(export_json(&g2), export_json(&g));
    }

    #[test]
    fn truncated_input_is_a_parse_error() {
        let cut = &TINY[..TINY.len() / 2];
        assert!(matches!(import_json(cut), Err(ImportError::Parse { .. })));
    }

    #[test]
    fn unknown_op_is_typed() {
        let src = TINY.replace("\"transpose\"", "\"warp\"");
        assert!(matches!(import_json(&src), Err(ImportError::UnknownOp(k)) if k == "warp"));
    }

    #[test]
    fn unknown_kind_names_are_typed() {
        let op = |k: &str| ImportError::UnknownOp(k.into());
        assert_eq!(parse_unary_kind("swish").unwrap_err(), op("unary:swish"));
        assert_eq!(parse_binary_kind("pow").unwrap_err(), op("binary:pow"));
        assert_eq!(parse_reduce_kind("prod").unwrap_err(), op("reduce:prod"));
        assert_eq!(parse_pool_kind("lp").unwrap_err(), op("pool2d:lp"));
        assert_eq!(parse_dtype("bf16"), Err(ImportError::UnknownDType("bf16".into())));
    }

    #[test]
    fn dangling_edge_is_typed() {
        let src = TINY.replace("[\"xt\", \"s\"]", "[\"xt\", \"ghost\"]");
        assert!(matches!(import_json(&src), Err(ImportError::UnknownTensor(n)) if n == "ghost"));
    }

    #[test]
    fn cycle_is_detected() {
        let src = r#"{
          "tensors": [{"name": "x", "kind": "input", "shape": [2, 2], "dtype": "f32"}],
          "ops": [
            {"kind": "binary", "f": "add", "inputs": ["x", "b"], "outputs": ["a"]},
            {"kind": "binary", "f": "add", "inputs": ["x", "a"], "outputs": ["b"]}
          ],
          "outputs": ["b"]
        }"#;
        assert!(matches!(import_json(src), Err(ImportError::Cycle(_))));
    }

    #[test]
    fn dtype_mismatch_is_typed() {
        let src = TINY.replace(
            "{\"name\": \"s\", \"kind\": \"weight\", \"shape\": [1], \"dtype\": \"f32\", \"init\": [0.5]}",
            "{\"name\": \"s\", \"kind\": \"weight\", \"shape\": [1], \"dtype\": \"i8\"}",
        );
        assert!(matches!(import_json(&src), Err(ImportError::DTypeMismatch { .. })));
    }

    #[test]
    fn bad_init_length_is_typed() {
        let src = TINY.replace("\"init\": [0.5]", "\"init\": [0.5, 1.5]");
        assert!(matches!(import_json(&src), Err(ImportError::BadInit { expected: 1, got: 2, .. })));
    }

    #[test]
    fn shape_inference_errors_are_wrapped() {
        let src = TINY.replace("\"perm\": [1, 0]", "\"perm\": [0, 0]");
        assert!(matches!(import_json(&src), Err(ImportError::Graph(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let src = TINY.replace("\"outputs\": [\"y\"]}", "\"outputs\": [\"x\"]}");
        // First replaced occurrence is the binary op's outputs list.
        assert!(matches!(import_json(&src), Err(ImportError::DuplicateTensor(_))));
    }

    #[test]
    fn deep_nesting_rejected_without_stack_overflow() {
        let bomb = "[".repeat(10_000);
        assert!(matches!(import_json(&bomb), Err(ImportError::Parse { .. })));
    }

    #[test]
    fn non_finite_init_roundtrips() {
        let mut b = GraphBuilder::new("nf");
        let x = b.input("x", &[2], DType::F32);
        let w = b.weight_init("w", &[2], DType::F32, vec![f32::INFINITY, 1.0]);
        let y = b.add(x, w);
        b.output(y);
        let g = b.finish();
        let g2 = import_json(&export_json(&g)).unwrap();
        let w2 = g2.tensors().iter().find(|t| t.name == "w").unwrap();
        assert_eq!(w2.init.as_ref().unwrap()[0], f32::INFINITY);
    }

    #[test]
    fn sym_dims_roundtrip_byte_identically() {
        let mut b = GraphBuilder::new("sym-json");
        let x = b.input("x", &[1, 48, 24], DType::F16);
        let w = b.weight("w", &[24, 24], DType::F16);
        let m = b.matmul(x, w);
        b.output(m);
        let table = crate::sym::BucketTable::new(vec![32, 64, 128]).unwrap();
        let g = b.finish().with_sym_dim("seq", &table, 48).unwrap();
        let text = export_json(&g);
        assert!(text.contains("\"sym_dims\""));
        let g2 = import_json(&text).unwrap();
        assert_eq!(export_json(&g2), text, "sym export must be byte-stable");
        assert_eq!(g2.sym_dims(), g.sym_dims());
        assert_eq!(g2.sym_axes(), g.sym_axes());
    }

    #[test]
    fn bad_sym_dims_are_typed_errors() {
        let decreasing = r#"{
          "tensors": [{"name": "x", "kind": "input", "shape": [1, 48], "dtype": "f32"}],
          "ops": [{"kind": "unary", "f": "relu", "inputs": ["x"], "outputs": ["y"]}],
          "outputs": ["y"],
          "sym_dims": [{"name": "seq", "buckets": [64, 32], "value": 48}]
        }"#;
        assert!(matches!(import_json(decreasing), Err(ImportError::BadField { .. })));
        let unmatched =
            decreasing.replace("[64, 32]", "[32, 64]").replace("\"value\": 48", "\"value\": 7");
        assert!(matches!(import_json(&unmatched), Err(ImportError::Graph(_))));
    }

    #[test]
    fn split_arity_mismatch_is_typed() {
        let src = r#"{
          "tensors": [{"name": "x", "kind": "input", "shape": [4, 2], "dtype": "f32"}],
          "ops": [{"kind": "split", "axis": 0, "parts": 2, "inputs": ["x"], "outputs": ["a"]}],
          "outputs": ["a"]
        }"#;
        assert!(matches!(
            import_json(src),
            Err(ImportError::ArityMismatch { expected: 2, got: 1, .. })
        ));
    }
}
