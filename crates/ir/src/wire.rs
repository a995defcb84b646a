//! A hand-rolled binary wire format for persisting compiled artifacts.
//!
//! The build container is offline (no serde), so the on-disk compilation
//! cache serializes through this minimal codec instead: little-endian
//! fixed-width integers, length-prefixed sequences, and one tag byte per
//! enum variant. The traits live here in `smartmem-ir` so that the
//! crates owning the persisted types (`smartmem-index`, `smartmem-sim`,
//! `smartmem-core`) can implement them beside the type definitions
//! without tripping the orphan rule.
//!
//! Decoding is *defensive but not adversarial*: every length prefix is
//! bounds-checked against the remaining input (a truncated or corrupted
//! file yields [`WireError`], never a panic or an absurd allocation),
//! and [`Graph`] re-validates its invariants after decode. Integrity
//! against bit-rot is the caller's job — the persistent cache layer in
//! `smartmem-core` wraps every payload in a checksummed, versioned
//! header and falls back to a cold compile on any mismatch.
//!
//! # Adding a persisted type
//!
//! Declare its codec with [`wire_struct!`](crate::wire_struct) (fields
//! in order) or [`wire_enum!`](crate::wire_enum) (explicit tag byte, then
//! the variant's fields). The field and tag lists *are* the format: any
//! change to one changes the persisted bytes and needs a bump of the
//! persist `VERSION` in `smartmem-core`. Write the impl by hand only when
//! decode must validate what it read (ids, bounds, invariants), as
//! [`Graph`], `TensorInfo` and `BucketTable` do below.
//!
//! # Example
//!
//! ```
//! use smartmem_ir::wire::{decode_from, encode_to_vec};
//!
//! let bytes = encode_to_vec(&vec![String::from("lte"), String::from("fusion")]);
//! let back: Vec<String> = decode_from(&bytes).unwrap();
//! assert_eq!(back, vec!["lte", "fusion"]);
//! ```

use crate::dtype::DType;
use crate::graph::{Graph, Node, OpId, OpOrigin, SymAxis, TensorId, TensorInfo, TensorKind};
use crate::layout::{Layout, TexturePlacement};
use crate::ops::{BinaryKind, Op, PoolKind, ReduceKind, UnaryKind};
use crate::shape::Shape;
use crate::sym::{BucketTable, SymDim};
use std::error::Error;
use std::fmt;

/// Decoding failure: truncated input, an unknown enum tag, or a decoded
/// value violating the target type's invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// An enum tag byte had no matching variant.
    BadTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// The decoded value violates an invariant of its type (e.g. a graph
    /// failing validation).
    Invalid(String),
    /// Input had trailing bytes after the value (only raised by
    /// [`decode_from`], which expects to consume everything).
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("input truncated"),
            WireError::BadTag { ty, tag } => write!(f, "unknown tag {tag} decoding {ty}"),
            WireError::Invalid(msg) => write!(f, "invalid value: {msg}"),
            WireError::TrailingBytes => f.write_str("trailing bytes after value"),
        }
    }
}

impl Error for WireError {}

/// Byte sink for encoding (a thin wrapper over `Vec<u8>`).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a sequence-length prefix, rejecting lengths that could not
    /// possibly fit in the remaining input (`min_elem_bytes` is the
    /// smallest encoding of one element). This is what keeps a corrupted
    /// length prefix from turning into a multi-gigabyte allocation.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| WireError::Truncated)?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(len)
    }
}

/// Serializes a value into the wire format.
pub trait Encode {
    /// Appends the value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
}

/// Deserializes a value from the wire format.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated input, unknown enum tags, or
    /// invariant violations.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh byte vector.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value that must span exactly the whole input.
///
/// # Errors
///
/// Returns [`WireError::TrailingBytes`] when input remains after the
/// value, plus every error [`Decode::decode`] can raise.
pub fn decode_from<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Declared codecs
// ---------------------------------------------------------------------

/// Declares the wire codec of a struct as its listed fields in order:
/// `encode` writes them, `decode` reads them back in the same order into
/// a struct literal. The list, not the declaration, is the format. Tuple
/// structs name fields by position (`TensorId { 0 }`).
///
/// ```
/// use smartmem_ir::wire::{decode_from, encode_to_vec};
///
/// #[derive(Debug, PartialEq)]
/// struct Tile {
///     rows: u32,
///     cols: u32,
/// }
/// smartmem_ir::wire_struct!(Tile { cols, rows });
///
/// // `cols` first, then `rows`, as listed; no tags, no lengths.
/// let bytes = encode_to_vec(&Tile { rows: 2, cols: 3 });
/// assert_eq!(bytes, [3, 0, 0, 0, 2, 0, 0, 0]);
/// assert_eq!(decode_from::<Tile>(&bytes).unwrap(), Tile { rows: 2, cols: 3 });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:tt),* $(,)? }) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                $($crate::wire::Encode::encode(&self.$field, w);)*
            }
        }

        impl $crate::wire::Decode for $ty {
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($ty { $($field: $crate::wire::Decode::decode(r)?),* })
            }
        }
    };
}

/// Declares the wire codec of an enum as one tag byte, then the
/// variant's listed fields in order (a unit variant lists none: `V {}`).
/// Tags are explicit, so reordering the variants cannot change the
/// bytes. An unknown tag decodes to [`WireError::BadTag`] naming the type.
///
/// ```
/// use smartmem_ir::wire::{decode_from, encode_to_vec, WireError};
///
/// #[derive(Debug, PartialEq)]
/// enum Fill {
///     Solid { rgba: u32 },
///     Empty,
/// }
/// smartmem_ir::wire_enum!(Fill { 0 => Empty {}, 7 => Solid { rgba } });
///
/// assert_eq!(encode_to_vec(&Fill::Empty), [0]);
/// assert_eq!(encode_to_vec(&Fill::Solid { rgba: 1 }), [7, 1, 0, 0, 0]);
/// assert_eq!(decode_from::<Fill>(&[7, 1, 0, 0, 0]).unwrap(), Fill::Solid { rgba: 1 });
/// assert_eq!(decode_from::<Fill>(&[3]).unwrap_err(), WireError::BadTag { ty: "Fill", tag: 3 });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident { $($field:ident),* $(,)? }),+ $(,)? }) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $($ty::$variant { $($field),* } => {
                        w.put_u8($tag);
                        $($crate::wire::Encode::encode($field, w);)*
                    })+
                }
            }
        }

        impl $crate::wire::Decode for $ty {
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok(match r.get_u8()? {
                    $($tag => $ty::$variant { $($field: $crate::wire::Decode::decode(r)?),* },)+
                    tag => {
                        return ::core::result::Result::Err($crate::wire::WireError::BadTag {
                            ty: ::core::stringify!($ty),
                            tag,
                        })
                    }
                })
            }
        }
    };
}

/// Fixed-width scalars: their little-endian bytes (floats: their
/// IEEE-754 bit pattern).
macro_rules! wire_primitive {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_bytes(&self.to_le_bytes());
            }
        }

        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("take returns exactly the width")))
            }
        }
    )*};
}

wire_primitive!(u8, u32, u64, i64, f32, f64);

// ---------------------------------------------------------------------
// Hand-written: primitives and containers
// ---------------------------------------------------------------------

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.get_u64()?).map_err(|_| WireError::Invalid("usize overflow".into()))
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { ty: "bool", tag }),
        }
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        self.as_str().encode(w);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("non-UTF8 string".into()))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag { ty: "Option", tag }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---------------------------------------------------------------------
// IR types
// ---------------------------------------------------------------------

wire_struct!(TensorId { 0 });
wire_struct!(OpId { 0 });
wire_enum!(DType { 0 => F16 {}, 1 => F32 {}, 2 => I32 {}, 3 => I8 {} });
wire_enum!(TensorKind { 0 => Input {}, 1 => Weight {}, 2 => Activation {} });
wire_enum!(OpOrigin { 0 => Model {}, 1 => Framework {} });
wire_enum!(UnaryKind {
    0 => Relu {}, 1 => Gelu {}, 2 => Silu {}, 3 => Sigmoid {}, 4 => Tanh {},
    5 => Exp {}, 6 => Sqrt {}, 7 => Recip {}, 8 => Neg {}, 9 => Identity {},
});
wire_enum!(BinaryKind { 0 => Add {}, 1 => Sub {}, 2 => Mul {}, 3 => Div {}, 4 => Max {} });
wire_enum!(ReduceKind { 0 => Sum {}, 1 => Mean {}, 2 => Max {}, 3 => Min {} });
wire_enum!(PoolKind { 0 => Max {}, 1 => Avg {} });
wire_enum!(Op {
    0 => Conv2d { stride, padding, groups },
    1 => MatMul { trans_a, trans_b },
    2 => LayerNorm { axes },
    3 => InstanceNorm {},
    4 => Softmax { axis },
    5 => Reduce { kind, axes, keep_dims },
    6 => Pool2d { kind, kernel, stride, padding },
    7 => Unary { kind },
    8 => Binary { kind },
    9 => Concat { axis },
    10 => Reshape { shape },
    11 => Transpose { perm },
    12 => DepthToSpace { block },
    13 => SpaceToDepth { block },
    14 => Gather { axis },
    15 => Slice { axis, start, len },
    16 => Split { axis, parts },
});
wire_struct!(TexturePlacement { height_dims, width_dims, vector_dim });
wire_struct!(Node { id, op, inputs, outputs, name, origin });
wire_struct!(SymDim { name, table, value });
wire_struct!(SymAxis { tensor, axis, dim });

impl Encode for Shape {
    fn encode(&self, w: &mut Writer) {
        self.dims().encode(w);
    }
}

impl Decode for Shape {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Shape::new(Vec::<usize>::decode(r)?))
    }
}

impl Encode for Layout {
    fn encode(&self, w: &mut Writer) {
        match self {
            Layout::Buffer { perm, vector_dim } => {
                w.put_u8(0);
                perm.encode(w);
                vector_dim.encode(w);
            }
            Layout::Texture(p) => {
                w.put_u8(1);
                p.encode(w);
            }
        }
    }
}

impl Decode for Layout {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Layout::Buffer { perm: Decode::decode(r)?, vector_dim: Decode::decode(r)? }),
            1 => Ok(Layout::Texture(Decode::decode(r)?)),
            tag => Err(WireError::BadTag { ty: "Layout", tag }),
        }
    }
}

// ---------------------------------------------------------------------
// Graph: decoders that validate
// ---------------------------------------------------------------------

impl Encode for TensorInfo {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        self.shape.encode(w);
        self.dtype.encode(w);
        self.kind.encode(w);
        self.producer.encode(w);
        self.consumers.encode(w);
        self.init.encode(w);
    }
}

impl Decode for TensorInfo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let info = TensorInfo {
            name: Decode::decode(r)?,
            shape: Decode::decode(r)?,
            dtype: Decode::decode(r)?,
            kind: Decode::decode(r)?,
            producer: Decode::decode(r)?,
            consumers: Decode::decode(r)?,
            init: Decode::decode(r)?,
        };
        if let Some(init) = &info.init {
            if init.len() as u64 != info.shape.numel() {
                return Err(WireError::Invalid(format!(
                    "initializer length {} does not match shape {}",
                    init.len(),
                    info.shape
                )));
            }
        }
        Ok(info)
    }
}

impl Encode for BucketTable {
    fn encode(&self, w: &mut Writer) {
        self.buckets().encode(w);
    }
}

impl Decode for BucketTable {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let buckets = Vec::<usize>::decode(r)?;
        BucketTable::new(buckets).map_err(|e| WireError::Invalid(format!("bucket table: {e}")))
    }
}

impl Encode for Graph {
    fn encode(&self, w: &mut Writer) {
        self.name().encode(w);
        self.nodes().encode(w);
        self.tensors().encode(w);
        self.inputs().encode(w);
        self.outputs().encode(w);
        self.sym_dims().encode(w);
        self.sym_axes().encode(w);
    }
}

impl Decode for Graph {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = String::decode(r)?;
        let nodes = Vec::<Node>::decode(r)?;
        let tensors = Vec::<TensorInfo>::decode(r)?;
        let inputs = Vec::<TensorId>::decode(r)?;
        let outputs = Vec::<TensorId>::decode(r)?;
        let mut graph = Graph::from_wire_parts(name, nodes, tensors, inputs, outputs);
        graph
            .validate()
            .map_err(|e| WireError::Invalid(format!("decoded graph fails validation: {e}")))?;
        let sym_dims = Vec::<SymDim>::decode(r)?;
        let sym_axes = Vec::<SymAxis>::decode(r)?;
        graph
            .attach_sym_parts(sym_dims, sym_axes)
            .map_err(|e| WireError::Invalid(format!("decoded graph sym metadata: {e}")))?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn roundtrip<T: Encode + Decode>(value: &T) -> T {
        decode_from(&encode_to_vec(value)).expect("roundtrip")
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&42u64), 42);
        assert_eq!(roundtrip(&-7i64), -7);
        assert_eq!(roundtrip(&3.25f64), 3.25);
        assert!(roundtrip(&true));
        assert!(!roundtrip(&false));
        assert_eq!(roundtrip(&String::from("smartmem")), "smartmem");
        assert_eq!(roundtrip(&vec![1usize, 2, 3]), vec![1, 2, 3]);
        assert_eq!(roundtrip(&Some(9u32)), Some(9));
        assert_eq!(roundtrip(&None::<u32>), None);
        assert_eq!(roundtrip(&(4usize, 5usize)), (4, 5));
    }

    #[test]
    fn ops_and_layouts_roundtrip() {
        let ops = vec![
            Op::Conv2d { stride: (2, 1), padding: (1, 1), groups: 4 },
            Op::MatMul { trans_a: true, trans_b: false },
            Op::LayerNorm { axes: vec![1, 2] },
            Op::InstanceNorm,
            Op::Softmax { axis: 2 },
            Op::Reduce { kind: ReduceKind::Mean, axes: vec![0], keep_dims: true },
            Op::Pool2d { kind: PoolKind::Avg, kernel: (3, 3), stride: (2, 2), padding: (1, 1) },
            Op::Unary { kind: UnaryKind::Gelu },
            Op::Binary { kind: BinaryKind::Max },
            Op::Concat { axis: 1 },
            Op::Reshape { shape: vec![1, 2, 3] },
            Op::Transpose { perm: vec![2, 0, 1] },
            Op::DepthToSpace { block: 2 },
            Op::SpaceToDepth { block: 2 },
            Op::Gather { axis: 0 },
            Op::Slice { axis: 1, start: 2, len: 3 },
            Op::Split { axis: 0, parts: 4 },
        ];
        assert_eq!(roundtrip(&ops), ops);
        let layouts = vec![
            Layout::row_major(4),
            Layout::nc4hw4(),
            Layout::texture_default(3),
            Layout::texture_default(4),
        ];
        assert_eq!(roundtrip(&layouts), layouts);
    }

    #[test]
    fn graph_roundtrip_preserves_debug_identity() {
        let mut b = GraphBuilder::new("wire");
        let x = b.input("x", &[1, 16, 8, 8], DType::F16);
        let wt = b.weight("w", &[32, 16, 3, 3], DType::F16);
        let c = b.conv2d(x, wt, (1, 1), (1, 1), 1);
        let flat = b.reshape(c, &[1, 32, 64]);
        let t = b.transpose(flat, &[0, 2, 1]);
        b.output(t);
        let g = b.finish();
        let back: Graph = roundtrip(&g);
        assert_eq!(format!("{g:?}"), format!("{back:?}"));
    }

    #[test]
    fn sym_graph_roundtrip_preserves_debug_identity() {
        let mut b = GraphBuilder::new("wire-sym");
        let x = b.input("x", &[1, 48, 24], DType::F16);
        let wt = b.weight("w", &[24, 24], DType::F16);
        let m = b.matmul(x, wt);
        b.output(m);
        let table = BucketTable::new(vec![32, 64, 128]).unwrap();
        let g = b.finish().with_sym_dim("seq", &table, 48).unwrap();
        let back: Graph = roundtrip(&g);
        assert_eq!(format!("{g:?}"), format!("{back:?}"));
        assert_eq!(back.sym_dims(), g.sym_dims());
        assert_eq!(back.sym_axes(), g.sym_axes());
    }

    #[test]
    fn doctored_sym_metadata_is_rejected() {
        let mut b = GraphBuilder::new("wire-sym-bad");
        let x = b.input("x", &[1, 48, 24], DType::F16);
        let y = b.unary(x, UnaryKind::Relu);
        b.output(y);
        let g = b.finish();
        let mut w = Writer::new();
        g.name().to_string().encode(&mut w);
        g.nodes().to_vec().encode(&mut w);
        g.tensors().to_vec().encode(&mut w);
        g.inputs().to_vec().encode(&mut w);
        g.outputs().to_vec().encode(&mut w);
        let table = BucketTable::new(vec![64]).unwrap();
        vec![SymDim { name: "seq".into(), table, value: 48 }].encode(&mut w);
        // Axis extent (24) does not match the bound value (48).
        vec![SymAxis { tensor: TensorId(0), axis: 2, dim: 0 }].encode(&mut w);
        let err = decode_from::<Graph>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Invalid(_)), "got {err:?}");
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let err = decode_from::<Vec<u64>>(&bytes[..cut]).unwrap_err();
            assert_eq!(err, WireError::Truncated);
        }
    }

    #[test]
    fn huge_length_prefix_is_rejected_without_allocating() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // a corrupted length prefix
        let err = decode_from::<Vec<u64>>(&w.into_bytes()).unwrap_err();
        assert_eq!(err, WireError::Truncated);
    }

    #[test]
    fn bad_tags_error() {
        fn bad<T: Decode + fmt::Debug>(tag: u8) -> WireError {
            decode_from::<T>(&[tag]).unwrap_err()
        }
        let tag = |ty, tag| WireError::BadTag { ty, tag };
        // One tag past the last variant of every declared enum in this
        // crate, reported under the type name the decoders always used.
        assert_eq!(bad::<DType>(4), tag("DType", 4));
        assert_eq!(bad::<TensorKind>(3), tag("TensorKind", 3));
        assert_eq!(bad::<OpOrigin>(2), tag("OpOrigin", 2));
        assert_eq!(bad::<UnaryKind>(10), tag("UnaryKind", 10));
        assert_eq!(bad::<BinaryKind>(5), tag("BinaryKind", 5));
        assert_eq!(bad::<ReduceKind>(4), tag("ReduceKind", 4));
        assert_eq!(bad::<PoolKind>(2), tag("PoolKind", 2));
        assert_eq!(bad::<Op>(17), tag("Op", 17));
        assert_eq!(bad::<Op>(200), tag("Op", 200));
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert_eq!(decode_from::<u64>(&bytes).unwrap_err(), WireError::TrailingBytes);
    }

    #[test]
    fn inconsistent_graph_fails_validation_on_decode() {
        // Encode a graph, then decode a doctored variant whose node list
        // was emptied while tensors still reference producers.
        let mut b = GraphBuilder::new("bad");
        let x = b.input("x", &[4], DType::F16);
        let y = b.unary(x, UnaryKind::Relu);
        b.output(y);
        let g = b.finish();
        let mut w = Writer::new();
        g.name().to_string().encode(&mut w);
        Vec::<Node>::new().encode(&mut w); // drop all nodes
        g.tensors().to_vec().encode(&mut w);
        g.inputs().to_vec().encode(&mut w);
        g.outputs().to_vec().encode(&mut w);
        let err = decode_from::<Graph>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Invalid(_)), "got {err:?}");
    }
}
