//! Marshalling of Concurrent CLU values for transmission between nodes.
//!
//! The Mayflower RPC mechanism "is fully type-checked and permits
//! arbitrarily complex objects of user defined type to be transmitted
//! between nodes" (paper §2). Values are encoded into a heap-independent
//! wire form on the sending node and decoded into the receiving node's
//! heap; the receiving dispatcher re-checks the decoded values against the
//! target procedure's signature (the run-time half of "fully
//! type-checked").

use std::sync::Arc;

use pilgrim_cclu::{Heap, HeapObject, RecordType, Type, Value};
use pilgrim_sim::json::Fields;
use pilgrim_sim::Json;

/// Tag bytes of [`WireValue::encode_into`].
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_RECORD: u8 = 4;
const TAG_ARRAY: u8 = 5;

/// A value in wire form: self-contained, heap-independent.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// `nil`
    Null,
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(Arc<str>),
    /// Record instance (nominal type name + field values).
    Record {
        /// The record's typedef name.
        type_name: Arc<str>,
        /// Field values in declaration order.
        fields: Vec<WireValue>,
    },
    /// Array.
    Array(Vec<WireValue>),
}

impl WireValue {
    /// Encoded size in bytes, used for network-latency modelling.
    ///
    /// The size model is self-consistent with the in-memory representation:
    /// every value is framed by a 1-byte variant tag, and the per-variant
    /// payloads are
    ///
    /// | variant  | payload                                          |
    /// |----------|--------------------------------------------------|
    /// | `Null`   | none                                             |
    /// | `Bool`   | 1 byte                                           |
    /// | `Int`    | 8 bytes (`i64`)                                  |
    /// | `Str`    | 4-byte length + UTF-8 bytes                      |
    /// | `Record` | 2-byte name length + name + 2-byte field count + tagged fields |
    /// | `Array`  | 4-byte element count + tagged elements           |
    pub fn wire_bytes(&self) -> usize {
        1 + match self {
            WireValue::Null => 0,
            WireValue::Int(_) => 8,
            WireValue::Bool(_) => 1,
            WireValue::Str(s) => 4 + s.len(),
            WireValue::Record { type_name, fields } => {
                2 + type_name.len() + 2 + fields.iter().map(WireValue::wire_bytes).sum::<usize>()
            }
            WireValue::Array(items) => 4 + items.iter().map(WireValue::wire_bytes).sum::<usize>(),
        }
    }

    /// Appends the value's byte form to `out`: one tag byte, then the
    /// payload — a little-endian `i64`, a `bool` byte, or a little-endian
    /// `u32` length followed by the string's bytes or the elements. A
    /// record is its name as a string, then its fields as an array. The
    /// reply cache keeps results in this form ([`decode`](Self::decode)).
    ///
    /// # Panics
    ///
    /// A string or a container longer than `u32::MAX`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len = |n: usize, out: &mut Vec<u8>| {
            let n = u32::try_from(n).expect("a wire value's lengths fit in a u32");
            out.extend_from_slice(&n.to_le_bytes());
        };
        match self {
            WireValue::Null => out.push(TAG_NULL),
            WireValue::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            WireValue::Bool(b) => out.extend_from_slice(&[TAG_BOOL, u8::from(*b)]),
            WireValue::Str(s) => {
                out.push(TAG_STR);
                len(s.len(), out);
                out.extend_from_slice(s.as_bytes());
            }
            WireValue::Record { type_name, fields } => {
                out.push(TAG_RECORD);
                len(type_name.len(), out);
                out.extend_from_slice(type_name.as_bytes());
                len(fields.len(), out);
                fields.iter().for_each(|f| f.encode_into(out));
            }
            WireValue::Array(items) => {
                out.push(TAG_ARRAY);
                len(items.len(), out);
                items.iter().for_each(|i| i.encode_into(out));
            }
        }
    }

    /// Reads one value's [`encode_into`](Self::encode_into) form off the
    /// front of `bytes`, advancing past it. `None` when the bytes are not
    /// such a form; the reply cache only decodes what it encoded.
    pub fn decode(bytes: &mut &[u8]) -> Option<WireValue> {
        fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            let (head, rest) = bytes.split_at_checked(n)?;
            *bytes = rest;
            Some(head)
        }
        fn len(bytes: &mut &[u8]) -> Option<usize> {
            let n = u32::from_le_bytes(take(bytes, 4)?.try_into().ok()?);
            Some(n as usize)
        }
        fn text(bytes: &mut &[u8]) -> Option<Arc<str>> {
            let n = len(bytes)?;
            std::str::from_utf8(take(bytes, n)?).ok().map(Arc::from)
        }
        fn values(bytes: &mut &[u8]) -> Option<Vec<WireValue>> {
            let n = len(bytes)?;
            // Every element is at least its tag byte, so a count the bytes
            // cannot hold is refused before it sizes anything.
            let mut out = Vec::with_capacity(n.min(bytes.len()));
            for _ in 0..n {
                out.push(WireValue::decode(bytes)?);
            }
            Some(out)
        }
        Some(match take(bytes, 1)?[0] {
            TAG_NULL => WireValue::Null,
            TAG_INT => WireValue::Int(i64::from_le_bytes(take(bytes, 8)?.try_into().ok()?)),
            TAG_BOOL => WireValue::Bool(take(bytes, 1)?[0] != 0),
            TAG_STR => WireValue::Str(text(bytes)?),
            TAG_RECORD => WireValue::Record {
                type_name: text(bytes)?,
                fields: values(bytes)?,
            },
            TAG_ARRAY => WireValue::Array(values(bytes)?),
            _ => return None,
        })
    }

    /// The value as tagged JSON for the replay journal. Wire values are
    /// already heap-independent, so the encoding is a direct tree walk.
    pub fn to_json(&self) -> Json {
        match self {
            WireValue::Null => Json::obj(vec![("kind", Json::Str("null".into()))]),
            WireValue::Int(i) => Json::obj(vec![
                ("kind", Json::Str("int".into())),
                ("value", Json::Int(*i as i128)),
            ]),
            WireValue::Bool(b) => Json::obj(vec![
                ("kind", Json::Str("bool".into())),
                ("value", Json::Bool(*b)),
            ]),
            WireValue::Str(s) => Json::obj(vec![
                ("kind", Json::Str("str".into())),
                ("value", Json::Str(s.to_string())),
            ]),
            WireValue::Record { type_name, fields } => Json::obj(vec![
                ("kind", Json::Str("record".into())),
                ("type", Json::Str(type_name.to_string())),
                (
                    "fields",
                    Json::Array(fields.iter().map(WireValue::to_json).collect()),
                ),
            ]),
            WireValue::Array(items) => Json::obj(vec![
                ("kind", Json::Str("array".into())),
                (
                    "items",
                    Json::Array(items.iter().map(WireValue::to_json).collect()),
                ),
            ]),
        }
    }

    /// Rebuilds a wire value from [`to_json`](WireValue::to_json) output.
    ///
    /// # Errors
    ///
    /// Unknown kinds and missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<WireValue, String> {
        let f = Fields::new(v, &"wire value");
        let value = match f.str("kind")? {
            "null" => WireValue::Null,
            "int" => WireValue::Int(f.int("value")?),
            "bool" => WireValue::Bool(f.bool("value")?),
            "str" => WireValue::Str(f.str("value")?.into()),
            "record" => WireValue::Record {
                type_name: f.str("type")?.into(),
                fields: f.list("fields", WireValue::from_json)?,
            },
            "array" => WireValue::Array(f.list("items", WireValue::from_json)?),
            other => return Err(format!("wire value: unknown kind `{other}`")),
        };
        f.finish()?;
        Ok(value)
    }
}

/// Error from [`marshal`]: the value contains something node-local.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarshalError(pub String);

impl std::fmt::Display for MarshalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot marshal: {}", self.0)
    }
}
impl std::error::Error for MarshalError {}

/// Encodes `v` (rooted in `heap`) into wire form.
///
/// # Errors
///
/// Fails on semaphore or mutex handles, which are node-local and rejected
/// by the compiler in remote signatures — this is a defence-in-depth check.
pub fn marshal(heap: &Heap, v: &Value) -> Result<WireValue, MarshalError> {
    match v {
        Value::Null => Ok(WireValue::Null),
        Value::Int(i) => Ok(WireValue::Int(*i)),
        Value::Bool(b) => Ok(WireValue::Bool(*b)),
        Value::Str(s) => Ok(WireValue::Str(s.clone())),
        Value::Sem(_) => Err(MarshalError("semaphore handles are node-local".into())),
        Value::Mutex(_) => Err(MarshalError("mutex handles are node-local".into())),
        Value::Ref(r) => match heap.get(*r) {
            HeapObject::Record { type_name, fields } => Ok(WireValue::Record {
                type_name: type_name.clone(),
                fields: fields
                    .iter()
                    .map(|f| marshal(heap, f))
                    .collect::<Result<_, _>>()?,
            }),
            HeapObject::Array(items) => Ok(WireValue::Array(
                items
                    .iter()
                    .map(|f| marshal(heap, f))
                    .collect::<Result<_, _>>()?,
            )),
        },
    }
}

/// Decodes a wire value into `heap`, allocating records and arrays.
pub fn unmarshal(heap: &mut Heap, w: &WireValue) -> Value {
    match w {
        WireValue::Null => Value::Null,
        WireValue::Int(i) => Value::Int(*i),
        WireValue::Bool(b) => Value::Bool(*b),
        WireValue::Str(s) => Value::Str(s.clone()),
        WireValue::Record { type_name, fields } => {
            let fields = fields.iter().map(|f| unmarshal(heap, f)).collect();
            Value::Ref(heap.alloc(HeapObject::Record {
                type_name: type_name.clone(),
                fields,
            }))
        }
        WireValue::Array(items) => {
            let items = items.iter().map(|f| unmarshal(heap, f)).collect();
            Value::Ref(heap.alloc(HeapObject::Array(items)))
        }
    }
}

/// Checks a decoded wire value against a declared type — the receiving
/// side of the fully type-checked RPC.
pub fn wire_matches_type(w: &WireValue, ty: &Type, records: &[Arc<RecordType>]) -> bool {
    match (w, ty) {
        (WireValue::Null, Type::Null) => true,
        (WireValue::Int(_), Type::Int) => true,
        (WireValue::Bool(_), Type::Bool) => true,
        (WireValue::Str(_), Type::Str) => true,
        (WireValue::Array(items), Type::Array(elem)) => {
            items.iter().all(|i| wire_matches_type(i, elem, records))
        }
        (WireValue::Record { type_name, fields }, Type::Record(rt)) => {
            if **type_name != *rt.name {
                return false;
            }
            // Check against the *receiver's* definition of the type.
            let def = records.iter().find(|r| r.name == rt.name).unwrap_or(rt);
            fields.len() == def.fields.len()
                && fields
                    .iter()
                    .zip(def.fields.iter())
                    .all(|(f, (_, fty))| wire_matches_type(f, fty, records))
        }
        _ => false,
    }
}

/// A neutral default for a declared return type, used to fill the results
/// of a failed `maybe` call (the leading success flag tells the program
/// not to trust them).
pub fn default_for(ty: &Type) -> WireValue {
    match ty {
        Type::Int => WireValue::Int(0),
        Type::Bool => WireValue::Bool(false),
        Type::Str => WireValue::Str("".into()),
        Type::Null => WireValue::Null,
        Type::Array(_) => WireValue::Array(Vec::new()),
        // Sem/Mutex cannot appear (checked at compile time); records get a
        // nil reference the program must not touch without checking `ok`.
        Type::Record(_) | Type::Sem | Type::Mutex => WireValue::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim_sim::check::{check_n, ensure, ensure_eq, Case, Gen};
    use pilgrim_sim::DetRng;

    fn sample() -> (Heap, Value) {
        let mut heap = Heap::new();
        let arr = heap.alloc(HeapObject::Array(vec![Value::Int(1), Value::Bool(true)]));
        let rec = heap.alloc(HeapObject::Record {
            type_name: "pair".into(),
            fields: vec![Value::Str("s".into()), Value::Ref(arr)],
        });
        (heap, Value::Ref(rec))
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let (heap, v) = sample();
        let w = marshal(&heap, &v).unwrap();
        let mut dst = Heap::new();
        let v2 = unmarshal(&mut dst, &w);
        assert_eq!(
            pilgrim_cclu::format_value(&heap, &v),
            pilgrim_cclu::format_value(&dst, &v2)
        );
    }

    #[test]
    fn node_local_handles_are_rejected() {
        let heap = Heap::new();
        assert!(marshal(&heap, &Value::Sem(1)).is_err());
        assert!(marshal(&heap, &Value::Mutex(1)).is_err());
    }

    #[test]
    fn wire_bytes_counts_structure() {
        let (heap, v) = sample();
        let w = marshal(&heap, &v).unwrap();
        // record: 1 + 2 + 4 ("pair") + 2 = 9
        // str "s": 1 + 4 + 1 = 6
        // array:   1 + 4 + int (1 + 8) + bool (1 + 1) = 16
        assert_eq!(w.wire_bytes(), 9 + 6 + 16);
    }

    #[test]
    fn type_checking_on_the_wire() {
        let int_arr = WireValue::Array(vec![WireValue::Int(1)]);
        assert!(wire_matches_type(
            &int_arr,
            &Type::Array(Arc::new(Type::Int)),
            &[]
        ));
        assert!(!wire_matches_type(
            &int_arr,
            &Type::Array(Arc::new(Type::Bool)),
            &[]
        ));
        let rec = WireValue::Record {
            type_name: "point".into(),
            fields: vec![WireValue::Int(1), WireValue::Int(2)],
        };
        let point = Arc::new(RecordType {
            name: "point".into(),
            fields: vec![("x".into(), Type::Int), ("y".into(), Type::Int)],
        });
        assert!(wire_matches_type(
            &rec,
            &Type::Record(point.clone()),
            std::slice::from_ref(&point)
        ));
        let wrong = Arc::new(RecordType {
            name: "point".into(),
            fields: vec![("x".into(), Type::Int), ("y".into(), Type::Bool)],
        });
        assert!(!wire_matches_type(
            &rec,
            &Type::Record(wrong.clone()),
            &[wrong]
        ));
    }

    #[test]
    fn defaults_match_their_types() {
        assert!(wire_matches_type(&default_for(&Type::Int), &Type::Int, &[]));
        assert!(wire_matches_type(&default_for(&Type::Str), &Type::Str, &[]));
        assert!(wire_matches_type(
            &default_for(&Type::Array(Arc::new(Type::Int))),
            &Type::Array(Arc::new(Type::Int)),
            &[]
        ));
    }

    /// Arbitrary wire values, up to three levels deep with 0..4 children
    /// per composite — the same shape space the old proptest strategy
    /// covered. Shrinking drops children, shrinks them recursively, and
    /// simplifies leaf payloads.
    #[derive(Debug, Clone, Copy)]
    struct WireGen;

    fn wire_case(rng: &mut DetRng, depth: u32) -> Case<WireValue> {
        use pilgrim_sim::check::{int_range, string_of, vec_of_cases, zip_cases};
        // Composites become less likely as depth runs out (0..=1 at the
        // leaves), matching the old generator's bounded recursion.
        let variant = if depth == 0 {
            rng.below(4)
        } else {
            rng.below(6)
        };
        match variant {
            0 => Case::leaf(WireValue::Null),
            1 => int_range(i64::MIN / 2, i64::MAX / 2)
                .generate(rng)
                .map(std::rc::Rc::new(|v: &i64| WireValue::Int(*v))),
            2 => pilgrim_sim::check::boolean()
                .generate(rng)
                .map(std::rc::Rc::new(|b: &bool| WireValue::Bool(*b))),
            3 => string_of("abcdefghijklmnopqrstuvwxyz", 12)
                .generate(rng)
                .map(std::rc::Rc::new(|s: &String| {
                    WireValue::Str(s.as_str().into())
                })),
            4 => {
                let n = rng.below(4) as usize;
                let items: Vec<Case<WireValue>> =
                    (0..n).map(|_| wire_case(rng, depth - 1)).collect();
                vec_of_cases(items).map(std::rc::Rc::new(|items: &Vec<WireValue>| {
                    WireValue::Array(items.clone())
                }))
            }
            _ => {
                let n = rng.below(4) as usize;
                let fields: Vec<Case<WireValue>> =
                    (0..n).map(|_| wire_case(rng, depth - 1)).collect();
                let name = string_of("abcdefghijklmnopqrstuvwxyz", 8)
                    .generate(rng)
                    .map(std::rc::Rc::new(|s: &String| {
                        if s.is_empty() {
                            "r".to_string()
                        } else {
                            s.clone()
                        }
                    }));
                zip_cases(name, vec_of_cases(fields)).map(std::rc::Rc::new(
                    |(name, fields): &(String, Vec<WireValue>)| WireValue::Record {
                        type_name: name.as_str().into(),
                        fields: fields.clone(),
                    },
                ))
            }
        }
    }

    impl Gen for WireGen {
        type Value = WireValue;
        fn generate(&self, rng: &mut DetRng) -> Case<WireValue> {
            wire_case(rng, 3)
        }
    }

    /// unmarshal → marshal is the identity on wire values.
    #[test]
    fn prop_roundtrip() {
        check_n("marshal_prop_roundtrip", 256, &WireGen, |w| {
            let mut heap = Heap::new();
            let v = unmarshal(&mut heap, w);
            let w2 = marshal(&heap, &v).unwrap();
            ensure_eq(w.clone(), w2)
        });
    }

    /// to_json → from_json is the identity on wire values (the replay
    /// journal's invariant).
    #[test]
    fn prop_json_roundtrip() {
        check_n("marshal_prop_json_roundtrip", 256, &WireGen, |w| {
            let mut rendered = String::new();
            w.to_json().write(&mut rendered);
            let parsed = Json::parse(&rendered).map_err(|e| e.to_string())?;
            let w2 = WireValue::from_json(&parsed)?;
            ensure_eq(w.clone(), w2)
        });
    }

    /// `decode` reads back exactly what `encode_into` wrote, value after
    /// value from one buffer, and refuses every strict prefix of a value.
    fn byte_form_roundtrip(w: &WireValue) -> Result<(), String> {
        let mut bytes = Vec::new();
        w.encode_into(&mut bytes);
        let one = bytes.len();
        w.encode_into(&mut bytes);
        WireValue::Null.encode_into(&mut bytes);
        let mut rest = bytes.as_slice();
        for want in [w, w, &WireValue::Null] {
            ensure_eq(WireValue::decode(&mut rest).as_ref(), Some(want))?;
        }
        ensure(rest.is_empty(), format!("{} bytes left over", rest.len()))?;
        for cut in 0..one {
            let mut prefix = &bytes[..cut];
            ensure_eq(WireValue::decode(&mut prefix), None)?;
        }
        Ok(())
    }

    #[test]
    fn prop_byte_form_roundtrip() {
        let edges = [
            WireValue::Int(i64::MIN),
            WireValue::Int(i64::MAX),
            WireValue::Int(-1),
            WireValue::Str("".into()),
            WireValue::Str("λ→😀".into()),
            WireValue::Array(vec![]),
            WireValue::Record {
                type_name: "".into(),
                fields: vec![],
            },
            WireValue::Record {
                type_name: "r".into(),
                fields: vec![WireValue::Array(vec![WireValue::Str("".into())])],
            },
        ];
        for w in &edges {
            byte_form_roundtrip(w).unwrap_or_else(|e| panic!("{w:?}: {e}"));
        }
        check_n(
            "marshal_prop_byte_form_roundtrip",
            256,
            &WireGen,
            byte_form_roundtrip,
        );
        // Bytes the encoder never writes are refused, not guessed at.
        for hostile in [
            &[9u8][..],
            &[TAG_ARRAY, 0xff, 0xff, 0xff, 0xff],
            &[TAG_STR, 1, 0, 0, 0, 0xff],
        ] {
            assert_eq!(WireValue::decode(&mut &hostile[..]), None, "{hostile:?}");
        }
    }

    /// Encoded size is positive and grows monotonically with nesting.
    #[test]
    fn prop_wire_bytes_positive() {
        check_n("marshal_prop_wire_bytes_positive", 256, &WireGen, |w| {
            ensure(w.wire_bytes() >= 1, "zero-size encoding".to_string())?;
            let arr = WireValue::Array(vec![w.clone()]);
            ensure(
                arr.wire_bytes() > w.wire_bytes(),
                "nesting did not grow the encoding".to_string(),
            )
        });
    }
}
