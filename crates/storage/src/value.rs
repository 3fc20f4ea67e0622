//! Dictionary-encoded values.
//!
//! Join algorithms here never look *inside* a value — only equality,
//! ordering, and hashing matter — so relations store plain machine words
//! ([`Value`]) and a [`Dictionary`] translates between user-facing data
//! ([`Datum`]) and those words at the API boundary. Integers round-trip
//! without any dictionary entry (they are tagged into the value space
//! directly) so purely numeric workloads never touch the dictionary at all.

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An opaque, dictionary-encoded value. Ordering is byte-wise on the code,
/// which is what the trie index sorts by; it is *not* the ordering of the
/// decoded data (irrelevant for natural joins, which only test equality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(pub u64);

impl Value {
    /// Raw code.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value(u64::from(v))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// User-facing datum: what a [`Value`] decodes to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Datum {
    /// A 63-bit non-negative integer (encoded inline, no dictionary entry).
    Int(u64),
    /// An interned string.
    Str(Box<str>),
}

impl Datum {
    /// Convenience constructor for string data.
    #[must_use]
    pub fn str(s: &str) -> Datum {
        Datum::Str(s.into())
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for Datum {
    fn from(v: u64) -> Self {
        Datum::Int(v)
    }
}
impl From<&str> for Datum {
    fn from(s: &str) -> Self {
        Datum::str(s)
    }
}
impl From<String> for Datum {
    fn from(s: String) -> Self {
        Datum::Str(s.into_boxed_str())
    }
}

/// Tag bit separating inline integers from interned strings.
///
/// Codes `< STR_TAG` are integers encoded as themselves; codes `≥ STR_TAG`
/// are indices into the intern table offset by `STR_TAG`.
const STR_TAG: u64 = 1 << 63;

/// Bidirectional mapping between [`Datum`] and [`Value`].
///
/// Thread-safe: encoding takes a write lock only on a dictionary miss, so
/// concurrent loaders scale. Integers never lock.
#[derive(Default)]
pub struct Dictionary {
    inner: RwLock<DictInner>,
}

impl Dictionary {
    /// Read lock, ignoring poisoning (the dictionary's invariants hold
    /// after any partial write: both maps are append-only).
    fn read_inner(&self) -> RwLockReadGuard<'_, DictInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_inner(&self) -> RwLockWriteGuard<'_, DictInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Default)]
struct DictInner {
    by_str: FxHashMap<Box<str>, u64>,
    strings: Vec<Box<str>>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    #[must_use]
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Encodes a datum, interning strings on first sight.
    ///
    /// # Panics
    /// Panics if an integer datum needs the tag bit (≥ 2⁶³); the workloads
    /// in this workspace use far smaller domains.
    pub fn encode(&self, d: &Datum) -> Value {
        match d {
            Datum::Int(v) => {
                assert!(*v < STR_TAG, "integer datum too large for inline encoding");
                Value(*v)
            }
            Datum::Str(s) => {
                if let Some(&idx) = self.read_inner().by_str.get(s.as_ref()) {
                    return Value(STR_TAG | idx);
                }
                let mut w = self.write_inner();
                if let Some(&idx) = w.by_str.get(s.as_ref()) {
                    return Value(STR_TAG | idx);
                }
                let idx = w.strings.len() as u64;
                w.strings.push(s.clone());
                w.by_str.insert(s.clone(), idx);
                Value(STR_TAG | idx)
            }
        }
    }

    /// Encodes a string slice.
    pub fn encode_str(&self, s: &str) -> Value {
        self.encode(&Datum::str(s))
    }

    /// Decodes a value; `None` if it references an unknown intern slot.
    #[must_use]
    pub fn decode(&self, v: Value) -> Option<Datum> {
        match Dictionary::string_slot(v) {
            None => Some(Datum::Int(v.0)),
            Some(slot) => self
                .read_inner()
                .strings
                .get(slot)
                .map(|s| Datum::Str(s.clone())),
        }
    }

    /// The intern slot a string value points at; `None` for an inline
    /// integer.
    #[must_use]
    pub fn string_slot(v: Value) -> Option<usize> {
        (v.0 & STR_TAG != 0).then_some((v.0 & !STR_TAG) as usize)
    }

    /// Runs `f` over the interned strings, indexed by
    /// [`Dictionary::string_slot`], under one read lock: a caller decoding
    /// many values neither locks nor copies a string per value.
    pub fn with_strings<R>(&self, f: impl FnOnce(&[Box<str>]) -> R) -> R {
        f(&self.read_inner().strings)
    }

    /// Number of interned strings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read_inner().strings.len()
    }

    /// `true` iff no strings are interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_roundtrip_without_dictionary() {
        let d = Dictionary::new();
        let v = d.encode(&Datum::Int(42));
        assert_eq!(v, Value(42));
        assert_eq!(d.decode(v), Some(Datum::Int(42)));
        assert!(d.is_empty());
    }

    #[test]
    fn strings_intern_once() {
        let d = Dictionary::new();
        let a = d.encode_str("alice");
        let b = d.encode_str("bob");
        let a2 = d.encode_str("alice");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.decode(a), Some(Datum::str("alice")));
        assert_eq!(d.decode(b), Some(Datum::str("bob")));
    }

    #[test]
    fn strings_and_ints_never_collide() {
        let d = Dictionary::new();
        let s = d.encode_str("0");
        let i = d.encode(&Datum::Int(0));
        assert_ne!(s, i);
    }

    #[test]
    fn decode_unknown_string_slot() {
        let d = Dictionary::new();
        assert_eq!(d.decode(Value(STR_TAG | 99)), None);
    }

    #[test]
    fn string_slots_index_the_interned_strings() {
        let d = Dictionary::new();
        let a = d.encode_str("alice");
        let b = d.encode_str("bob");
        assert_eq!(Dictionary::string_slot(Value(7)), None);
        let slots = [a, b].map(|v| Dictionary::string_slot(v).unwrap());
        let texts = d.with_strings(|strings| slots.map(|s| strings[s].to_string()));
        assert_eq!(texts, ["alice", "bob"]);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_int_panics() {
        let d = Dictionary::new();
        d.encode(&Datum::Int(u64::MAX));
    }

    #[test]
    fn concurrent_encoding_consistent() {
        use std::sync::Arc;
        let d = Arc::new(Dictionary::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| d.encode_str(&format!("s{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Value>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "all threads must agree on codes");
        }
        assert_eq!(d.len(), 100);
    }

    #[test]
    fn datum_conversions_and_display() {
        assert_eq!(Datum::from(7u64), Datum::Int(7));
        assert_eq!(Datum::from("x"), Datum::str("x"));
        assert_eq!(Datum::from(String::from("y")), Datum::str("y"));
        assert_eq!(format!("{}", Datum::Int(3)), "3");
        assert_eq!(format!("{}", Datum::str("z")), "z");
        assert_eq!(format!("{}", Value(5)), "#5");
    }
}
