//! Global string interning for hot, highly repeated log fields.
//!
//! The craylog parsers see the same few strings millions of times —
//! hostnames (`nid04008`), subsystem tags (`kernel`, `lustre`), executable
//! names, queue names. Allocating a fresh `String` per field per line is
//! the dominant allocation cost of a 518-day batch parse. [`Sym`] replaces
//! those fields with a `u32` handle into a process-wide table: interning a
//! string that was seen before is a hash lookup with no allocation, and
//! equality between interned fields is a single integer compare.
//!
//! The table is append-only and process-global; interned strings are leaked
//! once and live for the program's lifetime. That is the right trade here:
//! the universe of hot strings is small and bounded (≈30 k hostnames, tens
//! of tags, hundreds of commands), while the line volume is unbounded.
//! Interning is sharded, so parallel parse workers interning concurrently
//! contend only when they hash to the same shard.
//!
//! ```
//! use logdiver_types::Sym;
//!
//! let a = Sym::intern("nid04008");
//! let b = Sym::intern("nid04008");
//! assert_eq!(a, b); // u32 compare, no string walk
//! assert_eq!(a.as_str(), "nid04008");
//! assert_eq!(a, "nid04008"); // convenient in tests
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Mutex, OnceLock, RwLock};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::codec::{Decode, DecodeError, Encode, Reader};

/// Number of lock shards in the intern map. Power of two; enough that 8
/// parse workers rarely collide on a shard.
const SHARDS: usize = 32;

/// The process-wide interner backing [`Sym`].
struct Interner {
    /// string → id, sharded by string hash.
    shards: Vec<Mutex<HashMap<&'static str, u32>>>,
    /// id → string. Append-only; readers take the read lock briefly.
    table: RwLock<Vec<&'static str>>,
    hasher: RandomState,
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(|| Interner {
        shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        table: RwLock::new(Vec::new()),
        hasher: RandomState::new(),
    })
}

/// An interned string: a `u32` handle into the global intern table.
///
/// `Copy`, 4 bytes, and compares/hashes as an integer. Two `Sym`s are equal
/// exactly when the strings they intern are equal. Use
/// [`Sym::intern`] to obtain one and [`Sym::as_str`] to read it back;
/// `Display` renders the underlying string, so formatting code does not
/// change when a field becomes a `Sym`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Interns `s`, returning its stable handle. The first intern of a
    /// string allocates (and leaks) one copy; every later intern of an
    /// equal string is allocation-free.
    pub fn intern(s: &str) -> Sym {
        let interner = global();
        let hash = interner.hasher.hash_one(s);
        let shard = &interner.shards[(hash as usize) % SHARDS];
        // lint: allow(no-panic) poisoning requires a panic in another interning thread; propagating it is the designed response
        let mut map = shard.lock().expect("intern shard poisoned");
        if let Some(&id) = map.get(s) {
            return Sym(id);
        }
        // New string: leak one copy, append it to the id table. The shard
        // lock is still held, so an equal string racing in another thread
        // (it hashes to this same shard) cannot double-insert.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        // lint: allow(no-panic) poisoning requires a panic in another interning thread; propagating it is the designed response
        let mut table = interner.table.write().expect("intern table poisoned");
        // lint: allow(no-panic) overflow needs 2^32 distinct strings; the corpus vocabulary is bounded far below that
        let id = u32::try_from(table.len()).expect("intern table overflow");
        table.push(leaked);
        drop(table);
        map.insert(leaked, id);
        Sym(id)
    }

    /// Interns a field straight from raw log bytes: the zero-copy parser
    /// fast path. Validates UTF-8 in place (no `String` is ever built) and
    /// then takes the same sharded hash lookup as [`Sym::intern`] — a hit
    /// touches no allocator at all. Returns `None` for invalid UTF-8,
    /// which callers treat as a parse rejection.
    pub fn resolve_bytes(bytes: &[u8]) -> Option<Sym> {
        let s = std::str::from_utf8(bytes).ok()?;
        Some(Sym::intern(s))
    }

    /// The interned string. Lives for the program's lifetime.
    pub fn as_str(self) -> &'static str {
        let table = global().table.read().expect("intern table poisoned");
        table[self.0 as usize]
    }

    /// The raw handle value. Stable within one process run only — ids are
    /// assigned in first-intern order, so they must never be persisted.
    pub fn id(self) -> u32 {
        self.0
    }
}

/// A `Sym` travels as its string: handles are process-local (see
/// [`Sym::id`]), so the decoder re-interns.
impl Encode for Sym {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for Sym {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix()?;
        Sym::resolve_bytes(r.bytes(len)?).ok_or_else(|| r.bad("string is not UTF-8"))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

// Serialized as the plain string (ids are process-local), so records with
// interned fields keep their JSON shape; deserializing re-interns.
impl Serialize for Sym {
    fn serialize_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Sym {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(Sym::intern)
            .ok_or_else(|| DeError::custom("expected string for Sym"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_intern_to_equal_syms() {
        let a = Sym::intern("kernel");
        let b = Sym::intern("kernel");
        let c = Sym::intern("lustre");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "kernel");
        assert_eq!(a.to_string(), "kernel");
    }

    #[test]
    fn str_comparisons_work_both_ways() {
        let s = Sym::intern("nid00042");
        assert_eq!(s, "nid00042");
        assert_eq!("nid00042", s);
        assert!(s != "nid00043");
        assert_eq!(format!("{s:?}"), "\"nid00042\"");
    }

    #[test]
    fn resolve_bytes_matches_intern_and_rejects_bad_utf8() {
        let a = Sym::intern("lustre");
        assert_eq!(Sym::resolve_bytes(b"lustre"), Some(a));
        assert_eq!(Sym::resolve_bytes("κρίσιμο".as_bytes()).unwrap(), "κρίσιμο");
        assert_eq!(Sym::resolve_bytes(b"\xFF\xFEbad"), None);
        assert_eq!(Sym::resolve_bytes(b""), Some(Sym::intern("")));
    }

    #[test]
    fn from_impls_intern() {
        let a: Sym = "namd2".into();
        let b: Sym = String::from("namd2").into();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trips_as_string() {
        let s = Sym::intern("normal");
        let v = s.serialize_value();
        assert_eq!(v.as_str(), Some("normal"));
        let back = Sym::deserialize_value(&v).unwrap();
        assert_eq!(back, s);
        assert!(Sym::deserialize_value(&Value::Int(3)).is_err());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..1000)
                        .map(|i| Sym::intern(&format!("host{:04}", (i + t) % 257)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (t, syms) in results.iter().enumerate() {
            for (i, s) in syms.iter().enumerate() {
                assert_eq!(
                    s.as_str(),
                    format!("host{:04}", (i + t) % 257),
                    "thread {t} item {i}"
                );
            }
        }
    }
}
