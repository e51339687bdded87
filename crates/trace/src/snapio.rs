//! Minimal binary serialization primitives for machine snapshots.
//!
//! The checkpoint/restore engine serializes the complete simulator state —
//! spread across every crate of the workspace — into one versioned,
//! checksummed byte buffer. This module is the shared vocabulary: a writer
//! that appends fixed-width little-endian primitives to a `Vec<u8>` and a
//! bounds-checked [`SnapReader`] that consumes them in the same order.
//! It lives here, at the bottom of the dependency chain, so `smt-obs`,
//! `smt-uarch`, `smt-pipeline`, and `dwarn-core` can all expose
//! `save_state` / `load_state` over their private fields without a new
//! crate.
//!
//! Design rules, shared by every `save_state` in the workspace:
//!
//! * **Little-endian, fixed-width.** No varints: snapshots are consumed by
//!   the producing machine (crash-resume) and compared byte-for-byte by
//!   the golden restore-equivalence suite, so simplicity beats size.
//! * **Evolving state only.** Construction-derived state (configs, code
//!   images, pre-computed tables) is *not* serialized; `load_state`
//!   restores into an identically-constructed object and validates that
//!   the construction-derived shape (lengths, capacities) matches.
//! * **Deterministic order.** Hash-map content is written sorted by key;
//!   everything else in its codec's fixed field order. Two snapshots of
//!   equal machine state are byte-identical.
//! * **Floats as bit patterns.** `f64` round-trips through `to_bits`, so
//!   NaN payloads and signed zeros survive exactly.
//!
//! Most stateful types declare their wire layout once, with
//! [`snap_fields!`](crate::snap_fields): one list of evolving fields in
//! write order, plus the construction-derived fields named as skipped.
//! The macro writes both `save_state` and `load_state` from that list
//! through the [`Snap`] trait, and each half opens with an exhaustive
//! destructure of the struct, so a field added without being classified
//! fails to compile. The few layouts that are not a plain field sequence
//! (sorted hash maps, interleaved arrays, enum-tagged selectors) keep
//! hand-written codecs that open with the same exhaustive destructure
//! under `#[deny(unused_variables)]`: a field bound but never written is
//! a compile error there too.

use std::collections::VecDeque;
use std::fmt;

/// A malformed or truncated snapshot section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran out of bytes mid-field.
    Truncated {
        /// Bytes requested by the failing read.
        needed: usize,
        /// Bytes remaining in the buffer.
        left: usize,
    },
    /// A field decoded to a value the receiving structure cannot accept
    /// (length mismatch against the constructed shape, unknown enum tag,
    /// out-of-range index, ...).
    Malformed(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, left } => {
                write!(f, "truncated snapshot: needed {needed} bytes, {left} left")
            }
            SnapError::Malformed(m) => write!(f, "malformed snapshot field: {m}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl SnapError {
    /// Shorthand for a [`SnapError::Malformed`] with a formatted message.
    pub fn malformed(msg: impl Into<String>) -> SnapError {
        SnapError::Malformed(msg.into())
    }
}

// --- Writer side: free functions appending to a Vec<u8>. ---

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `usize` is written as `u64`; snapshots are architecture-portable.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// `f64` as its bit pattern (exact round-trip, NaN payloads included).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Length-prefixed raw bytes.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_usize(out, v.len());
    out.extend_from_slice(v);
}

/// Length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// A bounds-checked cursor over a snapshot section.
#[derive(Debug, Clone, Copy)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — `load_state` callers check
    /// this to reject trailing garbage.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                left: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::malformed(format!("bool byte {b:#x}"))),
        }
    }

    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::malformed(format!("usize overflow: {v}")))
    }

    /// A `usize` additionally bounded by `max` — for collection lengths,
    /// so a corrupt length field fails fast instead of triggering a huge
    /// allocation.
    pub fn len_capped(&mut self, max: usize) -> Result<usize, SnapError> {
        let v = self.usize()?;
        if v > max {
            return Err(SnapError::malformed(format!(
                "length {v} exceeds cap {max}"
            )));
        }
        Ok(v)
    }

    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed raw bytes (borrowed from the buffer).
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| SnapError::malformed(format!("invalid utf-8: {e}")))
    }

    /// Fail unless the section was consumed exactly.
    pub fn finish(self, what: &str) -> Result<(), SnapError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapError::malformed(format!(
                "{} bytes of trailing data after {what}",
                self.remaining()
            )))
        }
    }
}

/// Fail with [`SnapError::Malformed`] unless `ok` holds. The message is
/// built only on failure.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), SnapError> {
    if ok {
        Ok(())
    } else {
        Err(SnapError::Malformed(msg()))
    }
}

/// Decode one whole opaque state section (a policy's or a probe's) with
/// `load`, rejecting trailing bytes; errors are rendered as the `String`
/// the `FetchPolicy` and `Probe` hooks return.
pub fn load_section(
    bytes: &[u8],
    what: &str,
    load: impl FnOnce(&mut SnapReader<'_>) -> Result<(), SnapError>,
) -> Result<(), String> {
    let mut r = SnapReader::new(bytes);
    load(&mut r).map_err(|e| e.to_string())?;
    r.finish(what).map_err(|e| e.to_string())
}

// --- Declarative codecs. ---

/// A value with a snapshot wire form, restored in place.
///
/// Loading in place is what lets fixed-shape state round-trip without a
/// length prefix: the receiving object was built with the same shape, and
/// the snapshot carries only the contents. `Vec<T>` is such a fixed-shape
/// vector (no prefix; the constructed length is kept); variable-length
/// collections use the [`Seq`] codec instead.
pub trait Snap {
    /// Append this value's wire form to `out`.
    fn save_state(&self, out: &mut Vec<u8>);

    /// Overwrite this value from `r`. On error the value is unspecified.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

macro_rules! snap_primitive {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Snap for $t {
            fn save_state(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }

            fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                *self = r.$get()?;
                Ok(())
            }
        }
    )*};
}

snap_primitive! {
    u8 => put_u8, u8;
    bool => put_bool, bool;
    u16 => put_u16, u16;
    u32 => put_u32, u32;
    u64 => put_u64, u64;
    usize => put_usize, usize;
    f64 => put_f64, f64;
}

impl<T: Snap> Snap for [T] {
    fn save_state(&self, out: &mut Vec<u8>) {
        for x in self {
            x.save_state(out);
        }
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for x in self {
            x.load_state(r)?;
        }
        Ok(())
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save_state(&self, out: &mut Vec<u8>) {
        self[..].save_state(out);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self[..].load_state(r)
    }
}

/// A fixed-shape vector: its length is construction-derived, so only the
/// items are written.
impl<T: Snap> Snap for Vec<T> {
    fn save_state(&self, out: &mut Vec<u8>) {
        self[..].save_state(out);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self[..].load_state(r)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.0.save_state(out);
        self.1.save_state(out);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.load_state(r)?;
        self.1.load_state(r)
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.0.save_state(out);
        self.1.save_state(out);
        self.2.save_state(out);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.load_state(r)?;
        self.1.load_state(r)?;
        self.2.load_state(r)
    }
}

/// A presence byte, then the payload.
impl<T: Snap + Default> Snap for Option<T> {
    fn save_state(&self, out: &mut Vec<u8>) {
        put_bool(out, self.is_some());
        if let Some(x) = self {
            x.save_state(out);
        }
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = if r.bool()? {
            let mut x = T::default();
            x.load_state(r)?;
            Some(x)
        } else {
            None
        };
        Ok(())
    }
}

/// A field codec used in place of the field type's own [`Snap`] form,
/// named in a [`snap_fields!`](crate::snap_fields) list as `field: codec`.
pub trait Codec<T: ?Sized> {
    /// Append `v`'s wire form to `out`.
    fn save(&self, v: &T, out: &mut Vec<u8>);

    /// Overwrite `v` from `r`. On error `v` is unspecified.
    fn load(&self, v: &mut T, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// A variable-length sequence: a `usize` length of at most the cap, then
/// the items. The cap rejects a corrupt length before it is trusted.
#[derive(Debug, Clone, Copy)]
pub struct Seq(pub usize);

/// A vector whose length is construction-derived but still written: a
/// `usize` length that must equal the constructed one, then the items.
#[derive(Debug, Clone, Copy)]
pub struct Exact;

/// A construction-derived value that is written anyway and must read back
/// equal to the constructed one.
#[derive(Debug, Clone, Copy)]
pub struct Same;

macro_rules! seq_codec {
    ($($c:ident),*) => {$(
        impl<T: Snap + Default> Codec<$c<T>> for Seq {
            fn save(&self, v: &$c<T>, out: &mut Vec<u8>) {
                put_usize(out, v.len());
                for x in v {
                    x.save_state(out);
                }
            }

            fn load(&self, v: &mut $c<T>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                let n = r.len_capped(self.0)?;
                v.clear();
                for _ in 0..n {
                    let mut x = T::default();
                    x.load_state(r)?;
                    v.extend(std::iter::once(x));
                }
                Ok(())
            }
        }
    )*};
}

seq_codec!(Vec, VecDeque);

impl<T: Snap> Codec<Vec<T>> for Exact {
    fn save(&self, v: &Vec<T>, out: &mut Vec<u8>) {
        put_usize(out, v.len());
        v.save_state(out);
    }

    fn load(&self, v: &mut Vec<T>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        ensure(n == v.len(), || {
            format!("length {n} does not match the constructed {}", v.len())
        })?;
        v.load_state(r)
    }
}

impl<T: Snap + Copy + PartialEq + fmt::Debug> Codec<T> for Same {
    fn save(&self, v: &T, out: &mut Vec<u8>) {
        v.save_state(out);
    }

    fn load(&self, v: &mut T, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut got = *v;
        got.load_state(r)?;
        ensure(got == *v, || {
            format!("snapshot has {got:?}, the constructed value is {v:?}")
        })
    }
}

/// Declare a struct's snapshot layout once: implements [`Snap`] (both
/// `save_state(&self)` and `load_state(&mut self)`) from one list.
///
/// Evolving fields are listed in write order, each encoded by its own
/// [`Snap`] impl or by an explicit [`Codec`] (`field: codec`).
/// Construction-derived fields are named under `derived`; they are not
/// written, and a codec expression or the optional trailing `check`
/// block may read them. Both halves open with an exhaustive destructure
/// of the struct, so every field must be listed one way or the other. In
/// `load_state` every field is bound by `&mut` under its own name, and the
/// `check` block runs after the last field is read.
///
/// ```
/// use smt_trace::snap_fields;
/// use smt_trace::snapio::{ensure, Seq, Snap, SnapReader};
///
/// struct Queue { cap: usize, items: Vec<u64>, pushes: u64 }
///
/// snap_fields! {
///     Queue { items: Seq(1 << 20), pushes }
///     derived { cap }
///     check { ensure(items.len() <= *cap, || "queue over capacity".into())?; }
/// }
///
/// let q = Queue { cap: 4, items: vec![7, 9], pushes: 2 };
/// let mut bytes = Vec::new();
/// q.save_state(&mut bytes);
/// let mut back = Queue { cap: 4, items: Vec::new(), pushes: 0 };
/// back.load_state(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!((back.items, back.pushes), (vec![7, 9], 2));
/// ```
///
/// A field that is neither listed nor named as derived is a compile
/// error:
///
/// ```compile_fail
/// use smt_trace::snap_fields;
///
/// struct Queue { cap: usize, items: Vec<u64>, pushes: u64 }
///
/// snap_fields! { Queue { items } derived { cap } }
/// ```
///
/// Hand codecs hold to the same rule by destructuring under
/// `#[deny(unused_variables)]`: a field bound but never written does not
/// compile.
///
/// ```compile_fail
/// use smt_trace::snapio::put_u64;
///
/// struct Wheel { len: u64, mask: u64, head: u64 }
///
/// impl Wheel {
///     #[deny(unused_variables)]
///     fn save_state(&self, out: &mut Vec<u8>) {
///         let Wheel { len, mask: _, head } = self;
///         put_u64(out, *len);
///     }
/// }
/// ```
#[macro_export]
macro_rules! snap_fields {
    (
        $ty:ident { $($field:ident $(: $codec:expr)?),+ $(,)? }
        $(derived { $($derived:ident),+ $(,)? })?
        $(check $check:block)?
    ) => {
        impl $crate::snapio::Snap for $ty {
            fn save_state(&self, out: &mut ::std::vec::Vec<u8>) {
                let $ty { $($field,)+ $($($derived,)+)? } = self;
                $($(let _ = $derived;)+)?
                $($crate::snap_fields!(@save out, $field $(, $codec)?);)+
            }

            fn load_state(
                &mut self,
                r: &mut $crate::snapio::SnapReader<'_>,
            ) -> ::std::result::Result<(), $crate::snapio::SnapError> {
                let $ty { $($field,)+ $($($derived,)+)? } = self;
                $($(let _ = &$derived;)+)?
                $($crate::snap_fields!(@load r, $field $(, $codec)?);)+
                $($check)?
                Ok(())
            }
        }
    };
    (@save $out:ident, $field:ident) => {
        $crate::snapio::Snap::save_state($field, $out)
    };
    (@save $out:ident, $field:ident, $codec:expr) => {
        $crate::snapio::Codec::save(&$codec, $field, $out)
    };
    (@load $r:ident, $field:ident) => {
        $crate::snapio::Snap::load_state($field, $r)?
    };
    (@load $r:ident, $field:ident, $codec:expr) => {
        $crate::snapio::Codec::load(&$codec, $field, $r)?
    };
}

/// Implement [`Snap`] for a fieldless enum as a one-byte tag per variant.
/// The save half matches every variant explicitly, so a new variant does
/// not compile until it has a tag.
#[macro_export]
macro_rules! snap_tags {
    ($ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::snapio::Snap for $ty {
            fn save_state(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::snapio::put_u8(out, match self { $($ty::$variant => $tag,)+ });
            }

            fn load_state(
                &mut self,
                r: &mut $crate::snapio::SnapReader<'_>,
            ) -> ::std::result::Result<(), $crate::snapio::SnapError> {
                *self = match r.u8()? {
                    $($tag => $ty::$variant,)+
                    t => {
                        return Err($crate::snapio::SnapError::malformed(format!(
                            concat!(stringify!($ty), " tag {}"),
                            t
                        )))
                    }
                };
                Ok(())
            }
        }
    };
}

/// Declare a struct of `u64` counters from one field list: the struct
/// itself (attributes, derives and field docs pass through; every field
/// is a `pub u64`), its [`Snap`] form (each counter in declaration
/// order), and the field-wise arithmetic and naming every consumer of the
/// counters uses — window deltas, fragment stitching, digests, cache
/// entries and stats records.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident {
            $($(#[$fmeta:meta])* $field:ident,)+
        }
    ) => {
        $(#[$meta])*
        $vis struct $ty {
            $($(#[$fmeta])* pub $field: u64,)+
        }

        impl $ty {
            /// `(name, value)` for every counter, in declaration order.
            pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),+].into_iter()
            }

            /// Build from values in declaration order; `None` unless
            /// there is exactly one value per counter.
            pub fn from_values(values: &[u64]) -> Option<$ty> {
                let mut it = values.iter().copied();
                let v = $ty { $($field: it.next()?,)+ };
                it.next().is_none().then_some(v)
            }

            /// Counts accrued since the cumulative reading `start`.
            pub fn delta(&self, start: &$ty) -> $ty {
                $ty { $($field: self.$field - start.$field,)+ }
            }

            /// Add `d` to every counter.
            pub fn add(&mut self, d: &$ty) {
                $(self.$field += d.$field;)+
            }
        }

        impl $crate::snapio::Snap for $ty {
            fn save_state(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::snapio::put_u64(out, self.$field);)+
            }

            fn load_state(
                &mut self,
                r: &mut $crate::snapio::SnapReader<'_>,
            ) -> ::std::result::Result<(), $crate::snapio::SnapError> {
                $(self.$field = r.u64()?;)+
                Ok(())
            }
        }
    };
}

/// Streaming 64-bit FNV-1a: the workspace's content checksum and result
/// digest. Hand-rolled because the workspace is dependency-free and
/// `DefaultHasher` may change across Rust releases, which would silently
/// invalidate stored golden digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feed `v` as its 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_bool(&mut buf, true);
        put_u16(&mut buf, 0x1234);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_usize(&mut buf, 123_456);
        put_f64(&mut buf, f64::INFINITY);
        put_bytes(&mut buf, b"abc");
        put_str(&mut buf, "déjà");
        Some(9u64).save_state(&mut buf);
        None::<u64>.save_state(&mut buf);

        let mut r = SnapReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.str().unwrap(), "déjà");
        let mut opts = [None, Some(1u64)];
        opts.load_state(&mut r).unwrap();
        assert_eq!(opts, [Some(9), None]);
        r.finish("test").unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        let mut r = SnapReader::new(&buf);
        let _ = r.u16().unwrap();
        let e = r.u64().unwrap_err();
        assert!(matches!(e, SnapError::Truncated { needed: 8, left: 2 }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1);
        put_u8(&mut buf, 0);
        let mut r = SnapReader::new(&buf);
        let _ = r.u64().unwrap();
        let e = r.finish("section").unwrap_err();
        assert!(e.to_string().contains("trailing data after section"), "{e}");
    }

    #[test]
    fn bad_bool_and_length_cap_are_malformed() {
        let buf = [7u8];
        assert!(SnapReader::new(&buf).bool().is_err());
        let mut buf = Vec::new();
        put_usize(&mut buf, 1 << 40);
        assert!(SnapReader::new(&buf).len_capped(1024).is_err());
    }

    #[test]
    fn nan_payloads_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut buf = Vec::new();
        put_f64(&mut buf, weird);
        let back = SnapReader::new(&buf).f64().unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn codecs_reject_shape_mismatches() {
        let mut buf = Vec::new();
        Seq(4).save(&vec![1u32, 2, 3], &mut buf);
        let mut v: Vec<u32> = Vec::new();
        Seq(4).load(&mut v, &mut SnapReader::new(&buf)).unwrap();
        assert_eq!(v, [1, 2, 3]);
        assert!(Seq(2).load(&mut v, &mut SnapReader::new(&buf)).is_err());
        // The same bytes are an `Exact` vector of three, not of two.
        let mut three = vec![0u32; 3];
        Exact.load(&mut three, &mut SnapReader::new(&buf)).unwrap();
        assert_eq!(three, [1, 2, 3]);
        assert!(Exact
            .load(&mut vec![0u32; 2], &mut SnapReader::new(&buf))
            .is_err());
        let mut window = 8u64;
        let mut bytes = Vec::new();
        Same.save(&window, &mut bytes);
        Same.load(&mut window, &mut SnapReader::new(&bytes))
            .unwrap();
        let mut other = 16u64;
        assert!(Same.load(&mut other, &mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") per the published reference values.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
