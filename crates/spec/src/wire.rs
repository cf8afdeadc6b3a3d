//! The byte codec: one little-endian format for everything the stack
//! sends, stores or rings — blockstore messages, journal records,
//! membership views and heartbeats, rdt headers, SQE and CQE slots.
//!
//! "The marshalling obligation is guaranteeing that calling read results
//! in its parameters and return values being correctly marshalled across
//! the user- and kernel-space boundary. We can prove that values
//! correctly round-trip through serialization and deserialization"
//! (§3). `veros-core`'s `marshalling_bytes_roundtrip` obligation checks
//! this codec, and every format inherits the check by being written
//! with it.
//!
//! The format has no self-description (both sides are compiled from the
//! same schema): a `u8`, `u16`, `u32` or `u64` is its little-endian
//! bytes; a byte run or UTF-8 string is a `u32` length then the bytes;
//! a list is a `u32` count then the items. A [`Writer`] appends to a
//! caller-owned buffer, so the caller allocates once, at the message's
//! final size. A [`Reader`] never panics on hostile input and never
//! copies: a byte run or a string it reads is a slice of its input.
//!
//! A tagged message format is one [`wire_messages!`](crate::wire_messages)
//! table: each row is a variant, its tag byte and its fields in wire
//! order, and the table generates the enum, its exact length, its
//! encoder and decoder, its header accessors and its test samples. A
//! field's type picks its wire form through [`Field`]. The table also
//! generates the enum's borrowed twin, which holds each string as a
//! `&str`, each byte run as a slice and each list as a [`List`]: the
//! encoder is written once, on the twin ([`Encode`]), and the owned
//! message encodes by borrowing itself, so a caller whose bytes live
//! elsewhere encodes them without first copying them into a message.
//! The decoder is written once too, on the twin ([`Field::read_ref`]):
//! it borrows every field from the input, validating a string in place
//! and a list item by item, and allocates nothing; the owned decode is
//! it followed by a copy of each field ([`Field::from_ref`]), taken only
//! once the whole message has parsed.

use std::fmt;

use crate::rng::SpecRng;

/// Decoding errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A length prefix or count exceeded its bound.
    LengthOverflow,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes remained after decoding finished.
    TrailingBytes,
    /// A message tag no row of its table declares.
    UnknownTag,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::Truncated => "input truncated",
            WireError::LengthOverflow => "length prefix too large",
            WireError::BadUtf8 => "invalid utf-8 in string",
            WireError::TrailingBytes => "trailing bytes after value",
            WireError::UnknownTag => "unknown message tag",
        };
        f.write_str(s)
    }
}

/// Largest length prefix a [`Reader`] accepts (a corrupted prefix must
/// not make it read gigabytes).
pub const MAX_FIELD: usize = 1 << 24;

/// Encoded size of a length-prefixed field holding `len` bytes.
#[inline]
pub const fn field_len(len: usize) -> usize {
    4 + len
}

/// Appends values to a caller-owned buffer.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf }
    }

    /// Appends a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends bytes that are already encoded, as they are: no length
    /// prefix (a list's run of items, validated when it was read).
    #[inline]
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed field of `len` zero bytes and returns
    /// it, for the caller to fill in place (a block read from a file
    /// straight into its message).
    #[inline]
    pub fn bytes_slot(&mut self, len: usize) -> &mut [u8] {
        self.u32(len as u32);
        let start = self.buf.len();
        self.buf.resize(start + len, 0);
        &mut self.buf[start..]
    }
}

/// Reads values back out of a byte buffer.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Fails unless everything was consumed — catches schema drift where
    /// the encoder wrote more fields than the decoder read.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [v] = self.array()?;
        Ok(v)
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads length-prefixed bytes, borrowed from the input.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD {
            return Err(WireError::LengthOverflow);
        }
        let (head, rest) = self.rest.split_at_checked(len).ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// Reads a length-prefixed UTF-8 string, validated in place.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }
}

/// A value's encoding, written from borrowed bytes: implemented by
/// what a borrowed twin holds for each field ([`Field::Ref`]), so each
/// wire form has one encoder whether the message owns its bytes or not.
pub trait Encode {
    /// Bytes [`Encode::write`] appends.
    fn wire_len(&self) -> usize;
    /// Appends the value.
    fn write(&self, w: &mut Writer<'_>);
}

/// A message field's wire form: a [`wire_messages!`](crate::wire_messages)
/// row's field type picks its impl, as a syscall argument's type picks
/// its register domain.
///
/// Each form has one decoder, [`Field::read_ref`], which borrows from
/// the input; an owned value is that borrowed one made owned
/// ([`Field::from_ref`]), so the two can never disagree on the bytes.
/// A field owns its value, so it borrows nothing itself.
pub trait Field: Sized + 'static {
    /// The fewest bytes one value encodes to, so a list claiming more
    /// items than the input left can hold is refused before any is read.
    const MIN_LEN: usize;
    /// The field as a borrowed twin holds it: the value itself for an
    /// integer, a `&str` for a string, a slice for a byte run, a
    /// [`List`] for a list.
    type Ref<'a>: Encode + Copy + fmt::Debug + Eq;
    /// Borrows the value; it encodes as [`Field::Ref`]'s [`Encode`] impl
    /// writes it.
    fn borrowed(&self) -> Self::Ref<'_>;
    /// Reads a value back, borrowed from the input: a string is
    /// validated in place, a byte run and a list are slices of it. A
    /// list whose count exceeds `max` is `LengthOverflow` (other types
    /// ignore `max`).
    fn read_ref<'a>(r: &mut Reader<'a>, max: usize) -> Result<Self::Ref<'a>, WireError>;
    /// The owned value a borrowed one stands for.
    fn from_ref(v: Self::Ref<'_>) -> Self;
    /// Reads an owned value: [`Field::read_ref`], then
    /// [`Field::from_ref`], so nothing is copied before the whole value
    /// has been read.
    fn read(r: &mut Reader<'_>, max: usize) -> Result<Self, WireError> {
        Self::read_ref(r, max).map(Self::from_ref)
    }
    /// In-domain boundary values, never empty; no list is longer than
    /// `max`.
    fn edges(max: usize) -> Vec<Self>;
    /// A random value; a list's count respects `max`.
    fn arbitrary(rng: &mut SpecRng, max: usize) -> Self;

    /// The `k`-th boundary value, cycling.
    fn edge(k: usize, max: usize) -> Self {
        let mut edges = Self::edges(max);
        let at = k % edges.len();
        edges.swap_remove(at)
    }
}

/// Implements [`Field`] for fixed-width integers.
macro_rules! int_fields {
    ($($ty:ident: $($edge:expr),+;)*) => {$(
        impl Encode for $ty {
            #[inline]
            fn wire_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
            #[inline]
            fn write(&self, w: &mut Writer<'_>) {
                w.$ty(*self);
            }
        }

        impl Field for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            type Ref<'a> = $ty;
            #[inline]
            fn borrowed(&self) -> $ty {
                *self
            }
            #[inline]
            fn read_ref(r: &mut Reader<'_>, _max: usize) -> Result<$ty, WireError> {
                r.$ty()
            }
            #[inline]
            fn from_ref(v: $ty) -> Self {
                v
            }
            fn edges(_max: usize) -> Vec<Self> {
                vec![$($edge),+]
            }
            #[allow(clippy::unnecessary_cast, reason = "a no-op for `u64` only")]
            fn arbitrary(rng: &mut SpecRng, _max: usize) -> Self {
                rng.next_u64() as $ty
            }
        }
    )*};
}

int_fields! {
    u8: 0, 1, u8::MAX;
    u16: 0, 1, 0x0102, u16::MAX;
    u32: 0, 1, 37, 0x0102_0304, u32::MAX;
    u64: 0, 1, 3, 1003, 1 << 32, (1 << 63) | (5 << 32), u64::MAX;
}

/// Implements [`Field`] for a length-prefixed run, a UTF-8 string or
/// a byte run, and [`Encode`] for its borrowed form.
macro_rules! prefixed_fields {
    ($($ty:ty as $borrowed:ty: $method:ident, [$($edge:expr),+], $arbitrary:expr;)*) => {$(
        impl Encode for &$borrowed {
            #[inline]
            fn wire_len(&self) -> usize {
                field_len(self.len())
            }
            #[inline]
            fn write(&self, w: &mut Writer<'_>) {
                w.$method(self);
            }
        }

        impl Field for $ty {
            const MIN_LEN: usize = field_len(0);
            type Ref<'a> = &'a $borrowed;
            #[inline]
            fn borrowed(&self) -> &$borrowed {
                self
            }
            #[inline]
            fn read_ref<'a>(r: &mut Reader<'a>, _max: usize) -> Result<&'a $borrowed, WireError> {
                r.$method()
            }
            #[inline]
            fn from_ref(v: &$borrowed) -> Self {
                v.into()
            }
            fn edges(_max: usize) -> Vec<Self> {
                vec![$($edge.into()),+]
            }
            fn arbitrary(rng: &mut SpecRng, _max: usize) -> Self {
                $arbitrary(rng)
            }
        }
    )*};
}

prefixed_fields! {
    String as str: str, ["", "k", "ab", "abc", "abcd", "ycsb-123", "\u{0}\u{0}\u{0}", "grüße / 你好"],
        // Any scalar value below the surrogates: one to three UTF-8 bytes.
        |rng: &mut SpecRng| (0..rng.index(16))
            .map(|_| char::from_u32(rng.below(0xd800) as u32).unwrap_or('?'))
            .collect();
    Vec<u8> as [u8]: bytes, [vec![], vec![0], vec![0; 3], vec![0xff; 8], vec![7; 1024]],
        |rng: &mut SpecRng| {
            let mut v = vec![0; rng.index(64)];
            rng.fill(&mut v);
            v
        };
}

/// An item of a counted list (a byte run is a [`Field`] of its own).
pub trait Item: Field + Clone {}

impl Item for u16 {}

impl<A: Field + Clone, B: Field + Clone, C: Field + Clone> Item for (A, B, C) {}

/// The fields in order.
impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len() + self.2.wire_len()
    }
    fn write(&self, w: &mut Writer<'_>) {
        self.0.write(w);
        self.1.write(w);
        self.2.write(w);
    }
}

impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN + C::MIN_LEN;
    type Ref<'a> = (A::Ref<'a>, B::Ref<'a>, C::Ref<'a>);
    fn borrowed(&self) -> Self::Ref<'_> {
        (self.0.borrowed(), self.1.borrowed(), self.2.borrowed())
    }
    fn read_ref<'a>(r: &mut Reader<'a>, max: usize) -> Result<Self::Ref<'a>, WireError> {
        Ok((A::read_ref(r, max)?, B::read_ref(r, max)?, C::read_ref(r, max)?))
    }
    fn from_ref((a, b, c): Self::Ref<'_>) -> Self {
        (A::from_ref(a), B::from_ref(b), C::from_ref(c))
    }
    fn edges(max: usize) -> Vec<Self> {
        let n = A::edges(max).len().max(B::edges(max).len()).max(C::edges(max).len());
        (0..n).map(|k| (A::edge(k, max), B::edge(k, max), C::edge(k, max))).collect()
    }
    fn arbitrary(rng: &mut SpecRng, max: usize) -> Self {
        (A::arbitrary(rng, max), B::arbitrary(rng, max), C::arbitrary(rng, max))
    }
}

/// A counted list as a borrowed twin holds it: an owned list's items,
/// or the run of encoded items [`Field::read_ref`] validated in place,
/// so reading a list copies nothing. Both forms encode alike, and two
/// lists are equal when their items are, whichever form each has. Only
/// [`Field::borrowed`] and [`Field::read_ref`] make one, so a run is
/// always one that decodes.
pub struct List<'a, T> {
    /// An owned list's items; empty for a list read from the input.
    items: &'a [T],
    /// A list read from the input: its item count and the items'
    /// encodings, back to back; 0 and empty for an owned list.
    count: usize,
    run: &'a [u8],
}

impl<T> Clone for List<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for List<'_, T> {}

impl<'a, T: Item> List<'a, T> {
    /// Items in the list.
    pub fn len(self) -> usize {
        self.items.len() + self.count
    }

    /// Whether the list has no items.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The items, borrowed.
    pub fn iter(self) -> impl Iterator<Item = T::Ref<'a>> + 'a {
        // A run was validated when it was read: every item decodes, so
        // `map_while` ends only after the last.
        let mut run = Reader::new(self.run);
        let read = (0..self.count).map_while(move |_| T::read_ref(&mut run, usize::MAX).ok());
        self.items.iter().map(|item| item.borrowed()).chain(read)
    }

    /// The owned list: one allocation of exactly its length, then each
    /// item made owned.
    pub fn to_vec(self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().map(T::from_ref));
        out
    }
}

/// A `u32` count, then the items.
impl<T: Item> Encode for List<'_, T> {
    fn wire_len(&self) -> usize {
        4 + self.items.iter().map(|item| item.borrowed().wire_len()).sum::<usize>() + self.run.len()
    }
    fn write(&self, w: &mut Writer<'_>) {
        w.u32(self.len() as u32);
        self.items.iter().for_each(|item| item.borrowed().write(w));
        w.raw(self.run);
    }
}

impl<T: Item> fmt::Debug for List<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Item> PartialEq for List<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Item> Eq for List<'_, T> {}

/// Encoded as its [`List`]; a count above `max` is `LengthOverflow`.
impl<T: Item> Field for Vec<T> {
    const MIN_LEN: usize = 4;
    type Ref<'a> = List<'a, T>;
    fn borrowed(&self) -> List<'_, T> {
        List { items: self, count: 0, run: &[] }
    }
    /// Each item is read (and dropped) to validate the run; nothing is
    /// reserved.
    fn read_ref<'a>(r: &mut Reader<'a>, max: usize) -> Result<List<'a, T>, WireError> {
        let count = r.u32()? as usize;
        if count > max {
            return Err(WireError::LengthOverflow);
        }
        if count.saturating_mul(T::MIN_LEN) > r.remaining() {
            return Err(WireError::Truncated);
        }
        let start = r.rest;
        for _ in 0..count {
            T::read_ref(r, usize::MAX)?;
        }
        Ok(List { items: &[], count, run: &start[..start.len() - r.remaining()] })
    }
    fn from_ref(list: List<'_, T>) -> Self {
        list.to_vec()
    }
    /// Empty, one item, every item edge, and the most items a sample
    /// carries (64, or `max` if less).
    fn edges(max: usize) -> Vec<Self> {
        let items = T::edges(usize::MAX);
        let mut edges = vec![vec![], vec![T::edge(0, usize::MAX)], items];
        edges.push(vec![T::edge(0, usize::MAX); max.min(64)]);
        edges.retain(|list| list.len() <= max);
        edges
    }
    fn arbitrary(rng: &mut SpecRng, max: usize) -> Self {
        (0..rng.index(max.min(8) + 1)).map(|_| T::arbitrary(rng, usize::MAX)).collect()
    }
}

/// Declares a tagged message format as a table and generates its code.
///
/// The body opens with `borrowed NameRef<'a>`, naming the table's
/// borrowed twin (doc comments before it document the twin). Each
/// variant is then a row, `Name = tag { field: Type, … }` (a struct
/// variant) or `Name = tag (field: Type, …)` (a tuple variant, whose
/// names only bind), with its fields in wire order; a list field may add
/// `[max N]`, its decoder's bound on the count. An optional
/// `header { id: Type }` after the twin declares once the message id
/// every row starts with; its accessors are `id`, `set_id` and
/// `peek_id`. A message is its tag byte, then its fields as their
/// [`Field`] impls write them.
///
/// Generated: the enum; its borrowed twin, the same rows with each
/// field as its [`Field::Ref`] (a `&str` where the row has a `String`, a
/// slice where it has a `Vec<u8>`, a [`List`] where it has a list), with
/// `encoded_len` (exact) and `write`, the table's one encoder,
/// `read_ref` (one message off a [`Reader`], borrowed from its bytes)
/// and `decode_ref` (`None` on any error, an unknown tag or a trailing
/// byte), the table's one decoder, and `to_owned`; on the enum,
/// `borrowed` (the twin of a message), `encoded_len` and `write`
/// (through its twin), `encode` (one allocation of exactly that size),
/// `read` and `decode` (through its twin, then `to_owned`), `samples`
/// (the `k`-th of a row gives every field its `k`-th edge), `arbitrary`
/// and the header accessors (`id` on the twin too). Two rows sharing a
/// tag do not compile; a retired tag stays unassigned by having no row.
#[macro_export]
macro_rules! wire_messages {
    // One struct row: its variant declarations (owned and borrowed), its
    // patterns and its fields (the header first) go to the accumulator.
    (@rows $head:tt $lt:lifetime
        { $( $(#[$hdoc:meta])* $h:ident: $hty:ty )? }
        [$($done:tt)*]
        $(#[$vdoc:meta])* $var:ident = $tag:literal {
            $( $(#[$fdoc:meta])* $f:ident: $ty:ty $([max $max:expr])? ),* $(,)?
        }
        $(, $($rest:tt)*)?
    ) => {
        $crate::wire_messages!(@rows $head $lt
            { $( $(#[$hdoc])* $h: $hty )? }
            [$($done)* [
                [$(#[$vdoc])*] $var $tag
                { $( $(#[$hdoc])* $h: $hty, )? $( $(#[$fdoc])* $f: $ty, )* }
                {
                    $( $(#[$hdoc])* $h: <$hty as $crate::wire::Field>::Ref<$lt>, )?
                    $( $(#[$fdoc])* $f: <$ty as $crate::wire::Field>::Ref<$lt>, )*
                }
                { $( $h, )? $( $f, )* }
                { $( $h, )? .. }
                ( $( $h: $hty [usize::MAX], )? $( $f: $ty [$crate::wire_messages!(@max $($max)?)], )* )
            ]]
            $($($rest)*)?
        );
    };
    // One tuple row.
    (@rows $head:tt $lt:lifetime
        { $( $(#[$hdoc:meta])* $h:ident: $hty:ty )? }
        [$($done:tt)*]
        $(#[$vdoc:meta])* $var:ident = $tag:literal (
            $( $(#[$fdoc:meta])* $f:ident: $ty:ty $([max $max:expr])? ),* $(,)?
        )
        $(, $($rest:tt)*)?
    ) => {
        $crate::wire_messages!(@rows $head $lt
            { $( $(#[$hdoc])* $h: $hty )? }
            [$($done)* [
                [$(#[$vdoc])*] $var $tag
                ( $( $(#[$hdoc])* $hty, )? $( $(#[$fdoc])* $ty, )* )
                (
                    $( $(#[$hdoc])* <$hty as $crate::wire::Field>::Ref<$lt>, )?
                    $( $(#[$fdoc])* <$ty as $crate::wire::Field>::Ref<$lt>, )*
                )
                ( $( $h, )? $( $f, )* )
                ( $( $h, )? .. )
                ( $( $h: $hty [usize::MAX], )? $( $f: $ty [$crate::wire_messages!(@max $($max)?)], )* )
            ]]
            $($($rest)*)?
        );
    };
    // Every row normalised: generate.
    (@rows [$(#[$meta:meta])* $vis:vis $name:ident [$(#[$bdoc:meta])* $bname:ident]] $lt:lifetime
        $header:tt
        [$([
            [$(#[$vdoc:meta])*] $var:ident $tag:literal $decl:tt $bdecl:tt $pat:tt $hpat:tt
            ( $( $f:ident: $ty:ty [$max:expr], )* )
        ])*]
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vdoc])* $var $decl, )*
        }

        $(#[$bdoc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis enum $bname<$lt> {
            $( $(#[$vdoc])* $var $bdecl, )*
        }

        const _: () = {
            let mut seen = [false; 256];
            $(
                assert!(!seen[$tag as usize], "two rows share a tag");
                seen[$tag as usize] = true;
            )*
        };

        impl<$lt> $bname<$lt> {
            /// Exact encoded size: the tag byte, then every field.
            #[inline]
            pub fn encoded_len(&self) -> usize {
                match self {
                    $( Self::$var $pat => 1 $( + $crate::wire::Encode::wire_len($f) )*, )*
                }
            }

            /// Appends the encoding: the tag byte, then every field in
            /// wire order. The table's one encoder: an owned message
            /// writes through its twin.
            #[inline]
            pub fn write(&self, w: &mut $crate::wire::Writer<'_>) {
                match self {
                    $( Self::$var $pat => {
                        w.u8($tag);
                        $( $crate::wire::Encode::write($f, w); )*
                    } )*
                }
            }

            /// Reads one message off `r`, leaving what follows it, with
            /// every field borrowed from the input. The table's one
            /// decoder: an owned message reads through its twin.
            #[inline]
            pub fn read_ref(r: &mut $crate::wire::Reader<$lt>) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.u8()? {
                    $( $tag => {
                        $( let $f = <$ty as $crate::wire::Field>::read_ref(r, $max)?; )*
                        Self::$var $pat
                    } )*
                    _ => return Err($crate::wire::WireError::UnknownTag),
                })
            }

            /// Parses one whole message, borrowing its fields from
            /// `bytes`; `None` on malformed input, an unknown tag or
            /// trailing bytes. Allocates nothing.
            pub fn decode_ref(bytes: &$lt [u8]) -> Option<Self> {
                let mut r = $crate::wire::Reader::new(bytes);
                let msg = Self::read_ref(&mut r).ok()?;
                r.finish().ok()?;
                Some(msg)
            }

            /// The owned message: each field copied out of the bytes it
            /// borrows.
            pub fn to_owned(self) -> $name {
                match self {
                    $( Self::$var $pat => {
                        $( let $f = <$ty as $crate::wire::Field>::from_ref($f); )*
                        $name::$var $pat
                    } )*
                }
            }
        }

        impl $name {
            /// The message with its fields borrowed: its twin, which it
            /// encodes through.
            #[inline]
            pub fn borrowed(&self) -> $bname<'_> {
                match self {
                    $( Self::$var $pat => {
                        $( let $f = <$ty as $crate::wire::Field>::borrowed($f); )*
                        $bname::$var $pat
                    } )*
                }
            }

            /// Exact encoded size: the tag byte, then every field.
            #[inline]
            pub fn encoded_len(&self) -> usize {
                self.borrowed().encoded_len()
            }

            /// Appends the encoding: the tag byte, then every field in
            /// wire order.
            #[inline]
            pub fn write(&self, w: &mut $crate::wire::Writer<'_>) {
                self.borrowed().write(w)
            }

            /// Serializes the message into one allocation of exactly
            /// its encoded size.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity(self.encoded_len());
                self.write(&mut $crate::wire::Writer::new(&mut out));
                out
            }

            /// Reads one message off `r`, leaving what follows it: its
            /// twin's read, then each field copied out.
            #[inline]
            pub fn read(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                $bname::read_ref(r).map($bname::to_owned)
            }

            /// Parses one whole message; `None` on malformed input, an
            /// unknown tag or trailing bytes. Nothing is copied until
            /// the whole message has parsed.
            pub fn decode(bytes: &[u8]) -> Option<Self> {
                $bname::decode_ref(bytes).map($bname::to_owned)
            }

            /// Boundary samples of every row: the `k`-th sample of a row
            /// gives each field its `k`-th edge, cycling.
            pub fn samples() -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    let n = 1usize $( .max(<$ty as $crate::wire::Field>::edges($max).len()) )*;
                    for _k in 0..n {
                        $( let $f = <$ty as $crate::wire::Field>::edge(_k, $max); )*
                        out.push(Self::$var $pat);
                    }
                )*
                out
            }

            /// A uniform draw over the rows, each field random.
            pub fn arbitrary(rng: &mut $crate::rng::SpecRng) -> Self {
                #[derive(Clone, Copy)]
                enum Row {
                    $($var),*
                }
                const ROWS: &[Row] = &[$(Row::$var),*];
                match ROWS[rng.index(ROWS.len())] {
                    $( Row::$var => {
                        $( let $f = <$ty as $crate::wire::Field>::arbitrary(rng, $max); )*
                        Self::$var $pat
                    } )*
                }
            }
        }

        $crate::wire_messages!(@header $name $bname $lt $header [$( $var $hpat )*]);
    };
    (@header $name:ident $bname:ident $lt:lifetime {} [$($var:ident $hpat:tt)*]) => {};
    (@header $name:ident $bname:ident $lt:lifetime
        { $(#[$hdoc:meta])* $h:ident: $hty:ty }
        [$($var:ident $hpat:tt)*]
    ) => {
        impl<$lt> $bname<$lt> {
            $(#[$hdoc])*
            pub fn id(&self) -> $hty {
                match self {
                    $( Self::$var $hpat => *$h, )*
                }
            }
        }

        impl $name {
            $(#[$hdoc])*
            pub fn id(&self) -> $hty {
                match self {
                    $( Self::$var $hpat => *$h, )*
                }
            }

            #[doc = concat!("Overwrites [`", stringify!($name), "::id`].")]
            pub fn set_id(&mut self, new: $hty) {
                match self {
                    $( Self::$var $hpat => *$h = new, )*
                }
            }

            #[doc = concat!("[`", stringify!($name), "::id`] of an encoded message, read without decoding the rest.")]
            pub fn peek_id(bytes: &[u8]) -> Option<$hty> {
                let mut r = $crate::wire::Reader::new(bytes);
                r.u8().ok()?;
                <$hty as $crate::wire::Field>::read(&mut r, usize::MAX).ok()
            }
        }
    };
    (@max) => { usize::MAX };
    (@max $max:expr) => { $max };
    // Entry: a table with a header, then one without.
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(#[$bdoc:meta])*
            borrowed $bname:ident<$lt:lifetime>
            header { $(#[$hdoc:meta])* id: $hty:ty $(,)? }
            $($rows:tt)*
        }
    ) => {
        $crate::wire_messages!(@rows [$(#[$meta])* $vis $name [$(#[$bdoc])* $bname]] $lt
            { $(#[$hdoc])* id: $hty } [] $($rows)*);
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(#[$bdoc:meta])*
            borrowed $bname:ident<$lt:lifetime>
            $($rows:tt)*
        }
    ) => {
        $crate::wire_messages!(@rows [$(#[$meta])* $vis $name [$(#[$bdoc])* $bname]] $lt {} [] $($rows)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut bytes = Vec::new();
        Writer::new(&mut bytes).u8(7).u16(0xbeef).u32(0xdead_beef).u64(u64::MAX);
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8);
        let mut d = Reader::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        d.finish().unwrap();
    }

    #[test]
    fn bytes_and_strings_round_trip() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.bytes(b"\x00\xff\x42").str("grüße / 你好").bytes(b"");
        vec![1u16, 0xffff].borrowed().write(&mut w);
        w.bytes_slot(2).copy_from_slice(b"ab");
        let mut d = Reader::new(&bytes);
        assert_eq!(d.bytes().unwrap(), b"\x00\xff\x42");
        assert_eq!(d.str().unwrap(), "grüße / 你好");
        assert_eq!(d.bytes().unwrap(), b"");
        assert_eq!(Vec::<u16>::read(&mut d, 2).unwrap(), [1, 0xffff]);
        assert_eq!(d.bytes().unwrap(), b"ab");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.u64(1).bytes(b"hello");
        vec![3u16, 4].borrowed().write(&mut w);
        for cut in 0..bytes.len() {
            let mut d = Reader::new(&bytes[..cut]);
            let r = d.u64().and_then(|_| d.bytes()).and_then(|_| Vec::<u16>::read(&mut d, 2));
            assert_eq!(r, Err(WireError::Truncated), "cut at {cut} must fail");
        }
    }

    #[test]
    fn malformed_input_is_an_error() {
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(Reader::new(&huge).bytes(), Err(WireError::LengthOverflow));
        assert_eq!(Vec::<u16>::read(&mut Reader::new(&huge), 64), Err(WireError::LengthOverflow));
        let mut bytes = Vec::new();
        Writer::new(&mut bytes).bytes(&[0xff, 0xfe]).u8(9);
        let mut d = Reader::new(&bytes);
        assert_eq!(d.str(), Err(WireError::BadUtf8));
        assert_eq!(d.finish(), Err(WireError::TrailingBytes));
    }

    crate::wire_messages! {
        /// A two-row table: one struct row, one tuple row.
        #[derive(Clone, Debug, PartialEq, Eq)]
        enum Dummy {
            /// `Dummy`, borrowed.
            borrowed DummyRef<'a>
            header {
                /// Leads every row.
                id: u64
            }
            /// A struct row with a bounded list.
            Named = 3 {
                /// A string.
                name: String,
                /// At most two entries.
                pairs: Vec<(String, Vec<u8>, u64)> [max 2],
            },
            /// A tuple row.
            Positional = 9 (small: u32, blob: Vec<u8>),
        }
    }

    #[test]
    fn a_table_generates_an_exact_codec() {
        let samples = Dummy::samples();
        // Rows in order, as many samples as the most edges a field has.
        assert_eq!(samples.len(), 8 + 7);
        assert!(matches!(samples[0], Dummy::Named { .. }) && matches!(samples[8], Dummy::Positional(..)));
        let mut rng = SpecRng::seeded(52);
        let drawn: Vec<Dummy> = (0..64).map(|_| Dummy::arbitrary(&mut rng)).collect();
        for m in samples.iter().chain(&drawn) {
            let bytes = m.encode();
            assert_eq!((m.encoded_len(), bytes.capacity()), (bytes.len(), bytes.len()), "{m:?}");
            assert_eq!(Dummy::decode(&bytes).as_ref(), Some(m));
            // The borrowed decode is the message's twin: its lists are
            // runs of the input, equal to the owned lists' items.
            let twin = DummyRef::decode_ref(&bytes);
            assert_eq!((twin, twin.map(DummyRef::to_owned).as_ref()), (Some(m.borrowed()), Some(m)));
            assert_eq!(Dummy::peek_id(&bytes), twin.map(|t| t.id()));
            assert_eq!(Dummy::peek_id(&bytes), Some(m.id()));
            for cut in 0..bytes.len() {
                assert_eq!(Dummy::decode(&bytes[..cut]), None, "{m:?} cut at {cut}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert_eq!(Dummy::decode(&long), None, "{m:?} with a trailing byte");
            let mut other = bytes;
            for tag in [0, 1, 4, 8, 10, 0xff] {
                other[0] = tag;
                assert_eq!(Dummy::read(&mut Reader::new(&other)), Err(WireError::UnknownTag));
            }
        }
        let mut m = Dummy::Positional(7, 1, vec![2]);
        m.set_id(5);
        assert_eq!(m.encode(), [9, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2]);
        // The list's bound is the row's: three entries do not decode.
        let three = vec![(String::new(), vec![], 0); 3];
        let over = Dummy::Named { id: 1, name: String::new(), pairs: three };
        assert_eq!(Dummy::decode(&over.encode()), None);
    }
}
