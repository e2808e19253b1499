//! The one binary codec behind every checkpoint byte: a forecaster's
//! canonical state ([`crate::ForecasterState::encode_into`]), a session
//! snapshot frame and a fleet archive (`foreco-serve`'s `snapshot` and
//! `archive` modules) all write with these `put_*` functions and read
//! through one bounds-checked [`Reader`].
//!
//! Every value is little endian; a `usize` travels as a `u64` word, an
//! `f64` as its raw [`f64::to_bits`] word (bit-lossless, `-0.0` and NaN
//! payloads included), a `bool` as one byte `0`/`1`, an optional field
//! as a presence byte `0`/`1` and, when present, the field
//! ([`put_opt`], [`Reader::opt`]), a row as a `u64` count followed by
//! its words, and a byte string as a `u64` length followed by its bytes.
//! Domain types (fates, channels, driver state, …) are composed from
//! these primitives by the crates that own them.
//!
//! Reading never panics: every read is bounds-checked (offsets
//! overflow-checked too), every count is capped against the remaining
//! bytes before it can become an allocation ([`Reader::len`]), and every
//! malformed shape is a typed [`StateCodecError`].

/// Why decoding failed. Every malformed input maps to exactly one
/// variant; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateCodecError {
    /// Fewer bytes than the layout requires.
    Truncated {
        /// Bytes required to read the next field.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// An unassigned tag byte where a discriminant or flag was expected.
    BadTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The byte found.
        found: u8,
    },
    /// A count larger than the remaining bytes could hold (or than
    /// `usize` can express), rejected before it becomes an allocation.
    Oversized {
        /// Which field declared it.
        what: &'static str,
        /// The declared count.
        declared: u64,
        /// The most the remaining bytes could hold.
        limit: u64,
    },
    /// Bytes left over after one complete state.
    TrailingBytes {
        /// Length of the decoded state.
        expect: usize,
        /// Bytes present.
        got: usize,
    },
}

impl std::fmt::Display for StateCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateCodecError::Truncated { need, got } => {
                write!(
                    f,
                    "forecaster state truncated: need {need} bytes, got {got}"
                )
            }
            StateCodecError::BadTag { what, found } => {
                write!(f, "forecaster state: bad tag {found:#04x} for {what}")
            }
            StateCodecError::Oversized {
                what,
                declared,
                limit,
            } => write!(
                f,
                "forecaster state: oversized {what}: {declared} declared, at most {limit} possible"
            ),
            StateCodecError::TrailingBytes { expect, got } => write!(
                f,
                "forecaster state: trailing bytes: state is {expect}, buffer holds {got}"
            ),
        }
    }
}

impl std::error::Error for StateCodecError {}

/// Appends one byte.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a `u64` word.
#[inline]
pub fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Appends an `f64` as its raw bit pattern.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `bool` as one byte, `0` or `1`.
#[inline]
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Appends a presence byte and, when present, what `put` writes.
#[inline]
pub fn put_opt<T>(buf: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => put_u8(buf, 0),
        Some(v) => {
            put_u8(buf, 1);
            put(buf, v);
        }
    }
}

/// Appends a presence byte and, when present, the word.
#[inline]
pub fn put_opt_f64(buf: &mut Vec<u8>, v: Option<f64>) {
    put_opt(buf, v, put_f64);
}

/// Appends a row: its length, then its words.
#[inline]
pub fn put_row(buf: &mut Vec<u8>, row: &[f64]) {
    put_usize(buf, row.len());
    for &v in row {
        put_f64(buf, v);
    }
}

/// Appends a row count, then each row.
#[inline]
pub fn put_rows(buf: &mut Vec<u8>, rows: &[Vec<f64>]) {
    put_usize(buf, rows.len());
    for row in rows {
        put_row(buf, row);
    }
}

/// Appends a byte string: its length, then its bytes.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_usize(buf, bytes.len());
    buf.extend_from_slice(bytes);
}

/// Appends what `body` writes as a byte string, back-patching the
/// length word once the body is written (no intermediate buffer).
#[inline]
pub fn put_prefixed(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    put_u64(buf, 0);
    body(buf);
    let len = (buf.len() - at - 8) as u64;
    buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Bounds-checked cursor over encoded bytes (see the module docs).
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StateCodecError> {
        match self.pos.checked_add(n) {
            Some(end) if end <= self.buf.len() => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            _ => Err(StateCodecError::Truncated {
                need: self.pos.saturating_add(n),
                got: self.buf.len(),
            }),
        }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, StateCodecError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, StateCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, StateCodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// An `f64` from its raw bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, StateCodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` word that must fit a `usize`.
    #[inline]
    pub fn usize(&mut self, what: &'static str) -> Result<usize, StateCodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StateCodecError::Oversized {
            what,
            declared: v,
            limit: usize::MAX as u64,
        })
    }

    /// A `bool` byte.
    #[inline]
    pub fn bool(&mut self, what: &'static str) -> Result<bool, StateCodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            found => Err(StateCodecError::BadTag { what, found }),
        }
    }

    /// A presence byte naming `what` and, when present, what `read`
    /// reads (written by [`put_opt`]). Generic over the reader's error
    /// so a caller's domain reader nests.
    #[inline]
    pub fn opt<T, E: From<StateCodecError>>(
        &mut self,
        what: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            found => Err(StateCodecError::BadTag { what, found }.into()),
        }
    }

    /// An optional `f64`: a presence byte and, when present, the word.
    #[inline]
    pub fn opt_f64(&mut self) -> Result<Option<f64>, StateCodecError> {
        self.opt("optional f64", Self::f64)
    }

    /// A `u64` count whose elements each occupy at least `elem_min`
    /// bytes of the rest of the input: the sanity cap that turns a
    /// corrupted count into [`StateCodecError::Oversized`] instead of a
    /// multi-gigabyte allocation.
    #[inline]
    pub fn len(&mut self, what: &'static str, elem_min: usize) -> Result<usize, StateCodecError> {
        let declared = self.u64()?;
        let limit = (self.remaining() / elem_min.max(1)) as u64;
        if declared > limit {
            return Err(StateCodecError::Oversized {
                what,
                declared,
                limit,
            });
        }
        Ok(declared as usize)
    }

    /// A byte string written by [`put_bytes`] or [`put_prefixed`].
    #[inline]
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], StateCodecError> {
        let n = self.len(what, 1)?;
        self.take(n)
    }

    /// A row written by [`put_row`].
    #[inline]
    pub fn row(&mut self) -> Result<Vec<f64>, StateCodecError> {
        let n = self.len("joint row", 8)?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.f64()?);
        }
        Ok(row)
    }

    /// Rows written by [`put_rows`].
    #[inline]
    pub fn rows(&mut self) -> Result<Vec<Vec<f64>>, StateCodecError> {
        let n = self.len("command rows", 8)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(self.row()?);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One record holding every primitive: each field's writer, then the
    /// matching read.
    fn record() -> Vec<u8> {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_usize(&mut buf, 42);
        put_f64(&mut buf, -0.0);
        put_bool(&mut buf, true);
        put_opt_f64(&mut buf, None);
        put_opt(&mut buf, Some(5u32), put_u32);
        put_opt_f64(&mut buf, Some(f64::from_bits(0x7ff8_0000_0000_0001)));
        put_row(&mut buf, &[1.5, -2.5]);
        put_rows(&mut buf, &[vec![], vec![3.0]]);
        put_bytes(&mut buf, b"ab");
        put_prefixed(&mut buf, |buf| put_u32(buf, 9));
        buf
    }

    fn read_record(bytes: &[u8]) -> Result<Reader<'_>, StateCodecError> {
        let mut r = Reader::new(bytes);
        assert_eq!(r.u8()?, 7);
        assert_eq!(r.u32()?, 0xdead_beef);
        assert_eq!(r.u64()?, u64::MAX - 1);
        assert_eq!(r.usize("usize")?, 42);
        assert_eq!(r.f64()?.to_bits(), (-0.0f64).to_bits());
        assert!(r.bool("bool")?);
        assert_eq!(r.opt_f64()?, None);
        assert_eq!(r.opt("opt", Reader::u32)?, Some(5));
        assert_eq!(r.opt_f64()?.map(f64::to_bits), Some(0x7ff8_0000_0000_0001));
        assert_eq!(r.row()?, [1.5, -2.5]);
        assert_eq!(r.rows()?, [vec![], vec![3.0]]);
        assert_eq!(r.bytes("bytes")?, b"ab");
        assert_eq!(r.bytes("prefixed")?, 9u32.to_le_bytes());
        Ok(r)
    }

    #[test]
    fn every_primitive_round_trips_bit_exactly() {
        let bytes = record();
        let r = read_record(&bytes).expect("whole record decodes");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.pos(), bytes.len());
    }

    #[test]
    fn every_prefix_is_a_typed_error() {
        let bytes = record();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    read_record(&bytes[..cut]),
                    Err(StateCodecError::Truncated { .. } | StateCodecError::Oversized { .. })
                ),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn take_never_overflows_the_offset() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(
            r.take(usize::MAX),
            Err(StateCodecError::Truncated {
                need: usize::MAX,
                got: 3
            })
        );
        assert_eq!(r.pos(), 1, "a failed take consumes nothing");
        assert_eq!(r.take(2), Ok(&[2u8, 3][..]));
    }

    #[test]
    fn len_caps_a_count_by_the_remaining_bytes() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 3);
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(Reader::new(&buf).len("words", 8), Ok(3));
        assert_eq!(
            Reader::new(&buf).len("words", 9),
            Err(StateCodecError::Oversized {
                what: "words",
                declared: 3,
                limit: 2
            })
        );
        buf[..8].copy_from_slice(&4u64.to_le_bytes());
        assert!(matches!(
            Reader::new(&buf).len("words", 8),
            Err(StateCodecError::Oversized {
                declared: 4,
                limit: 3,
                ..
            })
        ));
        assert_eq!(Reader::new(&buf).len("bytes", 0), Ok(4), "elem_min 0 is 1");
    }

    #[test]
    fn flag_bytes_above_one_are_bad_tags() {
        for found in [2u8, 0x80, 0xff] {
            assert_eq!(
                Reader::new(&[found]).bool("flag"),
                Err(StateCodecError::BadTag {
                    what: "flag",
                    found
                })
            );
            assert_eq!(
                Reader::new(&[found, 0, 0, 0, 0, 0, 0, 0, 0]).opt_f64(),
                Err(StateCodecError::BadTag {
                    what: "optional f64",
                    found
                })
            );
        }
    }
}
