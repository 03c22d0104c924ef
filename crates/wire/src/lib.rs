//! `dtrack-wire`: a binary codec for protocol messages.
//!
//! Every site↔coordinator message in the simulator is an in-memory Rust
//! value, and every cost the simulator reports is a sum of hand-written
//! `MessageSize::size_words` counts. This crate gives each message a
//! concrete byte encoding, so those counts can be checked against real
//! bytes: dtrack-testkit's `wire_roundtrip.rs` proptests decode∘encode =
//! id for every protocol message kind and bounds each encoding by its
//! metered words (DESIGN.md, "The wire codec").
//!
//! A message encodes field by field: integers little-endian, one tag byte
//! per enum, `Option` or bool, and a `u32` length prefix per vector.
//! Decoding is total: malformed input of any shape yields a typed
//! [`DecodeError`] carrying the byte offset of the fault, never a panic.
//! Vector lengths are sanity-checked against the bytes actually remaining
//! before any allocation, so a corrupt length prefix cannot trigger an
//! OOM.

/// A typed decoding failure. Every variant locates the fault by byte
/// offset from the start of the encoded message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before `need` more bytes could be read at `offset`.
    Truncated { need: usize, offset: usize },
    /// A tag byte (enum discriminant, `Option` or bool) held a value
    /// outside its domain.
    BadTag {
        context: &'static str,
        tag: u8,
        offset: usize,
    },
    /// A vector length prefix declared more elements than the remaining
    /// bytes could possibly hold.
    BadVecLen {
        declared: usize,
        remaining: usize,
        offset: usize,
    },
    /// The input claimed to carry a message type that has no values
    /// (e.g. a downstream message for a protocol whose sites are never
    /// messaged).
    Uninhabited { kind: &'static str, offset: usize },
    /// The message decoded cleanly but bytes were left over.
    Trailing { unread: usize, offset: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { need, offset } => {
                write!(
                    f,
                    "message truncated: need {need} more byte(s) at offset {offset}"
                )
            }
            DecodeError::BadTag {
                context,
                tag,
                offset,
            } => {
                write!(f, "bad {context} tag {tag} at offset {offset}")
            }
            DecodeError::BadVecLen {
                declared,
                remaining,
                offset,
            } => {
                write!(
                    f,
                    "vector length {declared} at offset {offset} exceeds {remaining} remaining byte(s)"
                )
            }
            DecodeError::Uninhabited { kind, offset } => {
                write!(
                    f,
                    "bytes at offset {offset} claim uninhabited message type {kind}"
                )
            }
            DecodeError::Trailing { unread, offset } => {
                write!(
                    f,
                    "{unread} trailing byte(s) after message at offset {offset}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A value that can cross the wire. Implementations must be exact
/// inverses: `wire_decode(wire_encode(x)) == x` for every value, a
/// property pinned by proptest roundtrips in the testkit.
pub trait WireMessage: Sized {
    /// Append this value's wire bytes to `out`.
    fn wire_encode(&self, out: &mut Vec<u8>);

    /// Read one value back from the cursor, or report where the bytes
    /// went wrong.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError>;
}

/// Encode one message.
pub fn encode<M: WireMessage>(msg: &M) -> Vec<u8> {
    let mut out = Vec::new();
    msg.wire_encode(&mut out);
    out
}

/// Decode exactly one message from `bytes`, rejecting trailing bytes.
pub fn decode<M: WireMessage>(bytes: &[u8]) -> Result<M, DecodeError> {
    let mut r = WireReader::new(bytes);
    let msg = M::wire_decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::Trailing {
            unread: r.remaining(),
            offset: r.offset(),
        });
    }
    Ok(msg)
}

/// A bounds-checked cursor over a message's bytes, handed to
/// [`WireMessage::wire_decode`] by [`decode`]. All reads carry the
/// absolute byte offset into their error, and none of them panic.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current absolute offset into the input.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                need: n - self.remaining(),
                offset: self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Read a bool encoded as a `0`/`1` byte.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        let offset = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag {
                context: "bool",
                tag,
                offset,
            }),
        }
    }

    /// Read an enum tag byte together with its offset, which the caller
    /// reports in a [`DecodeError::BadTag`] when the tag is unknown.
    pub fn tag(&mut self) -> Result<(u8, usize), DecodeError> {
        let offset = self.pos;
        Ok((self.u8()?, offset))
    }

    /// Read a vector length prefix, verifying that `len * elem_bytes`
    /// cannot exceed the remaining input before any allocation happens.
    pub fn vec_len(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let offset = self.pos;
        let declared = self.u32()? as usize;
        let remaining = self.remaining();
        if declared.saturating_mul(elem_bytes) > remaining {
            return Err(DecodeError::BadVecLen {
                declared,
                remaining,
                offset,
            });
        }
        Ok(declared)
    }

    /// Read a length-prefixed `Vec<u64>`.
    pub fn vec_u64(&mut self) -> Result<Vec<u64>, DecodeError> {
        let len = self.vec_len(8)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    /// Read a length-prefixed `Vec<u32>`.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, DecodeError> {
        let len = self.vec_len(4)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.u32()?);
        }
        Ok(v)
    }
}

/// Append one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a bool as a `0`/`1` byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Append a length-prefixed `&[u64]`.
pub fn put_vec_u64(out: &mut Vec<u8>, v: &[u64]) {
    put_u32(out, v.len() as u32);
    for x in v {
        put_u64(out, *x);
    }
}

/// Append a length-prefixed `&[u32]`.
pub fn put_vec_u32(out: &mut Vec<u8>, v: &[u32]) {
    put_u32(out, v.len() as u32);
    for x in v {
        put_u32(out, *x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum TestMsg {
        Sig,
        Delta(u64),
        Batch {
            id: u32,
            counts: Vec<u64>,
            left: bool,
        },
    }

    impl WireMessage for TestMsg {
        fn wire_encode(&self, out: &mut Vec<u8>) {
            match self {
                TestMsg::Sig => put_u8(out, 0),
                TestMsg::Delta(d) => {
                    put_u8(out, 1);
                    put_u64(out, *d);
                }
                TestMsg::Batch { id, counts, left } => {
                    put_u8(out, 2);
                    put_u32(out, *id);
                    put_vec_u64(out, counts);
                    put_bool(out, *left);
                }
            }
        }
        fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
            let (tag, offset) = r.tag()?;
            match tag {
                0 => Ok(TestMsg::Sig),
                1 => Ok(TestMsg::Delta(r.u64()?)),
                2 => Ok(TestMsg::Batch {
                    id: r.u32()?,
                    counts: r.vec_u64()?,
                    left: r.bool()?,
                }),
                tag => Err(DecodeError::BadTag {
                    context: "TestMsg",
                    tag,
                    offset,
                }),
            }
        }
    }

    fn sample() -> Vec<TestMsg> {
        vec![
            TestMsg::Sig,
            TestMsg::Delta(0),
            TestMsg::Delta(u64::MAX),
            TestMsg::Batch {
                id: 7,
                counts: vec![],
                left: false,
            },
            TestMsg::Batch {
                id: u32::MAX,
                counts: vec![1, 2, 3, u64::MAX],
                left: true,
            },
        ]
    }

    #[test]
    fn messages_roundtrip() {
        for msg in sample() {
            assert_eq!(decode::<TestMsg>(&encode(&msg)), Ok(msg));
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode(&TestMsg::Batch {
            id: 1,
            counts: vec![5, 6],
            left: true,
        });
        for cut in 0..bytes.len() {
            let err = decode::<TestMsg>(&bytes[..cut]);
            assert!(err.is_err(), "truncation at {cut} decoded: {err:?}");
        }
    }

    #[test]
    fn bad_tags_are_typed() {
        assert_eq!(
            decode::<TestMsg>(&[9]),
            Err(DecodeError::BadTag {
                context: "TestMsg",
                tag: 9,
                offset: 0,
            })
        );
        let mut bad = encode(&TestMsg::Batch {
            id: 1,
            counts: vec![],
            left: true,
        });
        let last = bad.len() - 1;
        bad[last] = 2;
        assert_eq!(
            decode::<TestMsg>(&bad),
            Err(DecodeError::BadTag {
                context: "bool",
                tag: 2,
                offset: last,
            })
        );
    }

    #[test]
    fn oversized_vec_len_rejected_before_allocation() {
        // Hand-build a Batch whose vec length prefix claims far more
        // elements than the input holds.
        let mut bytes = Vec::new();
        put_u8(&mut bytes, 2); // Batch tag
        put_u32(&mut bytes, 1); // id
        put_u32(&mut bytes, u32::MAX); // absurd vec length
        assert!(matches!(
            decode::<TestMsg>(&bytes),
            Err(DecodeError::BadVecLen { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&TestMsg::Sig);
        bytes.push(0xAB);
        assert_eq!(
            decode::<TestMsg>(&bytes),
            Err(DecodeError::Trailing {
                unread: 1,
                offset: 1,
            })
        );
    }

    #[test]
    fn garbage_never_panics() {
        // Deterministic pseudo-random garbage: splitmix64 stream.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for len in 0..64 {
            let mut buf = vec![0u8; len];
            for b in buf.iter_mut() {
                *b = next() as u8;
            }
            // Pin a valid Batch tag half the time so decoding gets past
            // the tag into the length prefix and the fields behind it.
            if len >= 1 && len % 2 == 0 {
                buf[0] = 2;
            }
            let _ = decode::<TestMsg>(&buf);
        }
    }
}
