//! `dtrack-wire`: a length-prefixed frame codec for protocol messages.
//!
//! Every site↔coordinator message in the simulator is an in-memory Rust
//! value today. This crate defines the wire shape those values would take
//! across a process or network boundary; dtrack-testkit's
//! `wire_roundtrip.rs` proptests decode∘encode = id for every protocol
//! message kind. When sites and coordinator move to separate processes,
//! the transport swaps; the codec stays.
//!
//! # Frame format (version 1)
//!
//! ```text
//! [len: u32 LE]          length of everything after this field
//! [magic: b"DW"]         2 bytes
//! [version: u8]          currently 1
//! [dir: u8]              0 = Up (site -> coordinator), 1 = Down
//! -- dir == Up --
//! [origin: u32 LE]       sending site index
//! [msg bytes]            WireMessage payload
//! -- dir == Down --
//! [dest: u8]             0 = unicast, 1 = broadcast
//! [site: u32 LE]         present only when dest == 0
//! [msg bytes]            WireMessage payload
//! ```
//!
//! All integers are little-endian. Decoding is total: malformed input of
//! any shape yields a typed [`DecodeError`] carrying the byte offset of
//! the fault, never a panic. Vector lengths are sanity-checked against the
//! bytes actually remaining in the frame before any allocation, so a
//! corrupt length prefix cannot trigger an OOM.

use std::sync::atomic::{AtomicU64, Ordering};

/// Frame magic: the two bytes `b"DW"`.
pub const MAGIC: [u8; 2] = [b'D', b'W'];

/// Current frame-format version.
pub const VERSION: u8 = 1;

const DIR_UP: u8 = 0;
const DIR_DOWN: u8 = 1;
const DEST_SITE: u8 = 0;
const DEST_BROADCAST: u8 = 1;

/// A typed decoding failure. Every variant locates the fault by byte
/// offset from the start of the frame (including the 4-byte length
/// prefix), so transport-layer logs can point at the corrupt bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame ended before `need` more bytes could be read at `offset`.
    Truncated { need: usize, offset: usize },
    /// The frame's declared length does not match the bytes supplied.
    BadLength { declared: usize, actual: usize },
    /// The two magic bytes were not `b"DW"`.
    BadMagic { found: [u8; 2] },
    /// The frame version is not one this decoder understands.
    BadVersion { found: u8 },
    /// A tag byte (direction, destination, enum discriminant, bool) held
    /// a value outside its domain.
    BadTag {
        context: &'static str,
        tag: u8,
        offset: usize,
    },
    /// A vector length prefix declared more elements than the remaining
    /// frame bytes could possibly hold.
    BadVecLen {
        declared: usize,
        remaining: usize,
        offset: usize,
    },
    /// A frame claimed to carry a message type that has no values
    /// (e.g. a `Down` frame for a protocol whose sites are never
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
                    "frame truncated: need {need} more byte(s) at offset {offset}"
                )
            }
            DecodeError::BadLength { declared, actual } => {
                write!(
                    f,
                    "frame length mismatch: header declares {declared} byte(s), got {actual}"
                )
            }
            DecodeError::BadMagic { found } => {
                write!(f, "bad frame magic: {found:?}")
            }
            DecodeError::BadVersion { found } => {
                write!(f, "unsupported frame version {found}")
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
                    "frame at offset {offset} claims uninhabited message type {kind}"
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

/// Destination of a downstream frame, mirroring the simulator's
/// `Down::{Unicast, Broadcast}` without depending on `dtrack-sim`
/// (the dependency points the other way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Deliver to one site, by index.
    Site(u32),
    /// Deliver to every site.
    Broadcast,
}

/// A decoded frame: either an upstream message with its origin site or a
/// downstream message with its destination.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<U, D> {
    /// Site -> coordinator.
    Up { origin: u32, msg: U },
    /// Coordinator -> site(s).
    Down { dest: Dest, msg: D },
}

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

/// A bounds-checked cursor over a frame's bytes. All reads carry the
/// absolute byte offset into their error, and none of them panic.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current absolute offset into the frame.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
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

    /// Read a tag byte, labelling any error with `context` (e.g. the enum
    /// being decoded).
    pub fn tag(&mut self, context: &'static str) -> Result<(u8, usize), DecodeError> {
        let offset = self.pos;
        let tag = self
            .u8()
            .map_err(|_| DecodeError::Truncated { need: 1, offset })?;
        let _ = context;
        Ok((tag, offset))
    }

    /// Read a vector length prefix, verifying that `len * elem_bytes`
    /// cannot exceed the remaining frame before any allocation happens.
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

fn frame_header(dir: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&[0, 0, 0, 0]);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(dir);
    out
}

fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Encode an upstream message from site `origin` into a complete frame.
pub fn encode_up<U: WireMessage>(origin: u32, msg: &U) -> Vec<u8> {
    let mut out = frame_header(DIR_UP);
    put_u32(&mut out, origin);
    msg.wire_encode(&mut out);
    seal(out)
}

/// Encode a downstream message for `dest` into a complete frame.
pub fn encode_down<D: WireMessage>(dest: Dest, msg: &D) -> Vec<u8> {
    let mut out = frame_header(DIR_DOWN);
    match dest {
        Dest::Site(site) => {
            put_u8(&mut out, DEST_SITE);
            put_u32(&mut out, site);
        }
        Dest::Broadcast => put_u8(&mut out, DEST_BROADCAST),
    }
    msg.wire_encode(&mut out);
    seal(out)
}

/// Decode one complete frame into either an `Up` or a `Down` message.
/// Rejects short/overlong input, bad magic, unknown versions, unknown
/// direction or destination tags, and trailing bytes.
pub fn decode<U: WireMessage, D: WireMessage>(frame: &[u8]) -> Result<Frame<U, D>, DecodeError> {
    let mut r = WireReader::new(frame);
    let declared = r.u32()? as usize;
    if declared != frame.len() - 4 {
        return Err(DecodeError::BadLength {
            declared,
            actual: frame.len() - 4,
        });
    }
    let magic = r.take(2)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic {
            found: [magic[0], magic[1]],
        });
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion { found: version });
    }
    let (dir, dir_off) = r.tag("direction")?;
    let out = match dir {
        DIR_UP => {
            let origin = r.u32()?;
            let msg = U::wire_decode(&mut r)?;
            Frame::Up { origin, msg }
        }
        DIR_DOWN => {
            let (dest_tag, dest_off) = r.tag("destination")?;
            let dest = match dest_tag {
                DEST_SITE => Dest::Site(r.u32()?),
                DEST_BROADCAST => Dest::Broadcast,
                tag => {
                    return Err(DecodeError::BadTag {
                        context: "destination",
                        tag,
                        offset: dest_off,
                    })
                }
            };
            let msg = D::wire_decode(&mut r)?;
            Frame::Down { dest, msg }
        }
        tag => {
            return Err(DecodeError::BadTag {
                context: "direction",
                tag,
                offset: dir_off,
            })
        }
    };
    if r.remaining() != 0 {
        return Err(DecodeError::Trailing {
            unread: r.remaining(),
            offset: r.offset(),
        });
    }
    Ok(out)
}

/// An in-memory loopback transport: every message is encoded to a full
/// frame and decoded back before delivery, with per-direction frame and
/// byte counters. This is the stand-in for a socket; no runtime routes
/// traffic through it today.
#[derive(Debug, Default)]
pub struct Loopback {
    frames_up: AtomicU64,
    frames_down: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
}

/// A snapshot of [`Loopback`] traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Upstream frames carried.
    pub frames_up: u64,
    /// Downstream frames carried.
    pub frames_down: u64,
    /// Total upstream frame bytes, length prefix included.
    pub bytes_up: u64,
    /// Total downstream frame bytes, length prefix included.
    pub bytes_down: u64,
}

impl Loopback {
    /// Create a transport with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Carry one upstream message: encode to a frame, decode it back, and
    /// return the reconstructed origin + message.
    pub fn roundtrip_up<U: WireMessage>(
        &self,
        origin: u32,
        msg: &U,
    ) -> Result<(u32, U), DecodeError> {
        self.roundtrip_up_sized(origin, msg)
            .map(|(origin, msg, _)| (origin, msg))
    }

    /// [`Self::roundtrip_up`] plus the carried frame's byte length
    /// (length prefix included) — the tracing layer's per-frame size
    /// source.
    pub fn roundtrip_up_sized<U: WireMessage>(
        &self,
        origin: u32,
        msg: &U,
    ) -> Result<(u32, U, u64), DecodeError> {
        let frame = encode_up(origin, msg);
        let bytes = frame.len() as u64;
        self.frames_up.fetch_add(1, Ordering::SeqCst);
        self.bytes_up.fetch_add(bytes, Ordering::SeqCst);
        match decode::<U, Unreachable>(&frame)? {
            Frame::Up { origin, msg } => Ok((origin, msg, bytes)),
            Frame::Down { .. } => Err(DecodeError::BadTag {
                context: "direction",
                tag: DIR_DOWN,
                offset: 7,
            }),
        }
    }

    /// Carry one downstream message: encode to a frame, decode it back,
    /// and return the reconstructed destination + message.
    pub fn roundtrip_down<D: WireMessage>(
        &self,
        dest: Dest,
        msg: &D,
    ) -> Result<(Dest, D), DecodeError> {
        self.roundtrip_down_sized(dest, msg)
            .map(|(dest, msg, _)| (dest, msg))
    }

    /// [`Self::roundtrip_down`] plus the carried frame's byte length
    /// (length prefix included).
    pub fn roundtrip_down_sized<D: WireMessage>(
        &self,
        dest: Dest,
        msg: &D,
    ) -> Result<(Dest, D, u64), DecodeError> {
        let frame = encode_down(dest, msg);
        let bytes = frame.len() as u64;
        self.frames_down.fetch_add(1, Ordering::SeqCst);
        self.bytes_down.fetch_add(bytes, Ordering::SeqCst);
        match decode::<Unreachable, D>(&frame)? {
            Frame::Down { dest, msg } => Ok((dest, msg, bytes)),
            Frame::Up { .. } => Err(DecodeError::BadTag {
                context: "direction",
                tag: DIR_UP,
                offset: 7,
            }),
        }
    }

    /// Snapshot the traffic counters.
    pub fn stats(&self) -> WireStats {
        WireStats {
            frames_up: self.frames_up.load(Ordering::SeqCst),
            frames_down: self.frames_down.load(Ordering::SeqCst),
            bytes_up: self.bytes_up.load(Ordering::SeqCst),
            bytes_down: self.bytes_down.load(Ordering::SeqCst),
        }
    }
}

/// Helper type for directions a loopback call cannot produce; decoding it
/// is always an error.
#[derive(Debug, Clone, PartialEq)]
enum Unreachable {}

impl WireMessage for Unreachable {
    fn wire_encode(&self, _out: &mut Vec<u8>) {
        match *self {}
    }
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Err(DecodeError::Uninhabited {
            kind: "wire/unreachable",
            offset: r.offset(),
        })
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
            let (tag, offset) = r.tag("TestMsg")?;
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
    fn up_frames_roundtrip() {
        for msg in sample() {
            let frame = encode_up(42, &msg);
            match decode::<TestMsg, TestMsg>(&frame) {
                Ok(Frame::Up { origin, msg: back }) => {
                    assert_eq!(origin, 42);
                    assert_eq!(back, msg);
                }
                other => panic!("expected Up frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn down_frames_roundtrip_both_dests() {
        for msg in sample() {
            for dest in [Dest::Site(3), Dest::Broadcast] {
                let frame = encode_down(dest, &msg);
                match decode::<TestMsg, TestMsg>(&frame) {
                    Ok(Frame::Down { dest: d, msg: back }) => {
                        assert_eq!(d, dest);
                        assert_eq!(back, msg);
                    }
                    other => panic!("expected Down frame, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let frame = encode_up(
            9,
            &TestMsg::Batch {
                id: 1,
                counts: vec![5, 6],
                left: true,
            },
        );
        for cut in 0..frame.len() {
            let err = decode::<TestMsg, TestMsg>(&frame[..cut]);
            assert!(err.is_err(), "truncation at {cut} decoded: {err:?}");
        }
    }

    #[test]
    fn corrupt_headers_are_typed() {
        let good = encode_down(Dest::Site(1), &TestMsg::Sig);

        let mut bad = good.clone();
        bad[4] = b'X';
        assert!(matches!(
            decode::<TestMsg, TestMsg>(&bad),
            Err(DecodeError::BadMagic { .. })
        ));

        let mut bad = good.clone();
        bad[6] = 99;
        assert!(matches!(
            decode::<TestMsg, TestMsg>(&bad),
            Err(DecodeError::BadVersion { found: 99 })
        ));

        let mut bad = good.clone();
        bad[7] = 5;
        assert!(matches!(
            decode::<TestMsg, TestMsg>(&bad),
            Err(DecodeError::BadTag {
                context: "direction",
                tag: 5,
                ..
            })
        ));

        let mut bad = good.clone();
        bad[8] = 9;
        assert!(matches!(
            decode::<TestMsg, TestMsg>(&bad),
            Err(DecodeError::BadTag {
                context: "destination",
                tag: 9,
                ..
            })
        ));

        let mut bad = good.clone();
        bad[0] = bad[0].wrapping_add(1);
        assert!(matches!(
            decode::<TestMsg, TestMsg>(&bad),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn oversized_vec_len_rejected_before_allocation() {
        // Hand-build a Batch frame whose vec length prefix claims far more
        // elements than the frame holds.
        let mut out = frame_header(DIR_UP);
        put_u32(&mut out, 0); // origin
        put_u8(&mut out, 2); // Batch tag
        put_u32(&mut out, 1); // id
        put_u32(&mut out, u32::MAX); // absurd vec length
        let frame = seal(out);
        assert!(matches!(
            decode::<TestMsg, TestMsg>(&frame),
            Err(DecodeError::BadVecLen { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = encode_up(0, &TestMsg::Sig);
        frame.push(0xAB);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode::<TestMsg, TestMsg>(&frame),
            Err(DecodeError::Trailing { unread: 1, .. })
        ));
    }

    #[test]
    fn loopback_counts_traffic_and_preserves_messages() {
        let lb = Loopback::new();
        let (origin, up) = lb.roundtrip_up(5, &TestMsg::Delta(17)).unwrap();
        assert_eq!((origin, up), (5, TestMsg::Delta(17)));
        let (dest, down) = lb.roundtrip_down(Dest::Broadcast, &TestMsg::Sig).unwrap();
        assert_eq!(dest, Dest::Broadcast);
        assert_eq!(down, TestMsg::Sig);
        let stats = lb.stats();
        assert_eq!(stats.frames_up, 1);
        assert_eq!(stats.frames_down, 1);
        assert!(stats.bytes_up > 8 && stats.bytes_down > 8);
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
            // Pin the declared length to the actual length half the time so
            // decoding gets past the header checks.
            if len >= 4 && len % 2 == 0 {
                let l = (len - 4) as u32;
                buf[..4].copy_from_slice(&l.to_le_bytes());
            }
            let _ = decode::<TestMsg, TestMsg>(&buf);
        }
    }
}
