//! The framed wire protocol: a little-endian, length-prefixed codec for
//! everything that crosses the coordinator↔worker boundary.
//!
//! The in-process backends move typed values through channels and only
//! *estimate* their serialized size ([`crate::MessageSize`]). This module is
//! the real thing: every message can be encoded into a self-delimiting
//! **frame** and decoded back, so workers can live in other OS processes (or
//! hosts) and the byte accounting can report *actual* wire bytes instead of
//! estimates.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"GW"
//! 2       1     protocol version (currently 2)
//! 3       1     message tag (assigned by the message layer)
//! 4       4     run epoch, u32 little-endian (0 outside recovery)
//! 8       4     payload length, u32 little-endian
//! 12      len   payload
//! ```
//!
//! The **epoch** field is what makes worker-loss recovery safe: the
//! coordinator bumps its run epoch every time it replaces a lost worker, and
//! frames written by a stale connection (an earlier epoch) are fenced —
//! dropped and counted instead of folded into the run. Senders that never
//! participate in recovery simply write epoch 0.
//!
//! The 12-byte header is [`HEADER_LEN`]. Payload encodings are defined by the
//! [`Wire`] trait and deliberately mirror the [`crate::MessageSize`]
//! estimates byte for byte: fixed-width little-endian integers and floats,
//! and `u32` length prefixes for vectors and strings.
//!
//! What is copied: [`decode_frame`] hands back the payload as a borrowed
//! slice of the frame, and [`WireReader::bytes`] borrows from it too, so
//! locating a value copies nothing. Every decoded value is owned, so its
//! bytes are copied once, out of the frame; encoding copies once, into the
//! caller's buffer. A `Vec` of fixed-width numbers (`u8`…`u64`,
//! `i8`…`i64`, `usize`, `f32`, `f64`) is coded as one run, not element by
//! element ([`Wire::encode_slice`], [`Wire::decode_many`]): one bounds check
//! for the whole length, then one pass over contiguous bytes; a `Vec<u8>` is
//! a single `memcpy` each way. Other element types, the `(u32, V)` superstep
//! messages included, still go one element at a time.
//!
//! Truncated input, bad magic/version, unknown tags and trailing garbage all
//! surface as typed [`WireError`]s; nothing panics on malformed bytes.

use crate::size::MessageSize;
use std::fmt;
use std::io::{self, Read, Write};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"GW";

/// Protocol version byte shipped in every frame header. Version 2 added the
/// 4-byte run-epoch field used to fence stale frames during recovery.
pub const VERSION: u8 = 2;

/// Frame tag of the worker→coordinator session greeting. The hello frame is
/// the very first thing a connecting worker sends; its payload is the
/// worker's `Option<String>` auth token, which the coordinator validates
/// against its configured token before shipping the job. Defined here, next
/// to the protocol constants, because it is session establishment rather
/// than BSP traffic.
pub const TAG_HELLO: u8 = 0x05;

/// Frame tag of a client→service **graph load** request: the payload names a
/// graph id, the payload family and one fragment index, and the next frame on
/// the connection is the fragment itself. The service keeps the decoded
/// fragment resident, so later queries against the same graph id never re-ship
/// graph bytes.
pub const TAG_LOAD: u8 = 0x30;

/// Frame tag of the service→client **load acknowledgement**: the graph id the
/// fragment was stored under. Sent once per [`TAG_LOAD`] request.
pub const TAG_LOADED: u8 = 0x31;

/// Frame tag of a client→service **query submission** against a resident
/// graph. The frame's epoch field carries the query's *run id*, which fences
/// the whole BSP exchange of that query: every frame of the run is stamped
/// with it, and recovery bumps it exactly like the one-shot epoch path.
pub const TAG_QUERY: u8 = 0x32;

/// Frame tag of the service→client **query result**: the body is the
/// fragment's snapshot-encoded partial result and nothing else; the client
/// restores every worker's partial and assembles the full typed answer.
pub const TAG_RESULT: u8 = 0x33;

/// Frame tag of a client→service **graph update**: a resolved mutation batch
/// targeting one resident fragment, versioned so retries are idempotent. The
/// frame's epoch carries the target version (mod 2^32) as a fence.
pub const TAG_UPDATE: u8 = 0x34;

/// Frame tag of the service→client **update acknowledgement**: the graph id
/// and the fragment's version after applying (or idempotently skipping) the
/// batch. Sent once per [`TAG_UPDATE`] request.
pub const TAG_UPDATED: u8 = 0x35;

/// Frame tag of a client→service **graph unload**: the graph id whose
/// resident fragments and kept partials the service drops.
pub const TAG_UNLOAD: u8 = 0x36;

/// Frame tag of the service→client **unload acknowledgement**: the graph id
/// named by the [`TAG_UNLOAD`] it answers, resident or not.
pub const TAG_UNLOADED: u8 = 0x37;

/// Size of the frame header: magic (2) + version (1) + tag (1) + epoch (4) +
/// length (4).
pub const HEADER_LEN: usize = 12;

/// Errors produced while decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a complete value / frame was read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The frame did not start with [`MAGIC`].
    BadMagic {
        /// The two bytes found instead.
        found: [u8; 2],
    },
    /// The frame carried an unsupported protocol version.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// The message layer did not recognize the frame's tag.
    BadTag {
        /// The tag byte found.
        found: u8,
    },
    /// A payload decoded cleanly but left unconsumed bytes behind.
    TrailingBytes {
        /// Number of leftover bytes.
        count: usize,
    },
    /// The frame carried a run epoch other than the one the receiver is
    /// fencing on — a stale frame from a connection that was replaced.
    StaleEpoch {
        /// The epoch the receiver expected.
        expected: u32,
        /// The epoch found in the frame header.
        found: u32,
    },
    /// The bytes violated a value-level invariant (bad bool, invalid UTF-8,
    /// …).
    Malformed(&'static str),
    /// The bytes decoded cleanly into values that break a rule of what they
    /// rebuild (a fragment whose parts disagree, …); the text names the rule.
    Refused(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated wire data: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected {MAGIC:02x?})")
            }
            WireError::BadVersion { found } => {
                write!(f, "unsupported wire version {found} (expected {VERSION})")
            }
            WireError::BadTag { found } => write!(f, "unknown message tag {found:#04x}"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete payload")
            }
            WireError::StaleEpoch { expected, found } => {
                write!(f, "stale frame epoch {found} (fencing on epoch {expected})")
            }
            WireError::Malformed(what) => write!(f, "malformed wire value: {what}"),
            WireError::Refused(rule) => write!(f, "refused wire value: {rule}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over borrowed wire bytes. All reads are little-endian and
/// bounds-checked; slices come straight out of the underlying buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Borrows the next `n` bytes (zero-copy).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Copies the next `N` bytes out as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32` (bit pattern preserved exactly).
    pub fn f32(&mut self) -> Result<f32, WireError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads a little-endian `f64` (bit pattern preserved exactly).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Asserts every byte was consumed; [`WireError::TrailingBytes`]
    /// otherwise. Message decoders call this so trailing garbage is an error
    /// rather than silently ignored.
    pub fn finish(self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// A value with a canonical little-endian wire encoding.
///
/// The encodings are chosen so that, for every type also implementing
/// [`MessageSize`], `encode` appends exactly `size_bytes()` bytes — the
/// estimated and the framed payload sizes agree (frame headers and
/// uncharged bookkeeping fields are accounted separately by the message
/// layer).
///
/// A run of values — the body of a `Vec<T>` — goes through
/// [`Wire::encode_slice`] and [`Wire::decode_many`]. Their defaults are the
/// per-element loops. The fixed-width numbers override them to code the
/// whole run in one pass, and an override must produce and accept exactly
/// the bytes of the per-element default: the run's layout is the elements'
/// encodings back to back, with no header of its own.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from `reader`, consuming exactly the encoded bytes.
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Appends the encodings of `items`, back to back, to `out`.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decodes `len` values written by [`Wire::encode_slice`].
    fn decode_many(reader: &mut WireReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        // `len` is peer-controlled and must not drive a huge allocation:
        // cap the pre-allocation by what the buffer could possibly hold.
        let mut out = Vec::with_capacity(len.min(reader.remaining().max(16)));
        for _ in 0..len {
            out.push(Self::decode(reader)?);
        }
        Ok(out)
    }

    /// Convenience: the encoding as a fresh vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Fixed-width little-endian numbers: one element is `to_le_bytes`, and a
/// run of them is one bounds check and one pass over a contiguous buffer.
macro_rules! wire_fixed {
    ($($t:ty),* $(,)?) => {
        $(impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(reader.array()?))
            }
            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                const W: usize = std::mem::size_of::<$t>();
                let start = out.len();
                out.resize(start + items.len() * W, 0);
                for (chunk, item) in out[start..].chunks_exact_mut(W).zip(items) {
                    chunk.copy_from_slice(&item.to_le_bytes());
                }
            }
            fn decode_many(reader: &mut WireReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
                const W: usize = std::mem::size_of::<$t>();
                Ok(reader
                    .bytes(len.saturating_mul(W))?
                    .chunks_exact(W)
                    .map(|chunk| <$t>::from_le_bytes(chunk.try_into().expect("W-byte chunk")))
                    .collect())
            }
        })*
    };
}

wire_fixed!(u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// Bytes are their own encoding: a run of them is one copy each way.
impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        reader.u8()
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_many(reader: &mut WireReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        Ok(reader.bytes(len)?.to_vec())
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(reader.u64()?).map_err(|_| WireError::Malformed("usize overflow"))
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.reserve(items.len() * 8);
        for &item in items {
            out.extend_from_slice(&(item as u64).to_le_bytes());
        }
    }
    fn decode_many(reader: &mut WireReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        let run = u64::decode_many(reader, len)?.into_iter();
        run.map(|v| usize::try_from(v).map_err(|_| WireError::Malformed("usize overflow")))
            .collect()
    }
}

impl Wire for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as i64).to_le_bytes());
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        isize::try_from(reader.u64()? as i64).map_err(|_| WireError::Malformed("isize overflow"))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool byte must be 0 or 1")),
        }
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = reader.u32()? as usize;
        let bytes = reader.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::Malformed("string is not valid UTF-8"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(reader)?)),
            _ => Err(WireError::Malformed("option byte must be 0 or 1")),
        }
    }
}

/// Writes `items` in the layout of `Vec<T>`: a `u32` length, then the
/// elements through [`Wire::encode_slice`]. For callers that hold a slice
/// (a dense map, a borrowed column) rather than an owned `Vec`.
pub fn encode_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    T::encode_slice(items, out);
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self, out);
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = reader.u32()? as usize;
        T::decode_many(reader, len)
    }
}

macro_rules! wire_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {
        $(impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(reader)?,)+))
            }
        })+
    };
}

wire_tuple!(
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// One fully encoded frame (header + payload), as moved through byte
/// channels by the framed in-process transport.
///
/// Its [`MessageSize`] is **exact** — the number of bytes in the frame — so
/// accounting on the framed path reports actual wire bytes, not estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame(pub Vec<u8>);

impl MessageSize for Frame {
    fn size_bytes(&self) -> usize {
        self.0.len()
    }
}

/// Appends a complete epoch-0 frame carrying `value` under `tag` to `out`.
pub fn encode_frame<T: Wire>(tag: u8, value: &T, out: &mut Vec<u8>) {
    encode_frame_with(tag, out, |out| value.encode(out));
}

/// Appends a complete frame carrying `value` under `tag`, stamped with
/// `epoch`, to `out`.
pub fn encode_frame_epoch<T: Wire>(tag: u8, epoch: u32, value: &T, out: &mut Vec<u8>) {
    encode_frame_with_epoch(tag, epoch, out, |out| value.encode(out));
}

/// Appends a complete epoch-0 frame under `tag` to `out`, with the payload
/// written by `payload` — for multi-field messages that encode without
/// building an intermediate value.
pub fn encode_frame_with(tag: u8, out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    encode_frame_with_epoch(tag, 0, out, payload);
}

/// Appends a complete frame under `tag`, stamped with `epoch`, to `out`,
/// with the payload written by `payload`.
pub fn encode_frame_with_epoch(
    tag: u8,
    epoch: u32,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(tag);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // length, patched below
    let payload_start = out.len();
    payload(out);
    let payload_len = (out.len() - payload_start) as u32;
    out[start + 8..start + 12].copy_from_slice(&payload_len.to_le_bytes());
}

/// Splits one frame off the front of `buf`, discarding its epoch.
///
/// Returns `(tag, payload, total_frame_len)`; the payload is a zero-copy
/// slice into `buf`. Fails with [`WireError::Truncated`] when fewer bytes
/// than a whole frame are available, and with
/// [`WireError::BadMagic`] / [`WireError::BadVersion`] on corrupt headers.
pub fn decode_frame(buf: &[u8]) -> Result<(u8, &[u8], usize), WireError> {
    let (tag, _epoch, payload, total) = decode_frame_epoch(buf)?;
    Ok((tag, payload, total))
}

/// Splits one frame off the front of `buf`, surfacing its epoch.
///
/// Returns `(tag, epoch, payload, total_frame_len)`. Epoch validation is the
/// caller's job (see [`check_epoch`]): the framing layer cannot know which
/// epoch a connection is fencing on.
pub fn decode_frame_epoch(buf: &[u8]) -> Result<(u8, u32, &[u8], usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf[0..2] != MAGIC {
        return Err(WireError::BadMagic {
            found: [buf[0], buf[1]],
        });
    }
    if buf[2] != VERSION {
        return Err(WireError::BadVersion { found: buf[2] });
    }
    let tag = buf[3];
    let epoch = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let payload_len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
    let total = HEADER_LEN + payload_len;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    Ok((tag, epoch, &buf[HEADER_LEN..total], total))
}

/// Rejects a frame whose epoch is not the one being fenced on.
pub fn check_epoch(expected: u32, found: u32) -> Result<(), WireError> {
    if expected == found {
        Ok(())
    } else {
        Err(WireError::StaleEpoch { expected, found })
    }
}

/// Writes one epoch-0 frame carrying `value` under `tag` to `w`. Returns the
/// number of bytes written (header + payload), for byte accounting.
pub fn write_frame_io<T: Wire>(w: &mut impl Write, tag: u8, value: &T) -> io::Result<usize> {
    write_frame_io_epoch(w, tag, 0, value)
}

/// Writes one frame carrying `value` under `tag`, stamped with `epoch`, to
/// `w`. Returns the number of bytes written.
pub fn write_frame_io_epoch<T: Wire>(
    w: &mut impl Write,
    tag: u8,
    epoch: u32,
    value: &T,
) -> io::Result<usize> {
    let mut frame = Vec::new();
    encode_frame_epoch(tag, epoch, value, &mut frame);
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one frame from `r` (blocking), discarding its epoch.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary — the peer closed
/// the connection between messages. A corrupt header or an EOF mid-frame is
/// an `io::Error` of kind `InvalidData` / `UnexpectedEof`.
pub fn read_frame_io(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    Ok(read_frame_io_epoch(r)?.map(|(tag, _epoch, payload)| (tag, payload)))
}

/// Reads one frame from `r` (blocking), surfacing its epoch so the caller
/// can fence stale frames.
pub fn read_frame_io_epoch(r: &mut impl Read) -> io::Result<Option<(u8, u32, Vec<u8>)>> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "no more frames" from "died mid-frame": a clean EOF before
    // the first header byte is a graceful shutdown.
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-header",
            ));
        }
        filled += n;
    }
    if header[0..2] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::BadMagic {
                found: [header[0], header[1]],
            },
        ));
    }
    if header[2] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::BadVersion { found: header[2] },
        ));
    }
    let tag = header[3];
    let epoch = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let payload_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    // The declared length is peer-controlled: grow the buffer as bytes
    // actually arrive (take + read_to_end grows geometrically) instead of
    // allocating up to 4 GiB up front on a corrupt or hostile header.
    let mut payload = Vec::new();
    let read = r.take(payload_len as u64).read_to_end(&mut payload)?;
    if read < payload_len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-payload",
        ));
    }
    Ok(Some((tag, epoch, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode_to_vec();
        let mut reader = WireReader::new(&bytes);
        let back = T::decode(&mut reader).expect("decode");
        reader.finish().expect("fully consumed");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX - 1);
        roundtrip(usize::MAX);
        roundtrip(-5i32);
        roundtrip(1.5f32);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(());
        roundtrip(String::from("héllo wire"));
        roundtrip(Some((3u32, 2.5f64)));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![(1u32, 1.0f64), (2, f64::INFINITY)]);
        roundtrip((1u64, String::from("x"), 2u64, String::from("y")));
    }

    #[test]
    fn nan_bits_survive_the_roundtrip() {
        let weird = f64::from_bits(0x7ff8_0000_0000_1234);
        let bytes = weird.encode_to_vec();
        let mut reader = WireReader::new(&bytes);
        let back = f64::decode(&mut reader).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits(), "bit-exact, even for NaN");
    }

    #[test]
    fn encodings_match_message_size_estimates() {
        // The whole point of the codec: for every exchanged type the framed
        // payload length equals the MessageSize estimate.
        let samples: Vec<(Vec<u8>, usize)> = vec![
            (7u32.encode_to_vec(), 7u32.size_bytes()),
            (7u64.encode_to_vec(), 7u64.size_bytes()),
            (1.5f64.encode_to_vec(), 1.5f64.size_bytes()),
            (
                String::from("abc").encode_to_vec(),
                String::from("abc").size_bytes(),
            ),
            (
                vec![(1u32, 2.0f64); 3].encode_to_vec(),
                vec![(1u32, 2.0f64); 3].size_bytes(),
            ),
            (Some(9u64).encode_to_vec(), Some(9u64).size_bytes()),
        ];
        for (encoded, estimated) in samples {
            assert_eq!(encoded.len(), estimated);
        }
    }

    #[test]
    fn encoding_is_little_endian() {
        assert_eq!(0x0102_0304u32.encode_to_vec(), [0x04, 0x03, 0x02, 0x01]);
        assert_eq!(258u16.encode_to_vec(), [0x02, 0x01]);
    }

    #[test]
    fn frame_roundtrip_and_layout() {
        let payload = vec![(5u32, 2.5f64)];
        let mut frame = Vec::new();
        encode_frame(0x42, &payload, &mut frame);
        assert_eq!(frame.len(), HEADER_LEN + payload.size_bytes());
        assert_eq!(&frame[0..2], &MAGIC);
        assert_eq!(frame[2], VERSION);
        assert_eq!(frame[3], 0x42);
        assert_eq!(&frame[4..8], &[0u8; 4], "epoch 0 outside recovery");
        let (tag, body, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(tag, 0x42);
        assert_eq!(consumed, frame.len());
        let mut reader = WireReader::new(body);
        assert_eq!(Vec::<(u32, f64)>::decode(&mut reader).unwrap(), payload);
        reader.finish().unwrap();
    }

    #[test]
    fn epochs_ride_the_header_and_fence_stale_frames() {
        let mut frame = Vec::new();
        encode_frame_epoch(0x07, 3, &9u64, &mut frame);
        assert_eq!(
            u32::from_le_bytes(frame[4..8].try_into().unwrap()),
            3,
            "little-endian epoch at bytes 4..8"
        );
        let (tag, epoch, body, consumed) = decode_frame_epoch(&frame).unwrap();
        assert_eq!((tag, epoch, consumed), (0x07, 3, frame.len()));
        let mut reader = WireReader::new(body);
        assert_eq!(u64::decode(&mut reader).unwrap(), 9);
        // The epoch-agnostic decoder sees the same frame.
        let (tag, _, consumed) = decode_frame(&frame).unwrap();
        assert_eq!((tag, consumed), (0x07, frame.len()));
        // The fence: matching epochs pass, anything else is typed.
        assert_eq!(check_epoch(3, 3), Ok(()));
        assert_eq!(
            check_epoch(3, 2),
            Err(WireError::StaleEpoch {
                expected: 3,
                found: 2
            })
        );
    }

    #[test]
    fn io_frames_carry_epochs() {
        let mut stream = Vec::new();
        write_frame_io_epoch(&mut stream, 1, 7, &5u32).unwrap();
        let mut cursor = io::Cursor::new(stream);
        let (tag, epoch, body) = read_frame_io_epoch(&mut cursor).unwrap().unwrap();
        assert_eq!((tag, epoch), (1, 7));
        let mut reader = WireReader::new(&body);
        assert_eq!(u32::decode(&mut reader).unwrap(), 5);
        assert!(read_frame_io_epoch(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut frame = Vec::new();
        encode_frame(1, &vec![1u64, 2, 3], &mut frame);
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
        assert!(decode_frame(&frame).is_ok());
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let mut frame = Vec::new();
        encode_frame(1, &7u64, &mut frame);
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad_version = frame.clone();
        bad_version[2] = 99;
        assert!(matches!(
            decode_frame(&bad_version),
            Err(WireError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = 7u32.encode_to_vec();
        bytes.push(0xff);
        let mut reader = WireReader::new(&bytes);
        u32::decode(&mut reader).unwrap();
        assert_eq!(reader.finish(), Err(WireError::TrailingBytes { count: 1 }));
    }

    #[test]
    fn malformed_values_are_rejected() {
        let mut reader = WireReader::new(&[2u8]);
        assert!(matches!(
            bool::decode(&mut reader),
            Err(WireError::Malformed(_))
        ));
        // A string length promising more bytes than exist.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(b"short");
        let mut reader = WireReader::new(&bytes);
        assert!(matches!(
            String::decode(&mut reader),
            Err(WireError::Truncated { .. })
        ));
        // Invalid UTF-8.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut reader = WireReader::new(&bytes);
        assert!(matches!(
            String::decode(&mut reader),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn corrupt_vec_length_does_not_overallocate() {
        // Length claims u32::MAX elements; the decoder must fail fast with a
        // bounded allocation instead of reserving gigabytes. The slice path
        // checks the whole length before it allocates, for every width.
        fn refuses<T: Wire + std::fmt::Debug>() {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            bytes.extend_from_slice(&[1, 2, 3]);
            let mut reader = WireReader::new(&bytes);
            assert_eq!(
                Vec::<T>::decode(&mut reader).unwrap_err(),
                WireError::Truncated {
                    needed: u32::MAX as usize * std::mem::size_of::<T>(),
                    have: 3
                }
            );
        }
        refuses::<u8>();
        refuses::<f32>();
        refuses::<u64>();
        // An element type without a slice path takes the per-element loop,
        // whose pre-allocation is capped by the bytes present.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut reader = WireReader::new(&bytes);
        assert!(Vec::<(u32, u8)>::decode(&mut reader).is_err());
    }

    #[test]
    fn io_frames_roundtrip_over_a_byte_stream() {
        let mut stream = Vec::new();
        let a = vec![(1u32, 1.5f64)];
        let b = String::from("second frame");
        let wrote_a = write_frame_io(&mut stream, 1, &a).unwrap();
        let wrote_b = write_frame_io(&mut stream, 2, &b).unwrap();
        assert_eq!(wrote_a, HEADER_LEN + a.size_bytes());
        assert_eq!(wrote_b, HEADER_LEN + b.size_bytes());

        let mut cursor = io::Cursor::new(stream);
        let (tag, body) = read_frame_io(&mut cursor).unwrap().unwrap();
        assert_eq!(tag, 1);
        let mut reader = WireReader::new(&body);
        assert_eq!(Vec::<(u32, f64)>::decode(&mut reader).unwrap(), a);
        let (tag, body) = read_frame_io(&mut cursor).unwrap().unwrap();
        assert_eq!(tag, 2);
        let mut reader = WireReader::new(&body);
        assert_eq!(String::decode(&mut reader).unwrap(), b);
        // Clean EOF at the frame boundary.
        assert!(read_frame_io(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn io_read_rejects_mid_frame_eof_and_bad_headers() {
        let mut stream = Vec::new();
        write_frame_io(&mut stream, 1, &7u64).unwrap();
        let cut = stream.len() - 3;
        let mut cursor = io::Cursor::new(&stream[..cut]);
        let err = read_frame_io(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut garbage = io::Cursor::new(b"NOTAFRAMEATALL".to_vec());
        let err = read_frame_io(&mut garbage).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_newtype_accounts_exact_bytes() {
        let mut bytes = Vec::new();
        encode_frame(3, &vec![1u32, 2, 3], &mut bytes);
        let frame = Frame(bytes);
        assert_eq!(frame.size_bytes(), frame.0.len());
    }
}
