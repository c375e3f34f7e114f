//! The length-prefixed record codec both `rsr-net` endpoints speak.
//!
//! A TCP stream carries a sequence of *records*, each one length-prefixed
//! so a reader can frame the stream without understanding its contents:
//!
//! ```text
//! u32  body_len   big-endian count of the bytes that follow
//! u8   kind       0 = OPEN, 1 = FRAME, 2 = DONE
//! u64  session    session id (multiplexing key), big-endian
//! ...  kind-specific body (see below)
//! ```
//!
//! * `OPEN` — either no further body (a *bare* open: the server must
//!   already know what instance the session id denotes, e.g. from a
//!   shared trace), or a negotiation block (see [`SessionSpec`]): `u8`
//!   flag, `u8` protocol code, `u32` n, `u32` k, `u32` dim, `u64`
//!   seed, all big-endian. The flag is a bitfield: bit 0 set means a
//!   spec block follows (flag `1`), bit 1 set marks the session
//!   *continuous* (flag `3`) — the id stays live across many rounds,
//!   each one `FRAME` out and one `FRAME` back, instead of retiring on
//!   the first `DONE`. Any other flag value is malformed. The spec tells
//!   the server which protocol instance to build for the session — the
//!   session-id → instance mapping travels on the wire instead of living
//!   in out-of-band trace state.
//! * `FRAME` — `u16` label length, the UTF-8 label, `u64` exact bit
//!   length, then the payload bytes (exactly `bit_len.div_ceil(8)` of
//!   them). This is a [`Frame`] as the session layer knows it; the label
//!   and bit length travel so the receiving side's transcript accounting
//!   is identical to the sender's.
//! * `DONE` — `u8` status ([`STATUS_OK`], [`STATUS_SESSION_ERROR`],
//!   [`STATUS_UNKNOWN_SESSION`]), `u16` message length, UTF-8 message.
//!   Sent by the server when a session's server half finishes (or fails),
//!   and by the client to abandon a session it cannot continue. For a
//!   continuous session, a client `DONE` ends the *whole* session (all
//!   rounds); a server `DONE(1)` fails only the round its delta began.
//!
//! Decoding is strict: a record whose body disagrees with its length
//! prefix, whose frame payload disagrees with its bit length, or whose
//! claimed length exceeds [`MAX_RECORD_BYTES`] is a [`NetError`], never a
//! silent truncation — and the oversize check runs *before* the body is
//! buffered, so a hostile length prefix cannot balloon memory. There is
//! one framer, [`RecordDecoder`]: the reactor feeds it whatever a
//! nonblocking read produced, and the blocking [`read_record`] loops
//! over it.

use rsr_core::channel::Frame;
use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on one record's body (64 MiB). Far above any real frame
/// (the protocols' messages are `O(k·d·log n)` bits) while keeping a
/// malformed or hostile length prefix from driving a huge allocation.
pub const MAX_RECORD_BYTES: u32 = 1 << 26;

/// `DONE` status: the server half of the session completed.
pub const STATUS_OK: u8 = 0;
/// `DONE` status: a session reported a protocol error.
pub const STATUS_SESSION_ERROR: u8 = 1;
/// `DONE` status: the session id is not known to the server's factory.
pub const STATUS_UNKNOWN_SESSION: u8 = 2;

const KIND_OPEN: u8 = 0;
const KIND_FRAME: u8 = 1;
const KIND_DONE: u8 = 2;

/// `OPEN` negotiation flag bit: a [`SessionSpec`] block follows.
const OPEN_FLAG_SPEC: u8 = 1;
/// `OPEN` negotiation flag bit: the session is continuous (multi-round).
const OPEN_FLAG_CONTINUOUS: u8 = 2;

/// [`SessionSpec`] protocol code: the EMD protocol.
pub const PROTO_EMD: u8 = 0;
/// [`SessionSpec`] protocol code: the scaled-EMD protocol.
pub const PROTO_SCALED_EMD: u8 = 1;
/// [`SessionSpec`] protocol code: the Gap protocol.
pub const PROTO_GAP: u8 = 2;
/// Continuous IBLT set reconciliation — the protocol code a
/// [`continuous`](SessionSpec::continuous) spec carries: `n` is the
/// base set size, `k` the per-round churn bound, and `seed` pins both
/// the initial set and the shared table coins.
pub const PROTO_CONT: u8 = 3;

/// The negotiation block an `OPEN` record may carry: which protocol
/// instance the session id denotes, compactly parameterized the same way
/// a trace entry is (`protocol n k dim seed` — the server rebuilds the
/// instance deterministically from these five numbers, exactly as a
/// trace replay would). The codec does not interpret the fields beyond
/// framing them; the `PROTO_*` constants are the codes `rsr-bench`'s
/// trace replay assigns, and a custom [`SessionFactory`] may assign its
/// own meanings.
///
/// [`SessionFactory`]: crate::server::SessionFactory
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionSpec {
    /// Protocol code (`PROTO_EMD`, `PROTO_SCALED_EMD`, `PROTO_GAP`, or a
    /// factory-defined value).
    pub protocol: u8,
    /// Set size parameter n.
    pub n: u32,
    /// Difference bound k.
    pub k: u32,
    /// Point dimensionality.
    pub dim: u32,
    /// Instance seed.
    pub seed: u64,
    /// Marks the session *continuous*: instead of retiring on its first
    /// `DONE`, the id stays live on the connection and each `FRAME` the
    /// client sends on it is one round's delta, reconciled against state
    /// both sides keep resident between rounds. Carried as a flag bit, so
    /// the spec block's size (and every one-shot spec's wire form) is
    /// unchanged.
    pub continuous: bool,
}

impl SessionSpec {
    /// Marks this spec's session continuous (multi-round).
    pub fn into_continuous(mut self) -> SessionSpec {
        self.continuous = true;
        self
    }
}

/// Wire length of an encoded [`SessionSpec`] (flag byte included).
const SPEC_WIRE_BYTES: usize = 1 + 1 + 4 + 4 + 4 + 8;

/// Everything that can go wrong on an `rsr-net` transport.
#[derive(Debug)]
pub enum NetError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The byte stream violates the record grammar.
    Malformed(&'static str),
    /// A length prefix claims a body larger than [`MAX_RECORD_BYTES`].
    Oversized {
        /// The claimed body length.
        claimed: u32,
    },
    /// A record kind byte this codec does not know.
    UnknownKind(u8),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport i/o error: {e}"),
            NetError::Malformed(what) => write!(f, "malformed record stream: {what}"),
            NetError::Oversized { claimed } => write!(
                f,
                "record body of {claimed} bytes exceeds the {MAX_RECORD_BYTES}-byte cap"
            ),
            NetError::UnknownKind(kind) => write!(f, "unknown record kind {kind:#04x}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// One unit of the connection protocol.
#[derive(Clone, Debug)]
pub enum Record {
    /// Client announces a session; the server creates its half. With a
    /// [`SessionSpec`] the record also *negotiates* which protocol
    /// instance the id denotes; without one the server must know the id
    /// out of band (a shared trace).
    Open {
        /// The session being opened.
        session: u64,
        /// The negotiation block, if the opener sent one.
        spec: Option<SessionSpec>,
    },
    /// One protocol frame, tagged with its session.
    Frame {
        /// The session the frame belongs to.
        session: u64,
        /// The session-layer frame, label and exact bit length included.
        frame: Frame,
    },
    /// A session's sender is finished with it (status [`STATUS_OK`]) or
    /// had to give up on it (any other status).
    Done {
        /// The session being closed.
        session: u64,
        /// One of the `STATUS_*` codes.
        status: u8,
        /// Human-readable detail for non-OK statuses.
        message: String,
    },
}

impl Record {
    /// The session id every record variant carries.
    pub fn session(&self) -> u64 {
        match *self {
            Record::Open { session, .. }
            | Record::Frame { session, .. }
            | Record::Done { session, .. } => session,
        }
    }

    fn body_len(&self) -> usize {
        1 + 8
            + match self {
                Record::Open { spec: None, .. } => 0,
                Record::Open { spec: Some(_), .. } => SPEC_WIRE_BYTES,
                Record::Frame { frame, .. } => 2 + frame.label.len() + 8 + frame.payload.len(),
                Record::Done { message, .. } => 1 + 2 + message.len(),
            }
    }

    /// Bytes this record occupies on the wire, length prefix included.
    pub fn wire_len(&self) -> u64 {
        4 + self.body_len() as u64
    }
}

/// Writes one record. Returns the wire bytes written (prefix included).
/// Does not flush; callers flush before blocking on a read. Every
/// validation failure happens *before* the first byte is written, so an
/// unencodable record never leaves a half-emitted header corrupting the
/// stream for its successors.
pub fn write_record<W: Write>(w: &mut W, record: &Record) -> Result<u64, NetError> {
    let body_len = record.body_len();
    if body_len > MAX_RECORD_BYTES as usize {
        return Err(NetError::Oversized {
            claimed: body_len.min(u32::MAX as usize) as u32,
        });
    }
    match record {
        Record::Open { .. } => {}
        Record::Frame { frame, .. } => {
            if frame.label.len() > u16::MAX as usize {
                return Err(NetError::Malformed("frame label longer than u16"));
            }
            debug_assert_eq!(frame.payload.len() as u64, frame.bit_len.div_ceil(8));
        }
        Record::Done { message, .. } => {
            if message.len() > u16::MAX as usize {
                return Err(NetError::Malformed("done message longer than u16"));
            }
        }
    }
    w.write_all(&(body_len as u32).to_be_bytes())?;
    match record {
        Record::Open { session, spec } => {
            w.write_all(&[KIND_OPEN])?;
            w.write_all(&session.to_be_bytes())?;
            if let Some(spec) = spec {
                let flag = if spec.continuous {
                    OPEN_FLAG_SPEC | OPEN_FLAG_CONTINUOUS
                } else {
                    OPEN_FLAG_SPEC
                };
                w.write_all(&[flag, spec.protocol])?;
                w.write_all(&spec.n.to_be_bytes())?;
                w.write_all(&spec.k.to_be_bytes())?;
                w.write_all(&spec.dim.to_be_bytes())?;
                w.write_all(&spec.seed.to_be_bytes())?;
            }
        }
        Record::Frame { session, frame } => {
            let label = frame.label.as_bytes();
            w.write_all(&[KIND_FRAME])?;
            w.write_all(&session.to_be_bytes())?;
            w.write_all(&(label.len() as u16).to_be_bytes())?;
            w.write_all(label)?;
            w.write_all(&frame.bit_len.to_be_bytes())?;
            w.write_all(&frame.payload)?;
        }
        Record::Done {
            session,
            status,
            message,
        } => {
            w.write_all(&[KIND_DONE])?;
            w.write_all(&session.to_be_bytes())?;
            w.write_all(&[*status])?;
            w.write_all(&(message.len() as u16).to_be_bytes())?;
            w.write_all(message.as_bytes())?;
        }
    }
    Ok(4 + body_len as u64)
}

/// Reads one record off a blocking stream, consuming exactly its bytes.
/// Returns `Ok(None)` on a clean end of stream (EOF at a record
/// boundary); EOF anywhere else is `Malformed`, a length prefix over
/// [`MAX_RECORD_BYTES`] is `Oversized` (detected before the body is
/// read). On success also returns the wire bytes consumed.
pub fn read_record<R: Read>(r: &mut R) -> Result<Option<(Record, u64)>, NetError> {
    let mut decoder = RecordDecoder::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(found) = decoder.next_record()? {
            return Ok(Some(found));
        }
        let want = decoder.missing().min(chunk.len());
        match r.read(&mut chunk[..want]) {
            Ok(0) => return decoder.truncation().map_or(Ok(None), Err),
            Ok(n) => decoder.feed(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
}

fn parse_body(body: &[u8]) -> Result<Record, NetError> {
    let mut cur = Cursor(body);
    let kind = cur.u8().expect("length checked");
    let session = cur.u64().expect("length checked");
    const TRUNCATED: NetError = NetError::Malformed("record body ends mid-field");
    let record = match kind {
        KIND_OPEN => {
            let spec = if cur.remaining() == 0 {
                None // bare open
            } else {
                let flag = cur.u8().ok_or(TRUNCATED)?;
                if flag & OPEN_FLAG_SPEC == 0
                    || flag & !(OPEN_FLAG_SPEC | OPEN_FLAG_CONTINUOUS) != 0
                {
                    return Err(NetError::Malformed("unknown open negotiation flag"));
                }
                let protocol = cur.u8().ok_or(TRUNCATED)?;
                let n = cur.u32().ok_or(TRUNCATED)?;
                let k = cur.u32().ok_or(TRUNCATED)?;
                let dim = cur.u32().ok_or(TRUNCATED)?;
                let seed = cur.u64().ok_or(TRUNCATED)?;
                Some(SessionSpec {
                    protocol,
                    n,
                    k,
                    dim,
                    seed,
                    continuous: flag & OPEN_FLAG_CONTINUOUS != 0,
                })
            };
            if !cur.rest().is_empty() {
                return Err(NetError::Malformed("trailing bytes after open record"));
            }
            Record::Open { session, spec }
        }
        KIND_FRAME => {
            let label_len = cur.u16().ok_or(TRUNCATED)? as usize;
            let label = cur.bytes(label_len).ok_or(TRUNCATED)?;
            let label = std::str::from_utf8(label)
                .map_err(|_| NetError::Malformed("frame label is not utf-8"))?
                .to_owned();
            let bit_len = cur.u64().ok_or(TRUNCATED)?;
            let payload = cur.rest().to_vec();
            if payload.len() as u64 != bit_len.div_ceil(8) {
                return Err(NetError::Malformed(
                    "frame payload length disagrees with its bit length",
                ));
            }
            Record::Frame {
                session,
                frame: Frame {
                    label: Cow::Owned(label),
                    payload,
                    bit_len,
                },
            }
        }
        KIND_DONE => {
            let status = cur.u8().ok_or(TRUNCATED)?;
            let msg_len = cur.u16().ok_or(TRUNCATED)? as usize;
            let message = cur.bytes(msg_len).ok_or(TRUNCATED)?;
            let message = std::str::from_utf8(message)
                .map_err(|_| NetError::Malformed("done message is not utf-8"))?
                .to_owned();
            if !cur.rest().is_empty() {
                return Err(NetError::Malformed("trailing bytes after done record"));
            }
            Record::Done {
                session,
                status,
                message,
            }
        }
        other => return Err(NetError::UnknownKind(other)),
    };
    Ok(record)
}

/// A tiny byte cursor; every accessor returns `None` past the end.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.0.split_at_checked(n)?;
        self.0 = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_be_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }
}

/// Incremental record framing: feed whatever bytes a read produced, pull
/// complete records out. The oversize check runs on the length prefix,
/// *before* the body is retained, and body parsing is strict. The
/// decoder never blocks and never sees the socket: whoever owns the
/// reads hands bytes in.
///
/// EOF handling belongs to the caller: when the peer's stream ends,
/// [`RecordDecoder::truncation`] distinguishes a clean end (empty
/// buffer — a record boundary) from a truncation (prefix or body cut
/// mid-record), which callers must surface as
/// [`NetError::Malformed`] — the symmetric half-close rule.
#[derive(Debug, Default)]
pub struct RecordDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it outgrows the tail.
    start: usize,
}

impl RecordDecoder {
    /// An empty decoder.
    pub fn new() -> RecordDecoder {
        RecordDecoder::default()
    }

    /// Appends bytes read from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: never hold more than one buffer's
        // worth of dead prefix.
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete record, if the buffer holds one.
    /// Returns `Ok(None)` when more bytes are needed; errors are
    /// terminal for the stream (the caller tears the connection down, so
    /// the decoder does not need to resynchronize).
    pub fn next_record(&mut self) -> Result<Option<(Record, u64)>, NetError> {
        let pending = &self.buf[self.start..];
        let Some(prefix) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let body_len = u32::from_be_bytes(*prefix);
        if body_len > MAX_RECORD_BYTES {
            return Err(NetError::Oversized { claimed: body_len });
        }
        if body_len < 9 {
            return Err(NetError::Malformed("record body shorter than its header"));
        }
        let total = 4 + body_len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let record = parse_body(&pending[4..total])?;
        self.start += total;
        Ok(Some((record, total as u64)))
    }

    /// True when buffered bytes form an incomplete record — an EOF now
    /// is a truncation, not a clean close.
    pub fn is_mid_record(&self) -> bool {
        self.buf.len() > self.start
    }

    /// The error an EOF at this point implies: `None` at a record
    /// boundary (a clean close), the matching [`NetError::Malformed`]
    /// otherwise.
    pub fn truncation(&self) -> Option<NetError> {
        match self.buf.len() - self.start {
            0 => None,
            1..=3 => Some(NetError::Malformed("truncated length prefix")),
            _ => Some(NetError::Malformed("truncated record body")),
        }
    }

    /// Bytes the record at the head of the buffer still lacks — up to
    /// the end of its length prefix first, then of its body — so a
    /// blocking reader can stop exactly at the record boundary. Only
    /// meaningful after [`RecordDecoder::next_record`] returned
    /// `Ok(None)`, which has then vetted any complete prefix.
    fn missing(&self) -> usize {
        let pending = &self.buf[self.start..];
        match pending.first_chunk::<4>() {
            None => 4 - pending.len(),
            Some(prefix) => 4 + u32::from_be_bytes(*prefix) as usize - pending.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: Record) -> Record {
        let mut buf = Vec::new();
        let written = write_record(&mut buf, &record).expect("encodes");
        assert_eq!(written, record.wire_len());
        assert_eq!(written as usize, buf.len());
        let mut r = &buf[..];
        let (decoded, consumed) = read_record(&mut r).expect("decodes").expect("not eof");
        assert_eq!(consumed, written);
        assert!(r.is_empty());
        decoded
    }

    #[test]
    fn open_round_trips() {
        match roundtrip(Record::Open {
            session: 42,
            spec: None,
        }) {
            Record::Open { session, spec } => {
                assert_eq!(session, 42);
                assert_eq!(spec, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn open_with_spec_round_trips() {
        let spec = SessionSpec {
            protocol: PROTO_GAP,
            n: 48,
            k: 3,
            dim: 128,
            seed: 0xDEAD_BEEF_0BAD_F00D,
            continuous: false,
        };
        match roundtrip(Record::Open {
            session: 9,
            spec: Some(spec),
        }) {
            Record::Open { session, spec: got } => {
                assert_eq!(session, 9);
                assert_eq!(got, Some(spec));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn continuous_open_round_trips_and_differs_only_in_the_flag() {
        let spec = SessionSpec {
            protocol: PROTO_EMD,
            n: 64,
            k: 4,
            dim: 8,
            seed: 11,
            continuous: false,
        };
        let cont = spec.into_continuous();
        match roundtrip(Record::Open {
            session: 2,
            spec: Some(cont),
        }) {
            Record::Open { spec: got, .. } => assert_eq!(got, Some(cont)),
            other => panic!("wrong variant: {other:?}"),
        }
        // Same spec block, one flag bit: the encodings differ in exactly
        // the flag byte (offset 4 prefix + 1 kind + 8 session).
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_record(
            &mut a,
            &Record::Open {
                session: 2,
                spec: Some(spec),
            },
        )
        .unwrap();
        write_record(
            &mut b,
            &Record::Open {
                session: 2,
                spec: Some(cont),
            },
        )
        .unwrap();
        assert_eq!(a.len(), b.len());
        let diff: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
        assert_eq!(diff, vec![13]);
        assert_eq!(a[13], 1);
        assert_eq!(b[13], 3);
    }

    #[test]
    fn open_flag_without_spec_bit_is_malformed() {
        // Flag 2 (continuous without a spec block) is not a valid form:
        // a continuous session always negotiates its instance.
        let mut buf = Vec::new();
        write_record(
            &mut buf,
            &Record::Open {
                session: 1,
                spec: Some(SessionSpec {
                    protocol: PROTO_EMD,
                    n: 8,
                    k: 1,
                    dim: 2,
                    seed: 0,
                    continuous: false,
                }),
            },
        )
        .unwrap();
        buf[4 + 1 + 8] = 2;
        let mut r = &buf[..];
        assert!(matches!(
            read_record(&mut r),
            Err(NetError::Malformed("unknown open negotiation flag"))
        ));
    }

    #[test]
    fn bare_open_wire_form_is_unchanged() {
        // The negotiation extension must not perturb PR 3's bare opens:
        // 4-byte prefix + kind + session, nothing else.
        let mut buf = Vec::new();
        write_record(
            &mut buf,
            &Record::Open {
                session: 0x0102_0304_0506_0708,
                spec: None,
            },
        )
        .unwrap();
        assert_eq!(
            buf,
            [0, 0, 0, 9, 0, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08]
        );
    }

    #[test]
    fn unknown_open_flag_is_malformed() {
        let mut buf = Vec::new();
        write_record(
            &mut buf,
            &Record::Open {
                session: 1,
                spec: Some(SessionSpec {
                    protocol: PROTO_EMD,
                    n: 8,
                    k: 1,
                    dim: 2,
                    seed: 0,
                    continuous: false,
                }),
            },
        )
        .unwrap();
        buf[4 + 1 + 8] = 7; // corrupt the negotiation flag byte
        let mut r = &buf[..];
        assert!(matches!(
            read_record(&mut r),
            Err(NetError::Malformed("unknown open negotiation flag"))
        ));
    }

    #[test]
    fn frame_round_trips_label_payload_and_bit_len() {
        let frame = Frame {
            label: Cow::Borrowed("alice→bob: RIBLTs"),
            payload: vec![0xAB, 0xCD, 0x80],
            bit_len: 17,
        };
        match roundtrip(Record::Frame { session: 7, frame }) {
            Record::Frame { session, frame } => {
                assert_eq!(session, 7);
                assert_eq!(frame.label, "alice→bob: RIBLTs");
                assert_eq!(frame.payload, vec![0xAB, 0xCD, 0x80]);
                assert_eq!(frame.bit_len, 17);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn done_round_trips() {
        let rec = Record::Done {
            session: u64::MAX,
            status: STATUS_SESSION_ERROR,
            message: "no RIBLT level decoded".into(),
        };
        match roundtrip(rec) {
            Record::Done {
                session,
                status,
                message,
            } => {
                assert_eq!(session, u64::MAX);
                assert_eq!(status, STATUS_SESSION_ERROR);
                assert_eq!(message, "no RIBLT level decoded");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn open_record_with_trailing_bytes_is_malformed() {
        // A single byte after a bare open is read as a (bad) negotiation
        // flag...
        let mut buf = Vec::new();
        write_record(
            &mut buf,
            &Record::Open {
                session: 3,
                spec: None,
            },
        )
        .unwrap();
        buf.push(0xEE);
        let new_len = (buf.len() as u32 - 4).to_be_bytes();
        buf[..4].copy_from_slice(&new_len);
        let mut r = &buf[..];
        assert!(matches!(
            read_record(&mut r),
            Err(NetError::Malformed("unknown open negotiation flag"))
        ));

        // ...while bytes after a complete negotiation spec are trailing
        // garbage.
        let mut buf = Vec::new();
        write_record(
            &mut buf,
            &Record::Open {
                session: 3,
                spec: Some(SessionSpec {
                    protocol: PROTO_EMD,
                    n: 8,
                    k: 1,
                    dim: 2,
                    seed: 9,
                    continuous: false,
                }),
            },
        )
        .unwrap();
        buf.push(0xEE);
        let new_len = (buf.len() as u32 - 4).to_be_bytes();
        buf[..4].copy_from_slice(&new_len);
        let mut r = &buf[..];
        assert!(matches!(
            read_record(&mut r),
            Err(NetError::Malformed("trailing bytes after open record"))
        ));
    }

    #[test]
    fn unencodable_record_writes_nothing() {
        // An oversized DONE message must fail before the length prefix,
        // or it would leave a headless record corrupting the stream.
        let mut buf = Vec::new();
        let rec = Record::Done {
            session: 1,
            status: STATUS_SESSION_ERROR,
            message: "x".repeat(u16::MAX as usize + 1),
        };
        assert!(matches!(
            write_record(&mut buf, &rec),
            Err(NetError::Malformed("done message longer than u16"))
        ));
        assert!(buf.is_empty(), "no bytes may precede validation");
    }

    #[test]
    fn incremental_decoder_matches_blocking_reader_byte_by_byte() {
        let mut buf = Vec::new();
        write_record(
            &mut buf,
            &Record::Open {
                session: 5,
                spec: Some(SessionSpec {
                    protocol: PROTO_SCALED_EMD,
                    n: 24,
                    k: 2,
                    dim: 16,
                    seed: 77,
                    continuous: false,
                }),
            },
        )
        .unwrap();
        write_record(
            &mut buf,
            &Record::Frame {
                session: 5,
                frame: Frame {
                    label: Cow::Borrowed("f"),
                    payload: vec![0xFF, 0x01],
                    bit_len: 16,
                },
            },
        )
        .unwrap();
        write_record(
            &mut buf,
            &Record::Done {
                session: 5,
                status: STATUS_OK,
                message: String::new(),
            },
        )
        .unwrap();

        // Feed one byte at a time: records must pop out at exactly the
        // boundaries, with the same wire-length accounting.
        let mut dec = RecordDecoder::new();
        let mut out = Vec::new();
        for (i, b) in buf.iter().enumerate() {
            dec.feed(&[*b]);
            while let Some((rec, n)) = dec.next_record().expect("valid stream") {
                out.push((rec, n, i + 1));
            }
        }
        assert!(!dec.is_mid_record(), "all bytes consumed at a boundary");
        assert_eq!(out.len(), 3);
        assert!(matches!(
            out[0].0,
            Record::Open {
                session: 5,
                spec: Some(_)
            }
        ));
        assert!(matches!(out[1].0, Record::Frame { session: 5, .. }));
        assert!(matches!(out[2].0, Record::Done { session: 5, .. }));
        // Cross-check against the blocking reader on the same bytes.
        let mut r = &buf[..];
        for (rec, n, _) in &out {
            let (blocking, bn) = read_record(&mut r).unwrap().unwrap();
            assert_eq!(*n, bn);
            assert_eq!(format!("{rec:?}"), format!("{blocking:?}"));
        }
    }

    #[test]
    fn incremental_decoder_flags_mid_record_truncation() {
        let mut buf = Vec::new();
        write_record(
            &mut buf,
            &Record::Frame {
                session: 1,
                frame: Frame {
                    label: Cow::Borrowed("x"),
                    payload: vec![0xAA; 8],
                    bit_len: 64,
                },
            },
        )
        .unwrap();
        let mut dec = RecordDecoder::new();
        dec.feed(&buf[..buf.len() - 3]);
        assert!(dec.next_record().unwrap().is_none(), "incomplete body");
        assert!(dec.is_mid_record(), "an EOF here would be a truncation");
        dec.feed(&buf[buf.len() - 3..]);
        assert!(dec.next_record().unwrap().is_some());
        assert!(!dec.is_mid_record());
    }

    #[test]
    fn incremental_decoder_rejects_oversized_prefix_immediately() {
        let mut dec = RecordDecoder::new();
        dec.feed(&(MAX_RECORD_BYTES + 1).to_be_bytes());
        assert!(matches!(dec.next_record(), Err(NetError::Oversized { .. })));
    }

    #[test]
    fn eof_at_record_boundary_is_none() {
        let mut empty: &[u8] = &[];
        assert!(read_record(&mut empty).expect("clean eof").is_none());
    }

    #[test]
    fn concatenated_records_frame_correctly() {
        let mut buf = Vec::new();
        write_record(
            &mut buf,
            &Record::Open {
                session: 1,
                spec: None,
            },
        )
        .unwrap();
        write_record(
            &mut buf,
            &Record::Done {
                session: 1,
                status: STATUS_OK,
                message: String::new(),
            },
        )
        .unwrap();
        let mut r = &buf[..];
        assert!(matches!(
            read_record(&mut r).unwrap().unwrap().0,
            Record::Open { session: 1, .. }
        ));
        assert!(matches!(
            read_record(&mut r).unwrap().unwrap().0,
            Record::Done { session: 1, .. }
        ));
        assert!(read_record(&mut r).unwrap().is_none());
    }
}
