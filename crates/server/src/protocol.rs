//! The `ftspan-server` wire protocol: checksummed, length-prefixed binary
//! frames over a byte stream.
//!
//! Every message — request or reply — is one **frame**: a little-endian
//! `u32` body length, a `u64` FNV-1a-64 checksum of the body, then the
//! body. The checksum means a flipped bit anywhere in a body is *detected*
//! instead of deserialized: [`read_frame`] still consumes the whole frame
//! (framing stays aligned), but hands back [`Frame::Corrupt`] so a server
//! can answer with a typed error and keep the connection — the
//! `wire_chaos` suite drives this with a byte-corrupting proxy. Request
//! bodies start with an opcode byte, reply bodies with a reply tag byte;
//! all payloads reuse the [`ftspan_graph::wire`] primitives and the
//! [`ftspan::wire`] fault-set codec, so query payloads are encoded exactly
//! like snapshot payloads.
//!
//! | opcode | request | body |
//! |--------|-----------|------|
//! | `1` | `DIST u v [F]` | `u32 u · u32 v · fault_set` |
//! | `2` | `PATH u v [F]` | `u32 u · u32 v · fault_set` |
//! | `3` | `BATCH` | `u64 count · count × (u8 kind · u32 u · u32 v · fault_set)` |
//! | `4` | `WAVE` | `fault_set` |
//! | `5` | `METRICS` | empty |
//! | `6` | `SNAPSHOT` | empty |
//! | `7` | `JOURNAL_SUBSCRIBE` | `u64 from_epoch` |
//! | `8` | `PROMOTE` | empty |
//!
//! Replies are self-describing: `0` answer, `1` batch, `2` wave summary,
//! `3` metrics text, `4` **snapshot chunk** (`u64 total · u64 offset ·
//! bytes` — a snapshot download is a bounded sequence of these, so neither
//! end ever materializes one giant frame), `5` **shed** (explicit, with a
//! reason byte — a rate-limited client is told so, never silently
//! dropped), `6` error (length-prefixed UTF-8 message), `7` journal
//! entries (`u64 count · count ×` checksummed
//! [`JournalEntry`] — the replication feed),
//! `8` promoted (`u64 epoch`).
//!
//! Answers carry the distance (presence byte + IEEE-754 bits, so the
//! exactness contract survives the wire) and, for `PATH`, the vertex
//! sequence. The backend's `cache_hit` flag is a serving-side detail and is
//! not part of the protocol.

use std::io::{self, Read, Write};

use ftspan::wire::{decode_fault_set, encode_fault_set};
use ftspan::FaultSet;
use ftspan_graph::wire::{fnv1a64, WireError, WireReader, WireWriter};
use ftspan_graph::{vid, VertexId};
use ftspan_oracle::replication::{decode_journal_entry, encode_journal_entry};
use ftspan_oracle::{JournalEntry, Query, QueryKind};

/// Upper bound on one frame's body, rejecting corrupt length prefixes
/// before they provoke a giant allocation. Large enough for a snapshot of
/// any graph this workspace benchmarks (a 1M-edge snapshot is ~50 MiB).
pub const MAX_FRAME_LEN: usize = 256 * 1024 * 1024;

const OP_DIST: u8 = 1;
const OP_PATH: u8 = 2;
const OP_BATCH: u8 = 3;
const OP_WAVE: u8 = 4;
const OP_METRICS: u8 = 5;
const OP_SNAPSHOT: u8 = 6;
const OP_JOURNAL_SUBSCRIBE: u8 = 7;
const OP_PROMOTE: u8 = 8;

const REPLY_ANSWER: u8 = 0;
const REPLY_BATCH: u8 = 1;
const REPLY_WAVE: u8 = 2;
const REPLY_METRICS: u8 = 3;
const REPLY_SNAPSHOT_CHUNK: u8 = 4;
const REPLY_SHED: u8 = 5;
const REPLY_ERROR: u8 = 6;
const REPLY_JOURNAL_ENTRIES: u8 = 7;
const REPLY_PROMOTED: u8 = 8;

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `DIST u v [F]` — distance in `H ∖ F`.
    Distance {
        /// Source vertex.
        u: VertexId,
        /// Target vertex.
        v: VertexId,
        /// The fault set to avoid.
        faults: FaultSet,
    },
    /// `PATH u v [F]` — distance plus an explicit path.
    Path {
        /// Source vertex.
        u: VertexId,
        /// Target vertex.
        v: VertexId,
        /// The fault set to avoid.
        faults: FaultSet,
    },
    /// `BATCH` — a mixed batch answered in request order.
    Batch(Vec<Query>),
    /// `WAVE` — apply permanent damage through the churn loop.
    Wave(FaultSet),
    /// `METRICS` — fetch the Prometheus exposition text.
    Metrics,
    /// `SNAPSHOT` — download a warm-restart snapshot of the backend
    /// (streamed back as [`Reply::SnapshotChunk`] frames).
    Snapshot,
    /// `JOURNAL_SUBSCRIBE` — switch this connection into a journal stream:
    /// the primary sends every entry past `from_epoch`, then keeps sending
    /// entries as waves commit.
    JournalSubscribe {
        /// The subscriber's current epoch; streaming starts just past it.
        from_epoch: u64,
    },
    /// `PROMOTE` — stop following and start accepting waves (replica role
    /// only; a primary answers with an error).
    Promote,
}

/// A distance/path answer on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct WireAnswer {
    /// Distance in `H ∖ F`; `None` when the faults disconnect the pair.
    pub distance: Option<f64>,
    /// The path, when requested and reachable.
    pub path: Option<Vec<VertexId>>,
}

/// One entry of a batch reply.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchEntry {
    /// The query was answered.
    Answered(WireAnswer),
    /// The query was shed by the service's admission control.
    Shed,
}

/// What a `WAVE` did, summarized for the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveSummary {
    /// The backend epoch after the wave.
    pub epoch: u64,
    /// Spanner edges added by repair.
    pub edges_added: u64,
    /// Stretch-violating pairs detected around the damage.
    pub broken_pairs: u64,
    /// Whether local repair escalated to a full respan.
    pub escalated: bool,
    /// Admission lanes (shards) whose serving state was rebuilt.
    pub rebuilt_lanes: Vec<u32>,
}

/// Why a request was shed instead of answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The per-client token bucket was empty.
    RateLimited,
    /// The service's admission control shed the request.
    Admission,
    /// The connection sat idle (or stalled mid-frame) past the server's
    /// read timeout; the server sends this and closes the connection so a
    /// slow-loris client cannot pin a handler thread.
    Timeout,
}

/// One server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Answer to `DIST` / `PATH`.
    Answer(WireAnswer),
    /// Per-query entries of a `BATCH`, in request order.
    Batch(Vec<BatchEntry>),
    /// Summary of an applied `WAVE`.
    Wave(WaveSummary),
    /// Prometheus exposition text from `METRICS`.
    Metrics(String),
    /// One bounded chunk of a `SNAPSHOT` download. `total` is the full
    /// snapshot length in bytes and `offset` this chunk's position;
    /// chunks arrive in order and the download is complete when
    /// `offset + data.len() == total`. An empty snapshot is one chunk
    /// with `total == 0`.
    SnapshotChunk {
        /// Full snapshot length in bytes.
        total: u64,
        /// This chunk's byte offset into the snapshot.
        offset: u64,
        /// The chunk's bytes.
        data: Vec<u8>,
    },
    /// The request was shed — explicitly, with the reason.
    Shed(ShedReason),
    /// The request could not be served.
    Error(String),
    /// A batch of journal entries on a `JOURNAL_SUBSCRIBE` stream, in
    /// epoch order.
    JournalEntries(Vec<JournalEntry>),
    /// `PROMOTE` succeeded; the server now accepts waves at this epoch.
    Promoted {
        /// The promoted server's current epoch.
        epoch: u64,
    },
}

fn encode_query_parts(u: VertexId, v: VertexId, faults: &FaultSet, w: &mut WireWriter) {
    w.put_u32(u.as_u32());
    w.put_u32(v.as_u32());
    encode_fault_set(faults, w);
}

fn decode_query_parts(r: &mut WireReader<'_>) -> Result<(VertexId, VertexId, FaultSet), WireError> {
    let u = vid(r.u32()? as usize);
    let v = vid(r.u32()? as usize);
    let faults = decode_fault_set(r)?;
    Ok((u, v, faults))
}

/// Encodes a request into a frame body.
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut w = WireWriter::new();
    match request {
        Request::Distance { u, v, faults } => {
            w.put_u8(OP_DIST);
            encode_query_parts(*u, *v, faults, &mut w);
        }
        Request::Path { u, v, faults } => {
            w.put_u8(OP_PATH);
            encode_query_parts(*u, *v, faults, &mut w);
        }
        Request::Batch(queries) => {
            w.put_u8(OP_BATCH);
            w.put_len(queries.len());
            for q in queries {
                w.put_u8(match q.kind {
                    QueryKind::Distance => 0,
                    QueryKind::Path => 1,
                });
                encode_query_parts(q.u, q.v, &q.faults, &mut w);
            }
        }
        Request::Wave(faults) => {
            w.put_u8(OP_WAVE);
            encode_fault_set(faults, &mut w);
        }
        Request::Metrics => w.put_u8(OP_METRICS),
        Request::Snapshot => w.put_u8(OP_SNAPSHOT),
        Request::JournalSubscribe { from_epoch } => {
            w.put_u8(OP_JOURNAL_SUBSCRIBE);
            w.put_u64(*from_epoch);
        }
        Request::Promote => w.put_u8(OP_PROMOTE),
    }
    w.into_vec()
}

/// Decodes a frame body into a request.
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    let mut r = WireReader::new(body);
    let request = match r.u8()? {
        OP_DIST => {
            let (u, v, faults) = decode_query_parts(&mut r)?;
            Request::Distance { u, v, faults }
        }
        OP_PATH => {
            let (u, v, faults) = decode_query_parts(&mut r)?;
            Request::Path { u, v, faults }
        }
        OP_BATCH => {
            let count = r.len(10)?;
            let mut queries = Vec::with_capacity(count);
            for _ in 0..count {
                let kind = match r.u8()? {
                    0 => QueryKind::Distance,
                    1 => QueryKind::Path,
                    tag => return Err(WireError::malformed(format!("unknown query kind {tag}"))),
                };
                let (u, v, faults) = decode_query_parts(&mut r)?;
                queries.push(match kind {
                    QueryKind::Distance => Query::distance(u, v, faults),
                    QueryKind::Path => Query::path(u, v, faults),
                });
            }
            Request::Batch(queries)
        }
        OP_WAVE => Request::Wave(decode_fault_set(&mut r)?),
        OP_METRICS => Request::Metrics,
        OP_SNAPSHOT => Request::Snapshot,
        OP_JOURNAL_SUBSCRIBE => Request::JournalSubscribe {
            from_epoch: r.u64()?,
        },
        OP_PROMOTE => Request::Promote,
        op => return Err(WireError::malformed(format!("unknown opcode {op}"))),
    };
    r.finish()?;
    Ok(request)
}

fn encode_answer(answer: &WireAnswer, w: &mut WireWriter) {
    match answer.distance {
        None => w.put_u8(0),
        Some(d) => {
            w.put_u8(1);
            w.put_f64(d);
        }
    }
    match &answer.path {
        None => w.put_u8(0),
        Some(path) => {
            w.put_u8(1);
            w.put_len(path.len());
            for &v in path {
                w.put_u32(v.as_u32());
            }
        }
    }
}

fn decode_answer(r: &mut WireReader<'_>) -> Result<WireAnswer, WireError> {
    let distance = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        tag => return Err(WireError::malformed(format!("bad distance tag {tag}"))),
    };
    let path = match r.u8()? {
        0 => None,
        1 => {
            let len = r.len(4)?;
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(vid(r.u32()? as usize));
            }
            Some(path)
        }
        tag => return Err(WireError::malformed(format!("bad path tag {tag}"))),
    };
    Ok(WireAnswer { distance, path })
}

/// Encodes a reply into a frame body.
#[must_use]
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut w = WireWriter::new();
    encode_reply_into(reply, &mut w);
    w.into_vec()
}

/// Encodes a reply into a reusable [`WireWriter`], clearing it first. The
/// server's per-connection reply loop calls this with one long-lived
/// writer, so a reply costs zero allocations once the buffer has grown to
/// the connection's working size — on the loopback batch path the
/// allocation was a measurable share of the per-frame tax.
pub fn encode_reply_into(reply: &Reply, w: &mut WireWriter) {
    w.clear();
    match reply {
        Reply::Answer(answer) => {
            w.put_u8(REPLY_ANSWER);
            encode_answer(answer, w);
        }
        Reply::Batch(entries) => {
            w.put_u8(REPLY_BATCH);
            w.put_len(entries.len());
            for entry in entries {
                match entry {
                    BatchEntry::Answered(answer) => {
                        w.put_u8(0);
                        encode_answer(answer, w);
                    }
                    BatchEntry::Shed => w.put_u8(1),
                }
            }
        }
        Reply::Wave(summary) => {
            w.put_u8(REPLY_WAVE);
            w.put_u64(summary.epoch);
            w.put_u64(summary.edges_added);
            w.put_u64(summary.broken_pairs);
            w.put_u8(u8::from(summary.escalated));
            w.put_len(summary.rebuilt_lanes.len());
            for &lane in &summary.rebuilt_lanes {
                w.put_u32(lane);
            }
        }
        Reply::Metrics(text) => {
            w.put_u8(REPLY_METRICS);
            w.put_bytes(text.as_bytes());
        }
        Reply::SnapshotChunk {
            total,
            offset,
            data,
        } => {
            w.put_u8(REPLY_SNAPSHOT_CHUNK);
            w.put_u64(*total);
            w.put_u64(*offset);
            w.put_bytes(data);
        }
        Reply::Shed(reason) => {
            w.put_u8(REPLY_SHED);
            w.put_u8(match reason {
                ShedReason::RateLimited => 0,
                ShedReason::Admission => 1,
                ShedReason::Timeout => 2,
            });
        }
        Reply::Error(message) => {
            w.put_u8(REPLY_ERROR);
            w.put_bytes(message.as_bytes());
        }
        Reply::JournalEntries(entries) => {
            w.put_u8(REPLY_JOURNAL_ENTRIES);
            w.put_len(entries.len());
            for entry in entries {
                encode_journal_entry(entry, w);
            }
        }
        Reply::Promoted { epoch } => {
            w.put_u8(REPLY_PROMOTED);
            w.put_u64(*epoch);
        }
    }
}

/// Decodes a frame body into a reply.
pub fn decode_reply(body: &[u8]) -> Result<Reply, WireError> {
    let mut r = WireReader::new(body);
    let reply = match r.u8()? {
        REPLY_ANSWER => Reply::Answer(decode_answer(&mut r)?),
        REPLY_BATCH => {
            let count = r.len(1)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push(match r.u8()? {
                    0 => BatchEntry::Answered(decode_answer(&mut r)?),
                    1 => BatchEntry::Shed,
                    tag => return Err(WireError::malformed(format!("bad batch entry tag {tag}"))),
                });
            }
            Reply::Batch(entries)
        }
        REPLY_WAVE => {
            let epoch = r.u64()?;
            let edges_added = r.u64()?;
            let broken_pairs = r.u64()?;
            let escalated = r.u8()? != 0;
            let lane_count = r.len(4)?;
            let mut rebuilt_lanes = Vec::with_capacity(lane_count);
            for _ in 0..lane_count {
                rebuilt_lanes.push(r.u32()?);
            }
            Reply::Wave(WaveSummary {
                epoch,
                edges_added,
                broken_pairs,
                escalated,
                rebuilt_lanes,
            })
        }
        REPLY_METRICS => Reply::Metrics(
            String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| WireError::malformed("metrics text is not UTF-8"))?,
        ),
        REPLY_SNAPSHOT_CHUNK => {
            let total = r.u64()?;
            let offset = r.u64()?;
            let data = r.bytes()?.to_vec();
            Reply::SnapshotChunk {
                total,
                offset,
                data,
            }
        }
        REPLY_SHED => Reply::Shed(match r.u8()? {
            0 => ShedReason::RateLimited,
            1 => ShedReason::Admission,
            2 => ShedReason::Timeout,
            tag => return Err(WireError::malformed(format!("bad shed reason {tag}"))),
        }),
        REPLY_ERROR => Reply::Error(
            String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| WireError::malformed("error text is not UTF-8"))?,
        ),
        REPLY_JOURNAL_ENTRIES => {
            let count = r.len(25)?;
            let mut entries = Vec::with_capacity(count);
            for index in 0..count {
                entries.push(
                    decode_journal_entry(&mut r, index)
                        .map_err(|e| WireError::malformed(e.to_string()))?,
                );
            }
            Reply::JournalEntries(entries)
        }
        REPLY_PROMOTED => Reply::Promoted { epoch: r.u64()? },
        tag => return Err(WireError::malformed(format!("unknown reply tag {tag}"))),
    };
    r.finish()?;
    Ok(reply)
}

/// One frame as read off the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// The body's checksum matched; these bytes are safe to decode.
    Intact(Vec<u8>),
    /// The body's checksum did not match. The frame was still consumed in
    /// full — the stream stays aligned on the next frame boundary — but
    /// the bytes must **not** be deserialized. A server answers with a
    /// typed [`Reply::Error`]; a client surfaces an
    /// [`InvalidData`](io::ErrorKind::InvalidData) error.
    Corrupt,
}

impl Frame {
    /// The intact body, or an `InvalidData` error for a corrupt frame —
    /// the client-side default; servers match on the variant instead so
    /// they can answer and keep the connection.
    pub fn into_intact(self) -> io::Result<Vec<u8>> {
        match self {
            Self::Intact(body) => Ok(body),
            Self::Corrupt => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame body failed its checksum",
            )),
        }
    }
}

/// Writes one frame: `u32` body length, `u64` FNV-1a-64 body checksum,
/// then the body.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME_LEN);
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame body too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(&fnv1a64(body).to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream at a
/// frame boundary; mid-frame EOF and oversized lengths are errors, and a
/// checksum mismatch is [`Frame::Corrupt`] (fully consumed, never
/// deserialized).
/// [`ErrorKind::Interrupted`](io::ErrorKind::Interrupted) reads are
/// retried at every position — including the very first header byte, so a
/// signal landing between frames never kills a healthy connection.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; 12];
    let mut filled = 0usize;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
    let checksum = u64::from_le_bytes(header[4..].try_into().expect("8-byte slice"));
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte limit"),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    if fnv1a64(&body) != checksum {
        return Ok(Some(Frame::Corrupt));
    }
    Ok(Some(Frame::Intact(body)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan::FaultModel;
    use ftspan_graph::eid;

    fn round_trip_request(request: &Request) -> Request {
        decode_request(&encode_request(request)).expect("request decodes")
    }

    fn round_trip_reply(reply: &Reply) -> Reply {
        decode_reply(&encode_reply(reply)).expect("reply decodes")
    }

    #[test]
    fn requests_round_trip() {
        let faults = FaultSet::vertices([vid(3), vid(9)]);
        for request in [
            Request::Distance {
                u: vid(0),
                v: vid(5),
                faults: faults.clone(),
            },
            Request::Path {
                u: vid(2),
                v: vid(7),
                faults: FaultSet::edges([eid(1)]),
            },
            Request::Batch(vec![
                Query::distance(vid(0), vid(1), faults.clone()),
                Query::path(vid(1), vid(2), FaultSet::empty(FaultModel::Edge)),
            ]),
            Request::Wave(faults),
            Request::Metrics,
            Request::Snapshot,
            Request::JournalSubscribe { from_epoch: 42 },
            Request::Promote,
        ] {
            assert_eq!(round_trip_request(&request), request);
        }
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            Reply::Answer(WireAnswer {
                distance: Some(3.5),
                path: Some(vec![vid(0), vid(4), vid(9)]),
            }),
            Reply::Answer(WireAnswer {
                distance: None,
                path: None,
            }),
            Reply::Batch(vec![
                BatchEntry::Answered(WireAnswer {
                    distance: Some(1.0),
                    path: None,
                }),
                BatchEntry::Shed,
            ]),
            Reply::Wave(WaveSummary {
                epoch: 3,
                edges_added: 7,
                broken_pairs: 2,
                escalated: true,
                rebuilt_lanes: vec![0, 2],
            }),
            Reply::Metrics("ftspan_queries_total 5\n".to_owned()),
            Reply::SnapshotChunk {
                total: 10,
                offset: 4,
                data: vec![1, 2, 3],
            },
            Reply::Shed(ShedReason::RateLimited),
            Reply::Shed(ShedReason::Admission),
            Reply::Shed(ShedReason::Timeout),
            Reply::Error("nope".to_owned()),
            Reply::JournalEntries(vec![JournalEntry {
                epoch: 7,
                wave: FaultSet::vertices([vid(1), vid(5)]),
                report_digest: 0xDEAD_BEEF,
            }]),
            Reply::Promoted { epoch: 12 },
        ] {
            assert_eq!(round_trip_reply(&reply), reply);
        }
    }

    #[test]
    fn reply_encoding_reuses_the_connection_buffer() {
        let mut w = WireWriter::new();
        let reply = Reply::Shed(ShedReason::Admission);
        encode_reply_into(&reply, &mut w);
        let first = w.as_slice().to_vec();
        // A second encode must clear, not append.
        encode_reply_into(&reply, &mut w);
        assert_eq!(w.as_slice(), &first[..]);
        assert_eq!(first, encode_reply(&reply));
    }

    #[test]
    fn corrupt_journal_entry_in_a_reply_is_rejected() {
        let mut bytes = encode_reply(&Reply::JournalEntries(vec![JournalEntry {
            epoch: 3,
            wave: FaultSet::vertices([vid(2)]),
            report_digest: 99,
        }]));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10; // damage the entry checksum itself
        assert!(decode_reply(&bytes).is_err());
    }

    #[test]
    fn distance_bits_survive_the_wire() {
        let exact = 0.1 + 0.2; // not representable as a short decimal
        let Reply::Answer(a) = round_trip_reply(&Reply::Answer(WireAnswer {
            distance: Some(exact),
            path: None,
        })) else {
            panic!("wrong reply variant");
        };
        assert_eq!(a.distance.unwrap().to_bits(), exact.to_bits());
    }

    #[test]
    fn garbage_is_rejected_not_panicked_on() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err());
        assert!(decode_reply(&[99]).is_err());
        // Trailing bytes after a complete request are an error.
        let mut bytes = encode_request(&Request::Metrics);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap(),
            Frame::Intact(b"hello".to_vec())
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap(),
            Frame::Intact(Vec::new())
        );
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn corrupt_bodies_are_detected_and_the_stream_stays_aligned() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"poisoned").unwrap();
        write_frame(&mut buf, b"fine").unwrap();
        buf[15] ^= 0x55; // flip a byte inside the first frame's body
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), Frame::Corrupt);
        // The corrupt frame was consumed in full: the next one is intact.
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap(),
            Frame::Intact(b"fine".to_vec())
        );
        assert!(read_frame(&mut cursor).unwrap().is_none());
        assert_eq!(
            Frame::Corrupt.into_intact().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn oversized_frame_lengths_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // checksum field
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// Injects an `Interrupted` error before every real read, and delivers
    /// the real bytes one at a time — the worst-case signal-storm stream.
    struct InterruptingReader<R> {
        inner: R,
        interrupt_next: bool,
    }

    impl<R: io::Read> io::Read for InterruptingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            self.interrupt_next = true;
            let len = buf.len().min(1);
            self.inner.read(&mut buf[..len])
        }
    }

    #[test]
    fn interrupted_reads_are_retried_even_on_the_first_header_byte() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"resilient").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut stream = InterruptingReader {
            inner: io::Cursor::new(buf),
            interrupt_next: true, // the very first header read is interrupted
        };
        assert_eq!(
            read_frame(&mut stream).unwrap().unwrap(),
            Frame::Intact(b"resilient".to_vec())
        );
        assert_eq!(
            read_frame(&mut stream).unwrap().unwrap(),
            Frame::Intact(Vec::new())
        );
        assert!(read_frame(&mut stream).unwrap().is_none());
    }

    #[test]
    fn eof_inside_the_header_is_an_error_not_a_clean_close() {
        let mut cursor = io::Cursor::new(vec![5u8, 0]);
        let err = read_frame(&mut cursor).expect_err("mid-header EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
