//! The bdbms wire protocol.
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! [u32 LE: length of kind + payload][u8: kind][payload bytes]
//! ```
//!
//! The kind byte and the payload are the message's encoding under the
//! shared codec ([`bdbms_common::codec`]), the one WAL records and
//! checkpoint snapshots use: integers are little-endian fixed-width,
//! strings are `u32 length || utf8 bytes`, values reuse the storage
//! encoding ([`Value::encode`]: `tag byte || payload`), and options are
//! a presence byte (0 or 1) followed by the payload.  The protocol is
//! synchronous request/response — the client writes one request frame
//! and reads exactly one response frame (row data is paged explicitly
//! with [`Request::Fetch`], so a large result never monopolizes the
//! connection).
//!
//! Errors cross the wire losslessly: an [`Response::Error`] frame
//! carries the [`ErrorCode`](bdbms_common::ErrorCode) (one byte,
//! exhaustively mapped), the message text, and the optional byte
//! [`Span`](bdbms_common::Span) into the offending SQL — a remote
//! client reconstructs the exact [`BdbmsError`] the engine raised.  See
//! `docs/SERVER.md` for the full frame catalog.

use std::io::{Read, Write};

use bdbms_common::codec::{decode_exact, Cur, Decode, Encode};
use bdbms_common::metrics::MetricsSnapshot;
use bdbms_common::{BdbmsError, Result, Value};
use bdbms_core::result::{AnnRow, QueryResult};

/// Protocol version, negotiated in `Hello` / `HelloOk`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a single frame (64 MiB) — a garbage length prefix
/// must not allocate unbounded memory.
pub const MAX_FRAME: u32 = 64 << 20;

/// Default rows per [`Request::Fetch`] batch used by clients.
pub const DEFAULT_FETCH_ROWS: u32 = 256;

// ---- frame kinds ----

const K_HELLO: u8 = 0x01;
const K_PREPARE: u8 = 0x02;
const K_EXECUTE: u8 = 0x03;
const K_QUERY: u8 = 0x04;
const K_FETCH: u8 = 0x05;
const K_CLOSE_STMT: u8 = 0x06;
const K_CLOSE_CURSOR: u8 = 0x07;
const K_RUN: u8 = 0x08;
const K_SET_USER: u8 = 0x09;
const K_PING: u8 = 0x0A;
const K_QUIT: u8 = 0x0B;
const K_METRICS: u8 = 0x0C;

const K_HELLO_OK: u8 = 0x81;
const K_PREPARE_OK: u8 = 0x82;
const K_RESULT: u8 = 0x83;
const K_CURSOR_OK: u8 = 0x84;
const K_ROW_BATCH: u8 = 0x85;
const K_OK: u8 = 0x86;
const K_PONG: u8 = 0x87;
const K_BYE: u8 = 0x88;
const K_METRICS_OK: u8 = 0x89;
const K_ERROR: u8 = 0x8F;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// First frame on a connection: authenticate as `user`.
    Hello { user: String },
    /// Parse + cache a statement server-side; answered by `PrepareOk`.
    Prepare { sql: String },
    /// Bind + execute a prepared statement, materializing the result.
    Execute { stmt: u64, params: Vec<Value> },
    /// Bind + run a prepared SELECT; answered by `CursorOk`, then rows
    /// are pulled with `Fetch`.
    Query { stmt: u64, params: Vec<Value> },
    /// Pull up to `max_rows` rows from an open cursor.
    Fetch { cursor: u64, max_rows: u32 },
    /// Discard a prepared statement.
    CloseStmt { stmt: u64 },
    /// Discard an open cursor before exhaustion.
    CloseCursor { cursor: u64 },
    /// Parse + execute a parameter-less statement in one step.
    Run { sql: String },
    /// Switch the acting user for subsequent statements.
    SetUser { user: String },
    /// Liveness probe; answered by `Pong` without touching the engine.
    Ping,
    /// Orderly goodbye; answered by `Bye`, then the connection closes.
    Quit,
    /// Snapshot the server's metrics registry; answered by `Metrics`.
    Metrics,
}

bdbms_common::codec_enum!(Request, "request kind", {
    K_HELLO [Version] => Hello { user },
    K_PREPARE => Prepare { sql },
    K_EXECUTE => Execute { stmt, params },
    K_QUERY => Query { stmt, params },
    K_FETCH => Fetch { cursor, max_rows },
    K_CLOSE_STMT => CloseStmt { stmt },
    K_CLOSE_CURSOR => CloseCursor { cursor },
    K_RUN => Run { sql },
    K_SET_USER => SetUser { user },
    K_PING => Ping,
    K_QUIT => Quit,
    K_METRICS => Metrics,
});

/// The [`PROTOCOL_VERSION`] a `Hello` payload opens with.  Decoding any
/// other version fails, so a mismatched client is refused at the
/// handshake.
struct Version;

impl Encode for Version {
    fn encode(&self, out: &mut Vec<u8>) {
        PROTOCOL_VERSION.encode(out);
    }
}

impl Decode for Version {
    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        match cur.get::<u32>()? {
            PROTOCOL_VERSION => Ok(Version),
            v => Err(BdbmsError::corrupt(format!(
                "protocol version mismatch: client {v}, server {PROTOCOL_VERSION}"
            ))),
        }
    }
}

/// A server→client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// `Hello` accepted.
    HelloOk { version: u32, server: String },
    /// Statement parsed and cached under `stmt`.
    PrepareOk {
        stmt: u64,
        param_count: u32,
        in_txn: bool,
    },
    /// A materialized statement result.
    Result { result: QueryResult, in_txn: bool },
    /// A cursor is open; pull rows with `Fetch`.
    CursorOk {
        cursor: u64,
        columns: Vec<String>,
        in_txn: bool,
    },
    /// Up to `max_rows` rows; `done` means the cursor is exhausted and
    /// already closed server-side.
    RowBatch { rows: Vec<AnnRow>, done: bool },
    /// Command acknowledged (`CloseStmt` / `CloseCursor` / `SetUser`).
    Ok { in_txn: bool },
    /// Liveness reply.
    Pong,
    /// Goodbye acknowledgment.
    Bye,
    /// Point-in-time copy of the engine's metrics registry.
    Metrics { snapshot: MetricsSnapshot },
    /// The command failed; the full engine error, round-tripped.
    Error { error: BdbmsError, in_txn: bool },
}

bdbms_common::codec_enum!(Response, "response kind", {
    K_HELLO_OK => HelloOk { version, server },
    K_PREPARE_OK => PrepareOk { stmt, param_count, in_txn },
    K_RESULT => Result { result, in_txn },
    K_CURSOR_OK => CursorOk { cursor, columns, in_txn },
    K_ROW_BATCH => RowBatch { rows, done },
    K_OK => Ok { in_txn },
    K_PONG => Pong,
    K_BYE => Bye,
    K_METRICS_OK => Metrics { snapshot },
    K_ERROR => Error { error, in_txn },
});

impl Response {
    /// The explicit-transaction flag piggybacked on this response, when
    /// it carries one (clients mirror it into their prompt state).
    pub fn in_txn(&self) -> Option<bool> {
        match self {
            Response::PrepareOk { in_txn, .. }
            | Response::Result { in_txn, .. }
            | Response::CursorOk { in_txn, .. }
            | Response::Ok { in_txn }
            | Response::Error { in_txn, .. } => Some(*in_txn),
            _ => None,
        }
    }
}

fn bad(m: impl Into<String>) -> BdbmsError {
    BdbmsError::corrupt(format!("wire protocol: {}", m.into()))
}

// ---- framing ----

/// Write `msg` as one frame — length prefix, kind byte, payload — in a
/// single write.
fn write_frame(w: &mut impl Write, msg: &impl Encode) -> Result<()> {
    let mut buf = vec![0u8; 4];
    msg.encode(&mut buf);
    let len = buf.len() - 4;
    if len > MAX_FRAME as usize {
        return Err(bad(format!("frame too large ({len} bytes)")));
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&buf)?;
    Ok(())
}

/// Read one frame and decode its kind byte and payload as a `T`.
/// `Ok(None)` = clean EOF at a frame boundary.
fn read_frame<T: Decode>(r: &mut impl Read) -> Result<Option<T>> {
    let mut lenb = [0u8; 4];
    // distinguish clean EOF (no bytes at all) from a torn frame
    match r.read(&mut lenb)? {
        0 => return Ok(None),
        n => r.read_exact(&mut lenb[n..])?,
    }
    let len = u32::from_le_bytes(lenb);
    if len == 0 || len > MAX_FRAME {
        return Err(bad(format!("bad frame length {len}")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    decode_exact(&body).map(Some).map_err(|e| bad(e.message))
}

/// Write one request frame (caller flushes the stream).
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<()> {
    write_frame(w, req)
}

/// Read one request frame.  `Ok(None)` = the peer closed cleanly.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>> {
    read_frame(r)
}

/// Write one response frame (caller flushes the stream).
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<()> {
    write_frame(w, resp)
}

/// Read one response frame.  EOF is an error here — the server must
/// answer every request (a vanished server mid-commit is precisely the
/// unknown-outcome case clients must see loudly).
pub fn read_response(r: &mut impl Read) -> Result<Response> {
    read_frame(r)?.ok_or_else(|| BdbmsError::io("connection closed by server"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdbms_common::metrics::HistogramSnapshot;
    use bdbms_common::{ErrorCode, Span};
    use bdbms_core::executor::ExecStats;
    use bdbms_core::result::AnnOut;
    use bdbms_core::xml::XmlNode;
    use std::rc::Rc;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let back = read_request(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_resp(resp: Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        // results/rows carry Rc-shared parsed annotation bodies without
        // PartialEq; structural Debug equality is exactly the lossless-
        // round-trip claim being tested
        assert_eq!(format!("{back:?}"), format!("{resp:?}"));
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_req(Request::Hello {
            user: "admin".into(),
        });
        roundtrip_req(Request::Prepare {
            sql: "SELECT * FROM Gene WHERE Len = ?".into(),
        });
        roundtrip_req(Request::Execute {
            stmt: 3,
            params: vec![
                Value::Null,
                Value::Int(-7),
                Value::Float(2.5),
                Value::Text("mraW".into()),
                Value::Bool(true),
                Value::Timestamp(99),
            ],
        });
        roundtrip_req(Request::Query {
            stmt: 9,
            params: vec![],
        });
        roundtrip_req(Request::Fetch {
            cursor: 4,
            max_rows: 128,
        });
        roundtrip_req(Request::CloseStmt { stmt: 3 });
        roundtrip_req(Request::CloseCursor { cursor: 4 });
        roundtrip_req(Request::Run {
            sql: "BEGIN".into(),
        });
        roundtrip_req(Request::SetUser {
            user: "alice".into(),
        });
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Quit);
        roundtrip_req(Request::Metrics);
    }

    #[test]
    fn exec_stats_round_trip() {
        let result = QueryResult {
            columns: vec!["x".into()],
            rows: vec![],
            affected: 0,
            message: None,
            stats: Some(ExecStats {
                rows_fetched: 10,
                rows_scan_filtered: 3,
                index_probes: 2,
                seq_index_probes: 1,
                full_scans: 4,
                index_only_scans: 1,
                anns_attached: 7,
                chosen_indexes: vec!["gene_gid".into()],
                join_order: vec![1, 0],
                limit_pushdowns: 1,
                rows_limit_discarded: 5,
                scan_batches: 6,
                parse_ns: 1_000,
                plan_ns: 2_000,
                exec_ns: 3_000,
            }),
        };
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::Result {
                result: result.clone(),
                in_txn: false,
            },
        )
        .unwrap();
        let Response::Result { result: got, .. } = read_response(&mut buf.as_slice()).unwrap()
        else {
            panic!("wrong frame");
        };
        assert_eq!(got.stats, result.stats);
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        let snapshot = MetricsSnapshot {
            counters: vec![("buffer.hits".into(), 42), ("txn.commits".into(), 7)],
            gauges: vec![("group.fsync_ema_ns".into(), 125_000)],
            histograms: vec![(
                "wal.fsync_latency_ns".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 300_000,
                    buckets: vec![(131_071, 3)],
                },
            )],
        };
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::Metrics {
                snapshot: snapshot.clone(),
            },
        )
        .unwrap();
        let Response::Metrics { snapshot: got } = read_response(&mut buf.as_slice()).unwrap()
        else {
            panic!("wrong frame");
        };
        assert_eq!(got, snapshot);
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_resp(Response::HelloOk {
            version: PROTOCOL_VERSION,
            server: "bdbms 0.1.0".into(),
        });
        roundtrip_resp(Response::PrepareOk {
            stmt: 1,
            param_count: 2,
            in_txn: false,
        });
        roundtrip_resp(Response::CursorOk {
            cursor: 7,
            columns: vec!["GID".into(), "GName".into()],
            in_txn: true,
        });
        roundtrip_resp(Response::Ok { in_txn: false });
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Bye);
    }

    #[test]
    fn annotated_rows_round_trip() {
        let ann = Rc::new(AnnOut {
            source_table: "DB2_Gene".into(),
            ann_table: "GAnnotation".into(),
            id: 12,
            raw: "<Annotation>obtained from GenoBase</Annotation>".into(),
            body: XmlNode::parse_or_wrap("<Annotation>obtained from GenoBase</Annotation>"),
            created: 42,
        });
        let mut row = AnnRow::plain(vec![Value::Text("JW0080".into()), Value::Int(11)]);
        row.anns[0].push(ann.clone());
        row.anns[0].push(ann.clone());
        let result = QueryResult {
            columns: vec!["GID".into(), "Len".into()],
            rows: vec![row.clone(), AnnRow::plain(vec![Value::Null, Value::Null])],
            affected: 0,
            message: Some("ok".into()),
            stats: None,
        };
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::Result {
                result: result.clone(),
                in_txn: false,
            },
        )
        .unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        let Response::Result { result: got, .. } = back else {
            panic!("wrong frame");
        };
        assert_eq!(got.columns, result.columns);
        assert_eq!(got.rows.len(), 2);
        assert_eq!(got.rows[0].values, row.values);
        // annotation body is re-derived from raw text and must match
        let got_ann = &got.rows[0].anns[0][0];
        assert_eq!(got_ann.identity(), ann.identity());
        assert_eq!(got_ann.text(), "obtained from GenoBase");
        assert_eq!(got_ann.created, 42);
        roundtrip_resp(Response::RowBatch {
            rows: vec![row],
            done: true,
        });
    }

    /// The acceptance-criteria test: every [`ErrorCode`] variant and the
    /// span round-trip exactly through an error frame.
    #[test]
    fn every_error_code_round_trips() {
        for (i, code) in ErrorCode::ALL.into_iter().enumerate() {
            // wire bytes are stable and distinct
            let mut byte = Vec::new();
            code.encode(&mut byte);
            assert_eq!(byte, [i as u8]);
            assert_eq!(decode_exact::<ErrorCode>(&byte).unwrap(), code);

            for span in [None, Some(Span::new(7, 19))] {
                let error = BdbmsError {
                    code,
                    message: format!("synthetic {} failure", code.as_str()),
                    span,
                };
                let resp = Response::Error {
                    error: error.clone(),
                    in_txn: true,
                };
                let mut buf = Vec::new();
                write_response(&mut buf, &resp).unwrap();
                let Response::Error { error: got, in_txn } =
                    read_response(&mut buf.as_slice()).unwrap()
                else {
                    panic!("wrong frame");
                };
                assert_eq!(got, error, "lossy round-trip for {code:?}");
                assert!(in_txn);
            }
        }
        assert!(decode_exact::<ErrorCode>(&[14]).is_err());
    }

    /// A malformed value inside a frame is Corrupt like every other
    /// malformed frame, although the value decoder itself (shared with
    /// the heap) reports Storage.
    #[test]
    fn malformed_values_in_frames_are_corrupt() {
        let mut frame = Vec::new();
        let params = vec![Value::Text("abc".into())];
        write_request(&mut frame, &Request::Execute { stmt: 1, params }).unwrap();
        let mut bad_utf8 = frame.clone();
        let n = bad_utf8.len();
        bad_utf8[n - 3] = 0xff;
        // one byte short of its text, with a length prefix to match
        let mut short = frame[..n - 1].to_vec();
        short[..4].copy_from_slice(&(n as u32 - 5).to_le_bytes());
        for bytes in [bad_utf8, short] {
            let err = read_request(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.code(), ErrorCode::Corrupt, "{err}");
        }
    }

    #[test]
    fn clean_eof_is_none_torn_frame_is_error() {
        let mut empty: &[u8] = &[];
        assert!(read_request(&mut empty).unwrap().is_none());

        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        // length prefix present but the body is missing: torn frame
        let mut torn: &[u8] = &buf[..4];
        assert!(read_request(&mut torn).is_err());
        // partial length prefix: also torn
        let mut short: &[u8] = &buf[..3];
        assert!(read_request(&mut short).is_err());
    }

    #[test]
    fn oversized_and_garbage_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.push(K_PING);
        assert!(read_request(&mut buf.as_slice()).is_err());

        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0x7F, 0x00]); // unknown kind
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    // ---- golden bytes ----
    //
    // One frame of every request and response kind, pinned byte for
    // byte: a client and a server built from different versions of this
    // file must still understand each other.  A change here is a
    // protocol change and needs a new PROTOCOL_VERSION.

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn golden_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                user: "admin".into(),
            },
            Request::Prepare {
                sql: "SELECT GID FROM Gene WHERE Len = ?".into(),
            },
            Request::Execute {
                stmt: 3,
                params: vec![
                    Value::Null,
                    Value::Int(-7),
                    Value::Float(2.5),
                    Value::Text("mraW".into()),
                    Value::Bool(true),
                    Value::Timestamp(99),
                ],
            },
            Request::Query {
                stmt: 9,
                params: vec![Value::Int(11)],
            },
            Request::Fetch {
                cursor: 4,
                max_rows: 256,
            },
            Request::CloseStmt { stmt: 3 },
            Request::CloseCursor { cursor: 4 },
            Request::Run {
                sql: "BEGIN".into(),
            },
            Request::SetUser {
                user: "alice".into(),
            },
            Request::Ping,
            Request::Quit,
            Request::Metrics,
        ]
    }

    fn golden_responses() -> Vec<Response> {
        let ann = Rc::new(AnnOut {
            source_table: "Gene".into(),
            ann_table: "Curation".into(),
            id: 12,
            raw: "<A>x</A>".into(),
            body: XmlNode::parse_or_wrap("<A>x</A>"),
            created: 42,
        });
        let mut row = AnnRow::plain(vec![Value::Text("JW0080".into()), Value::Int(11)]);
        row.anns[1].push(ann);
        let result = QueryResult {
            columns: vec!["GID".into(), "Len".into()],
            rows: vec![row.clone()],
            affected: 1,
            message: Some("ok".into()),
            stats: Some(ExecStats {
                rows_fetched: 10,
                rows_scan_filtered: 3,
                index_probes: 2,
                seq_index_probes: 1,
                full_scans: 4,
                index_only_scans: 1,
                anns_attached: 7,
                chosen_indexes: vec!["len_idx".into()],
                join_order: vec![1, 0],
                limit_pushdowns: 1,
                rows_limit_discarded: 5,
                scan_batches: 6,
                parse_ns: 1_000,
                plan_ns: 2_000,
                exec_ns: 3_000,
            }),
        };
        vec![
            Response::HelloOk {
                version: PROTOCOL_VERSION,
                server: "bdbms".into(),
            },
            Response::PrepareOk {
                stmt: 1,
                param_count: 2,
                in_txn: false,
            },
            Response::Result {
                result,
                in_txn: true,
            },
            Response::CursorOk {
                cursor: 7,
                columns: vec!["GID".into()],
                in_txn: false,
            },
            Response::RowBatch {
                rows: vec![row],
                done: true,
            },
            Response::Ok { in_txn: true },
            Response::Pong,
            Response::Bye,
            Response::Metrics {
                snapshot: MetricsSnapshot {
                    counters: vec![("txn.commits".into(), 7)],
                    gauges: vec![("group.fsync_ema_ns".into(), 125)],
                    histograms: vec![(
                        "wal.fsync_latency_ns".into(),
                        HistogramSnapshot {
                            count: 3,
                            sum: 300,
                            buckets: vec![(127, 3)],
                        },
                    )],
                },
            },
            Response::Error {
                error: BdbmsError {
                    code: ErrorCode::Syntax,
                    message: "unexpected token".into(),
                    span: Some(Span::new(7, 12)),
                },
                in_txn: false,
            },
        ]
    }

    /// `golden_requests()` framed by [`write_request`], in order.
    const GOLDEN_REQUEST_FRAMES: [&str; 12] = [
        "0e00000001010000000500000061646d696e",
        "27000000022200000053454c454354204749442046524f4d2047656e65205748455245204c656e203d203f",
        concat!(
            "34000000030300000000000000060000000001f9ffffffffffffff02000000000000044003040000",
            "006d7261570401056300000000000000",
        ),
        "1600000004090000000000000001000000010b00000000000000",
        "0d00000005040000000000000000010000",
        "09000000060300000000000000",
        "09000000070400000000000000",
        "0a0000000805000000424547494e",
        "0a0000000905000000616c696365",
        "010000000a",
        "010000000b",
        "010000000c",
    ];

    /// `golden_responses()` framed by [`write_response`], in order.
    const GOLDEN_RESPONSE_FRAMES: [&str; 10] = [
        "0e0000008101000000050000006264626d73",
        "0e0000008201000000000000000200000000",
        concat!(
            "07010000830200000003000000474944030000004c656e010000000200000003060000004a573030",
            "3830010b000000000000000200000000000000010000000400000047656e65080000004375726174",
            "696f6e0c00000000000000080000003c413e783c2f413e2a00000000000000010000000000000001",
            "020000006f6b010a0000000000000003000000000000000200000000000000010000000000000004",
            "00000000000000010000000000000007000000000000000100000000000000050000000000000006",
            "00000000000000e803000000000000d007000000000000b80b00000000000001000000070000006c",
            "656e5f696478020000000100000000000000000000000000000001",
        ),
        "15000000840700000000000000010000000300000047494400",
        concat!(
            "5a00000085010000000200000003060000004a5730303830010b0000000000000002000000000000",
            "00010000000400000047656e65080000004375726174696f6e0c00000000000000080000003c413e",
            "783c2f413e2a0000000000000001",
        ),
        "020000008601",
        "0100000087",
        "0100000088",
        concat!(
            "7e00000089010000000b00000074786e2e636f6d6d69747307000000000000000100000012000000",
            "67726f75702e6673796e635f656d615f6e737d00000000000000010000001400000077616c2e6673",
            "796e635f6c6174656e63795f6e7303000000000000002c01000000000000010000007f0000000000",
            "00000300000000000000",
        ),
        "280000008f0010000000756e657870656374656420746f6b656e0107000000000000000c0000000000000000",
    ];

    #[test]
    fn request_frames_match_golden_bytes() {
        let reqs = golden_requests();
        assert_eq!(reqs.len(), GOLDEN_REQUEST_FRAMES.len());
        for (req, want) in reqs.iter().zip(GOLDEN_REQUEST_FRAMES) {
            let mut buf = Vec::new();
            write_request(&mut buf, req).unwrap();
            assert_eq!(hex(&buf), want, "format drift for {req:?}");
            let back = read_request(&mut unhex(want).as_slice()).unwrap();
            assert_eq!(back.as_ref(), Some(req));
        }
    }

    #[test]
    fn response_frames_match_golden_bytes() {
        let resps = golden_responses();
        assert_eq!(resps.len(), GOLDEN_RESPONSE_FRAMES.len());
        for (resp, want) in resps.iter().zip(GOLDEN_RESPONSE_FRAMES) {
            let mut buf = Vec::new();
            write_response(&mut buf, resp).unwrap();
            assert_eq!(hex(&buf), want, "format drift for {resp:?}");
            let back = read_response(&mut unhex(want).as_slice()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{resp:?}"));
        }
    }

    /// The codec laws for one message of every kind, under 64 byte flips
    /// spread over each encoding.
    #[test]
    fn messages_keep_the_codec_laws() {
        for i in 0..64u64 {
            let flip = (i * 37, (i as u8).wrapping_mul(29) | 1);
            for req in golden_requests() {
                bdbms_common::codec::assert_codec_laws(&req, flip);
            }
            for resp in golden_responses() {
                bdbms_common::codec::assert_codec_laws(&resp, flip);
            }
        }
    }
}
