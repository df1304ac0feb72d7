//! Wire-protocol coverage: every message type round-trips through
//! encode → frame → unframe → decode, including the largest legal batch,
//! and every truncation of every encoding is rejected instead of
//! misparsed.

use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{
    ClusterStatusInfo, PeerStatus, ProtoError, ReadpathStatus, Request, Response, MAX_BATCH,
};
use she_server::ShardStats;
use std::io::Cursor;

fn all_requests() -> Vec<Request> {
    vec![
        Request::Insert { stream: 0, key: 0 },
        Request::Insert { stream: 1, key: u64::MAX },
        Request::InsertBatch { stream: 0, keys: vec![] },
        Request::InsertBatch { stream: 1, keys: vec![1, 2, 3, u64::MAX] },
        Request::QueryMember { key: 0xDEAD_BEEF },
        Request::QueryCard,
        Request::QueryFreq { key: 42 },
        Request::QuerySim,
        Request::QueryFast { op: 0, key: 7 },
        Request::QueryFast { op: 4, key: u64::MAX },
        Request::Stats,
        Request::Hello { version: 2 },
        Request::Snapshot { shard: 0 },
        Request::Snapshot { shard: u32::MAX },
        Request::SnapshotAll,
        Request::Restore { shard: 3, data: vec![] },
        Request::Restore { shard: 0, data: b"SHEF-opaque-shard-bytes".to_vec() },
        Request::ReplBootstrap,
        Request::ReplSubscribe { from_seq: 0, node_id: 0 },
        Request::ReplSubscribe { from_seq: u64::MAX, node_id: 0 },
        Request::ReplSubscribe { from_seq: 7, node_id: 42 },
        Request::ReplAck { seq: 12_345 },
        Request::ClusterStatus,
        Request::Shutdown,
    ]
}

fn all_responses() -> Vec<Response> {
    vec![
        Response::Ok { accepted: 0 },
        Response::Ok { accepted: u64::MAX },
        Response::Bool(true),
        Response::Bool(false),
        Response::U64(123_456_789),
        Response::F64(0.0),
        Response::F64(f64::MAX),
        Response::F64(-1.5),
        Response::Stats(vec![]),
        Response::Stats(vec![
            ShardStats { inserts: 1, queries: 2, memory_bits: 3 },
            ShardStats { inserts: u64::MAX, queries: 0, memory_bits: 1 << 40 },
        ]),
        Response::Blob(vec![]),
        Response::Blob((0u8..255).collect()),
        Response::Hello { version: 1 },
        Response::Hello { version: 2 },
        Response::Err("".to_string()),
        Response::Err("shard queue wedged".to_string()),
        Response::Busy { retry_after_ms: 0 },
        Response::Busy { retry_after_ms: u32::MAX },
        Response::Overloaded { retry_after_ms: 0 },
        Response::Overloaded { retry_after_ms: u32::MAX },
        Response::ReplOp(vec![]),
        Response::ReplOp(b"SHEF-opaque-oplog-record".to_vec()),
        Response::ReplHeartbeat { head: 0 },
        Response::ReplHeartbeat { head: u64::MAX },
        Response::NotPrimary { primary: "".to_string() },
        Response::NotPrimary { primary: "10.0.0.1:7070".to_string() },
        Response::LogTruncated { floor: 99 },
        Response::ClusterStatus(ClusterStatusInfo {
            is_primary: true,
            connected: true,
            head: 1_000,
            floor: 900,
            boot_seq: 0,
            primary: "".to_string(),
            peers: vec![
                PeerStatus { addr: "10.0.0.2:4321".to_string(), acked: 998 },
                PeerStatus { addr: "10.0.0.3:4321".to_string(), acked: 1_000 },
            ],
            queue_depths: vec![0, 3, 17, u64::MAX],
            readpath: ReadpathStatus {
                enabled: true,
                hits: 9_000,
                misses: 41,
                fills: 41,
                invalidations: 5,
                seq: 1_000,
            },
        }),
        Response::ClusterStatus(ClusterStatusInfo {
            is_primary: false,
            connected: false,
            head: 7,
            floor: 0,
            boot_seq: 5,
            primary: "10.0.0.1:7070".to_string(),
            peers: vec![],
            queue_depths: vec![],
            readpath: ReadpathStatus::default(),
        }),
    ]
}

#[test]
fn every_request_round_trips() {
    for req in all_requests() {
        let enc = req.encode();
        assert_eq!(Request::decode(&enc), Ok(req.clone()), "{req:?}");
    }
}

#[test]
fn every_response_round_trips() {
    for resp in all_responses() {
        let enc = resp.encode();
        let dec = Response::decode(&enc).unwrap_or_else(|e| panic!("{resp:?}: {e}"));
        match (&resp, &dec) {
            // F64 compares by bits so NaN-free payloads must be identical.
            (Response::F64(a), Response::F64(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            _ => assert_eq!(resp, dec),
        }
    }
}

#[test]
fn max_length_batch_round_trips_through_framing() {
    let keys: Vec<u64> = (0..MAX_BATCH as u64).collect();
    let req = Request::InsertBatch { stream: 1, keys };
    let enc = req.encode();

    let mut framed = Vec::new();
    write_frame(&mut framed, &enc).expect("max batch must fit in a frame");
    let mut cursor = Cursor::new(framed);
    let payload = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(Request::decode(&payload), Ok(req));
}

#[test]
fn oversize_batch_count_is_rejected() {
    // Hand-craft a batch header that *declares* MAX_BATCH+1 keys.
    let mut enc = vec![0x02u8, 0];
    enc.extend_from_slice(&((MAX_BATCH as u32) + 1).to_le_bytes());
    assert_eq!(Request::decode(&enc), Err(ProtoError::Oversize));
}

#[test]
fn every_truncated_request_is_rejected() {
    for req in all_requests() {
        let enc = req.encode();
        for cut in 0..enc.len() {
            if matches!(req, Request::Restore { .. }) && cut >= 5 {
                // RESTORE's blob is the frame remainder, so any prefix that
                // keeps opcode + shard is a (shorter) valid RESTORE — skip.
                continue;
            }
            if matches!(req, Request::ReplSubscribe { node_id, .. } if node_id != 0) && cut == 9 {
                // The v6 node_id tail is optional by design — a cut at
                // exactly the v5 boundary (opcode + from_seq) is a valid
                // anonymous subscribe, not an error.
                continue;
            }
            let r = Request::decode(&enc[..cut]);
            assert!(r.is_err(), "{req:?} truncated to {cut} bytes decoded as {r:?}");
        }
    }
}

#[test]
fn every_truncated_response_is_rejected() {
    for resp in all_responses() {
        let enc = resp.encode();
        for cut in 0..enc.len() {
            if matches!(
                resp,
                Response::Err(_)
                    | Response::Blob(_)
                    | Response::ReplOp(_)
                    | Response::NotPrimary { .. }
            ) && cut >= 1
            {
                // These payloads are the frame remainder, so any prefix
                // that keeps the opcode is a (shorter) valid message —
                // skip. (NOT_PRIMARY prefixes stay valid because the test
                // addresses are ASCII.)
                continue;
            }
            if let Response::ClusterStatus(info) = &resp {
                // The v5 tail (depth count + depths + enabled flag + five
                // counters) is optional by design — a cut at exactly the
                // v4 boundary is a valid pre-v5 status, not an error.
                let tail = 4 + 8 * info.queue_depths.len() + 1 + 40;
                if cut == enc.len() - tail {
                    continue;
                }
            }
            let r = Response::decode(&enc[..cut]);
            assert!(r.is_err(), "{resp:?} truncated to {cut} bytes decoded as {r:?}");
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    for req in all_requests() {
        if matches!(req, Request::Restore { .. }) {
            // RESTORE's blob is the frame remainder by design; a trailing
            // byte extends the blob (and fails the frame checksum later).
            continue;
        }
        let mut enc = req.encode();
        enc.push(0xAB);
        // InsertBatch's count field means an extra byte can't silently
        // extend the key list; it must be a decode error for every type.
        assert!(Request::decode(&enc).is_err(), "{req:?} accepted a trailing byte");
    }
}

#[test]
fn unknown_opcodes_are_rejected() {
    for op in [0x00u8, 0x03, 0x16, 0x7F, 0xFF] {
        assert_eq!(Request::decode(&[op]), Err(ProtoError::BadOpcode(op)));
    }
    assert_eq!(Response::decode(&[0x00]), Err(ProtoError::BadOpcode(0x00)));
}

#[test]
fn empty_payload_is_truncated_not_panicking() {
    assert_eq!(Request::decode(&[]), Err(ProtoError::Truncated));
    assert_eq!(Response::decode(&[]), Err(ProtoError::Truncated));
}
