//! Wire-protocol coverage: every message type round-trips through
//! encode → frame → unframe → decode, including the largest legal batch,
//! every truncation of every encoding is rejected instead of misparsed,
//! and a live server dispatches every request type to a handler that
//! owns it.

use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{
    ClusterStatusInfo, PeerStatus, ProtoError, ReadpathStatus, Request, Response, MAX_BATCH,
};
use she_server::{
    ClusterMap, EngineConfig, NodeRef, ReadPathConfig, Server, ServerConfig, ShardStats,
};
use std::io::Cursor;
use std::net::TcpStream;

/// Two cluster maps: a three-node ring at the default factor, and an
/// `rf = 2` map whose partitions list no replicas — the shape whose last
/// two bytes (`rf`) are the only thing telling it from an `rf = 1` map.
fn maps() -> [ClusterMap; 2] {
    let roster: Vec<NodeRef> =
        (1..=3).map(|id| NodeRef { node_id: id, addr: format!("10.0.0.{id}:7070") }).collect();
    let ring = ClusterMap::initial(&roster);
    let mut bare = ClusterMap::initial_rf(&roster[..2], 1);
    bare.rf = 2;
    [ring, bare]
}

fn all_requests() -> Vec<Request> {
    let [ring, bare] = maps();
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
        Request::QueryBatch { op: 0, keys: vec![] },
        Request::QueryBatch { op: 2, keys: vec![5, 6, u64::MAX] },
        Request::ClusterJoin { from_node: 1, map: ring },
        Request::ClusterJoin { from_node: u64::MAX, map: bare },
        Request::ClusterMapGet,
        Request::ClusterQuery { op: 3, key: 0 },
        Request::ClusterQuery { op: 0, key: u64::MAX },
        Request::ClusterQueryBatch { op: 0, keys: vec![] },
        Request::ClusterQueryBatch { op: 2, keys: vec![9, 8, 7] },
    ]
}

fn all_responses() -> Vec<Response> {
    let [ring, bare] = maps();
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
        Response::U64s(vec![]),
        Response::U64s(vec![0, 1, u64::MAX]),
        Response::ClusterMapReply(ring),
        Response::ClusterMapReply(bare),
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

/// A count prefix is bounded by the bytes that follow it, so a short
/// frame is refused before anything is allocated for the count it claims.
#[test]
fn declared_counts_beyond_the_frame_are_oversize() {
    // STATS_REPLY declaring 699 050 shards (16 MiB of entries) in 5 bytes.
    let mut stats = vec![0x84u8];
    stats.extend_from_slice(&699_050u32.to_le_bytes());
    assert_eq!(Response::decode(&stats), Err(ProtoError::Oversize));

    // CLUSTER_STATUS_REPLY declaring 1 677 721 peers after an empty
    // primary address, with no peer bytes behind the count.
    let mut status = vec![0x89u8, 1, 1];
    status.extend_from_slice(&[0u8; 24]); // head, floor, boot_seq
    status.extend_from_slice(&0u16.to_le_bytes()); // primary_len
    status.extend_from_slice(&1_677_721u32.to_le_bytes());
    assert_eq!(Response::decode(&status), Err(ProtoError::Oversize));

    // CLUSTER_MAP_REPLY declaring 65 536 partitions in 13 bytes.
    let mut map = vec![0x8Au8];
    map.extend_from_slice(&1u64.to_le_bytes());
    map.extend_from_slice(&65_536u32.to_le_bytes());
    assert_eq!(Response::decode(&map), Err(ProtoError::Oversize));
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

/// The server splits requests three ways — reactor-native, offloaded
/// (`Shared::handle`), inline (`Shared::handle_inline`) — and each
/// handler answers `ERR internal: …` for a request it does not own. Every
/// request type sent to a live server must therefore come back as
/// something else: the guard that the split covers each opcode once.
#[test]
fn every_request_reaches_a_handler_that_owns_it() {
    let server = Server::start(ServerConfig {
        engine: EngineConfig { window: 1 << 10, shards: 2, memory_bytes: 8 << 10, seed: 5 },
        repl_log: 64,
        readpath: Some(ReadPathConfig::default()),
        ..Default::default()
    })
    .expect("start");
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    for req in all_requests() {
        // SHUTDOWN ends the run and REPL_SUBSCRIBE turns the socket into
        // a feed; both have end-to-end tests of their own.
        if matches!(req, Request::Shutdown | Request::ReplSubscribe { .. }) {
            continue;
        }
        write_frame(&mut sock, &req.encode()).expect("write");
        let payload = read_frame(&mut sock).expect("read").expect("server closed");
        let resp = Response::decode(&payload).expect("decode");
        assert!(
            !matches!(&resp, Response::Err(msg) if msg.starts_with("internal:")),
            "{req:?} was misrouted: {resp:?}"
        );
    }
    server.join();
}
