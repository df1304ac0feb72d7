//! End-to-end replication tests: a real primary [`Server`] and a real
//! [`Replica`] talking TCP on loopback, checked bit-for-bit against an
//! in-process [`DirectEngine`] mirror.
//!
//! The bit-for-bit comparisons use checkpoint *bytes*, not query
//! answers: queries mutate engine state (lazy cleaning), so serialized
//! state is both stronger and safe to take while background threads are
//! still running. Query batteries run afterwards, mirrored call for
//! call on both sides.

use she_replica::{Replica, ReplicaConfig};
use she_server::{Checkpoint, Client, DirectEngine, EngineConfig, Role, Server, ServerConfig};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn engine_cfg() -> EngineConfig {
    EngineConfig { window: 1 << 12, shards: 4, memory_bytes: 16 << 10, seed: 7 }
}

fn primary_cfg(addr: &str) -> ServerConfig {
    ServerConfig {
        addr: addr.to_string(),
        engine: engine_cfg(),
        repl_log: 1 << 10,
        role: Role::Primary,
        ..Default::default()
    }
}

fn replica_cfg(primary: &str) -> ReplicaConfig {
    ReplicaConfig {
        primary: primary.to_string(),
        reconnect_base_ms: 5,
        reconnect_cap_ms: 50,
        ..Default::default()
    }
}

/// Deterministic batch `i`: 64 keys from a key space small enough that
/// frequencies go above 1.
fn batch(i: u64) -> Vec<u64> {
    (0..64).map(|j| she_hash::mix64(i * 64 + j) % 3_000).collect()
}

/// Poll `cond` up to `ms` milliseconds.
fn eventually(ms: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Feed batches `[from, to)` to both the primary (via the wire) and the
/// mirror (in process), stream 0 plus every 8th batch into stream 1.
fn feed(client: &mut Client, mirror: &mut DirectEngine, from: u64, to: u64) {
    for i in from..to {
        let keys = batch(i);
        let stream = if i % 8 == 7 { 1 } else { 0 };
        client.insert_batch(stream, &keys).unwrap();
        for &k in &keys {
            mirror.insert(stream, k);
        }
    }
}

/// The replica's serialized state, fetched over the wire.
fn replica_checkpoint(replica: &Replica) -> Vec<u8> {
    let mut c = Client::connect(replica.local_addr()).unwrap();
    c.snapshot_all().unwrap()
}

/// `state` after one more anti-entropy sweep against `upstream`, replayed
/// in process: every shard reconciled with the upstream's frame, which is
/// what the replica's `merge_sweep` hands its workers.
fn swept_once(state: &[u8], upstream: &[u8]) -> Vec<u8> {
    let mut engine = DirectEngine::restore(state, None).unwrap();
    for (shard, frame) in Checkpoint::decode(upstream).unwrap().shards.iter().enumerate() {
        engine.load(shard, frame, true).unwrap();
    }
    engine.checkpoint()
}

#[test]
fn bootstrap_plus_tail_matches_mirror_bit_for_bit() {
    let primary = Server::start(primary_cfg("127.0.0.1:0")).unwrap();
    let paddr = primary.local_addr().to_string();
    let mut client = Client::connect(&paddr).unwrap();
    let mut mirror = DirectEngine::new(engine_cfg());

    // History the replica must receive via the snapshot, not replay.
    feed(&mut client, &mut mirror, 0, 50);

    let replica = Replica::start(replica_cfg(&paddr)).unwrap();
    let boot = replica.status().boot_seq.load(Ordering::SeqCst);
    assert_eq!(boot, 50, "bootstrap cut must cover the whole pre-join history");

    // Live tail after the join.
    feed(&mut client, &mut mirror, 50, 100);
    let head = Client::connect(&paddr).unwrap().cluster_status().unwrap().head;
    assert_eq!(head, 100);
    assert!(
        eventually(5_000, || replica.status().applied.load(Ordering::SeqCst) == head),
        "replica stopped at {} of {head}",
        replica.status().applied.load(Ordering::SeqCst)
    );

    // State equality, bit for bit.
    assert_eq!(replica_checkpoint(&replica), mirror.checkpoint(), "replica state diverged");

    // And the query battery agrees, call for call.
    let mut rc = Client::connect(replica.local_addr()).unwrap();
    for i in 0..32u64 {
        let k = she_hash::mix64(i) % 3_000;
        assert_eq!(rc.query_member(k).unwrap(), mirror.member(k), "member({k})");
        assert_eq!(rc.query_freq(k).unwrap(), mirror.frequency(k), "freq({k})");
    }
    assert_eq!(rc.query_card().unwrap().to_bits(), mirror.cardinality().to_bits());
    assert_eq!(rc.query_sim().unwrap().to_bits(), mirror.similarity().to_bits());

    // The primary's hub saw the replica ack up to the head.
    let status = Client::connect(&paddr).unwrap().cluster_status().unwrap();
    assert!(status.is_primary);
    assert_eq!(status.peers.len(), 1);
    assert!(
        eventually(3_000, || {
            Client::connect(&paddr).unwrap().cluster_status().unwrap().peers[0].acked == head
        }),
        "replica never acked the head"
    );

    replica.join();
    primary.join();
}

/// The join above happens at a quiet point. Here the replica joins while
/// a writer is streaming: the bootstrap snapshot must be cut *between*
/// two admitted batches (`0 < boot_seq < head`), and snapshot + tail must
/// still add up to the mirror bit for bit. Channels, not sleeps, force
/// the overlap: the writer never pauses, it only stops 50 batches after
/// it hears that the replica is up.
#[test]
fn replica_joining_mid_stream_cuts_past_zero_and_converges_bit_for_bit() {
    // A log deep enough that the tail from any cut is still retained.
    let primary =
        Server::start(ServerConfig { repl_log: 1 << 16, ..primary_cfg("127.0.0.1:0") }).unwrap();
    let paddr = primary.local_addr().to_string();
    let (streaming_tx, streaming_rx) = std::sync::mpsc::channel::<()>();
    let (joined_tx, joined_rx) = std::sync::mpsc::channel::<()>();

    let writer = std::thread::spawn({
        let paddr = paddr.clone();
        move || {
            let mut client = Client::connect(&paddr).unwrap();
            let mut mirror = DirectEngine::new(engine_cfg());
            feed(&mut client, &mut mirror, 0, 50);
            streaming_tx.send(()).unwrap();
            let mut sent = 50;
            // `Empty` = the join is still in flight; a dropped sender
            // (the main thread failed) ends the stream too.
            while joined_rx.try_recv() == Err(std::sync::mpsc::TryRecvError::Empty) {
                feed(&mut client, &mut mirror, sent, sent + 1);
                sent += 1;
            }
            feed(&mut client, &mut mirror, sent, sent + 50);
            (sent + 50, mirror)
        }
    });

    streaming_rx.recv().unwrap();
    let replica = Replica::start(replica_cfg(&paddr)).unwrap();
    let boot = replica.status().boot_seq.load(Ordering::SeqCst);
    joined_tx.send(()).unwrap();
    let (head, mirror) = writer.join().unwrap();

    assert!(0 < boot && boot < head, "boot_seq {boot} is not mid-stream (head {head})");
    assert_eq!(Client::connect(&paddr).unwrap().cluster_status().unwrap().head, head);
    assert!(
        eventually(10_000, || replica.status().applied.load(Ordering::SeqCst) == head),
        "replica stopped at {} of {head}",
        replica.status().applied.load(Ordering::SeqCst)
    );
    assert_eq!(replica_checkpoint(&replica), mirror.checkpoint(), "replica state diverged");

    replica.join();
    primary.join();
}

#[test]
fn replica_rejects_writes_naming_the_primary() {
    let primary = Server::start(primary_cfg("127.0.0.1:0")).unwrap();
    let paddr = primary.local_addr().to_string();
    let replica = Replica::start(replica_cfg(&paddr)).unwrap();

    let mut rc = Client::connect(replica.local_addr()).unwrap();
    let err = rc.insert(0, 42).unwrap_err();
    assert!(err.to_string().contains("read-only replica"), "{err}");
    assert!(err.to_string().contains(&paddr), "{err} must name the primary");
    let err = rc.insert_batch(0, &[1, 2, 3]).unwrap_err();
    assert!(err.to_string().contains(&paddr), "{err}");

    // Reads still work on the same connection.
    assert!(!rc.query_member(42).unwrap());
    let status = rc.cluster_status().unwrap();
    assert!(!status.is_primary);
    assert_eq!(status.primary, paddr);

    replica.join();
    primary.join();
}

#[test]
fn replica_survives_primary_death_and_resyncs_to_replacement() {
    // The replica reconnects by address, so the replacement primary must
    // reuse it: grab a free port first.
    let paddr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };

    let primary = Server::start(primary_cfg(&paddr)).unwrap();
    let mut client = Client::connect(&paddr).unwrap();
    let mut mirror = DirectEngine::new(engine_cfg());
    feed(&mut client, &mut mirror, 0, 20);

    let replica = Replica::start(replica_cfg(&paddr)).unwrap();
    assert!(eventually(5_000, || replica.status().applied.load(Ordering::SeqCst) == 20));
    drop(client);
    primary.join();

    // Orphaned but alive: reads keep working, the link reads down.
    assert!(
        eventually(5_000, || !replica.status().connected.load(Ordering::SeqCst)),
        "replica never noticed the primary dying"
    );
    assert_eq!(replica_checkpoint(&replica), mirror.checkpoint(), "orphan lost state");

    // A replacement primary appears at the same address with a fresh,
    // *shorter* log. The replica's position (21) is past its head, so the
    // only way back is a new snapshot: resync, not replay.
    let primary2 = Server::start(primary_cfg(&paddr)).unwrap();
    let mut client2 = Client::connect(&paddr).unwrap();
    let mut mirror2 = DirectEngine::new(engine_cfg());
    feed(&mut client2, &mut mirror2, 100, 103);

    assert!(
        eventually(10_000, || {
            let s = replica.status();
            s.applied.load(Ordering::SeqCst) == 3 && s.connected.load(Ordering::SeqCst)
        }),
        "replica never resynced (applied={}, boot={})",
        replica.status().applied.load(Ordering::SeqCst),
        replica.status().boot_seq.load(Ordering::SeqCst),
    );
    // The boot cut moved from the old primary's 20 to somewhere in the
    // new primary's short history — proof of a re-bootstrap, not replay.
    // (Its exact value depends on when the reconnect won the race with
    // the new inserts.)
    assert!(replica.status().boot_seq.load(Ordering::SeqCst) <= 3, "resync must re-bootstrap");

    // Tail from the new primary still works after the resync.
    feed(&mut client2, &mut mirror2, 103, 110);
    assert!(eventually(5_000, || replica.status().applied.load(Ordering::SeqCst) == 10));
    assert_eq!(replica_checkpoint(&replica), mirror2.checkpoint(), "post-resync divergence");

    replica.join();
    primary2.join();
}

/// Read-path repair after failover: a replica serving `--readpath`
/// keeps its fast mirror warm while following (the injector feeds it
/// synchronously), so after promotion `QUERY_FAST` on the new primary
/// answers bit-for-bit with the authoritative path — including keys
/// written *after* the promotion, applied by the refresher tailing the
/// now-filling local op log.
#[test]
fn promoted_replica_serves_query_fast_bit_for_bit() {
    let primary = Server::start(primary_cfg("127.0.0.1:0")).unwrap();
    let paddr = primary.local_addr().to_string();
    let mut client = Client::connect(&paddr).unwrap();
    let mut mirror = DirectEngine::new(engine_cfg());
    feed(&mut client, &mut mirror, 0, 40);

    let mut replica = Replica::start(ReplicaConfig {
        repl_log: 1 << 10,
        readpath: Some(she_server::ReadPathConfig::default()),
        ..replica_cfg(&paddr)
    })
    .unwrap();
    assert!(eventually(5_000, || replica.status().applied.load(Ordering::SeqCst) == 40));

    drop(client);
    primary.join();
    let promoted = replica.promote();

    // Writes continue against the promoted primary...
    let mut client2 = Client::connect(promoted).unwrap();
    feed(&mut client2, &mut mirror, 40, 60);

    // ...and once the fast mirror's refresher catches the op-log head,
    // fast answers must equal the authoritative ones bit-for-bit. The
    // local log was empty while following (the injector bypasses it), so
    // the promoted head counts only the 20 post-promotion batches.
    assert!(
        eventually(5_000, || {
            let s = Client::connect(promoted).unwrap().cluster_status().unwrap();
            s.readpath.enabled && s.head == 20 && s.readpath.seq >= s.head
        }),
        "fast mirror never caught the promoted op-log head"
    );
    for i in 0..64u64 {
        let k = she_hash::mix64(i * 37) % 3_000;
        assert_eq!(client2.fast_member(k).unwrap(), mirror.member(k), "fast member({k})");
        assert_eq!(client2.fast_freq(k).unwrap(), mirror.frequency(k), "fast freq({k})");
        assert_eq!(client2.query_member(k).unwrap(), mirror.member(k), "member({k})");
        assert_eq!(client2.query_freq(k).unwrap(), mirror.frequency(k), "freq({k})");
    }

    replica.join();
}

#[test]
fn anti_entropy_sweeps_are_stable_on_converged_state() {
    let primary = Server::start(primary_cfg("127.0.0.1:0")).unwrap();
    let paddr = primary.local_addr().to_string();
    let mut client = Client::connect(&paddr).unwrap();
    let mut mirror = DirectEngine::new(engine_cfg());
    feed(&mut client, &mut mirror, 0, 30);

    let replica =
        Replica::start(ReplicaConfig { anti_entropy_ms: 25, ..replica_cfg(&paddr) }).unwrap();
    assert!(eventually(5_000, || replica.status().applied.load(Ordering::SeqCst) == 30));

    // The first sweep may advance lazy cleaning (reconcile touches every
    // group, like a query pass would), so the replica's bytes are not
    // compared to the mirror's here. What must hold is *stability*:
    // after one sweep the state is a fixed point — reconcile's
    // idempotent merges (OR / max / min-nonzero, counter max) leave it
    // bit-identical, sweep after sweep. When that first sweep is through
    // all four shards is the scheduler's business, so wait for it by its
    // effect: a checkpoint that one more sweep, replayed in process,
    // would not change.
    let upstream = client.snapshot_all().unwrap();
    let mut settled = Vec::new();
    assert!(
        eventually(5_000, || {
            settled = replica_checkpoint(&replica);
            swept_once(&settled, &upstream) == settled
        }),
        "the first anti-entropy sweep never completed"
    );
    for round in 0..3 {
        std::thread::sleep(Duration::from_millis(75));
        assert_eq!(
            replica_checkpoint(&replica),
            settled,
            "anti-entropy sweep drifted converged state (round {round})"
        );
    }

    // And the answers still agree with the mirror: cleaning is lazy and
    // deterministic, so a query sees the same post-cleaning state
    // whether a sweep already forced it (replica) or the query itself
    // does (mirror).
    let mut rc = Client::connect(replica.local_addr()).unwrap();
    for i in 0..32u64 {
        let k = she_hash::mix64(i) % 3_000;
        assert_eq!(rc.query_member(k).unwrap(), mirror.member(k), "member({k})");
        assert_eq!(rc.query_freq(k).unwrap(), mirror.frequency(k), "freq({k})");
    }
    assert_eq!(rc.query_card().unwrap().to_bits(), mirror.cardinality().to_bits());
    assert_eq!(rc.query_sim().unwrap().to_bits(), mirror.similarity().to_bits());

    replica.join();
    primary.join();
}
