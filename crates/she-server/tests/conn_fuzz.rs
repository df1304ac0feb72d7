//! Property tests for the sans-IO [`Connection`] — the protocol core the
//! epoll reactor is built on — with **zero sockets**: raw byte slices in,
//! typed events out, the output queue drained through arbitrary partial
//! "writes".

use she_server::protocol::{Request, Response, MAX_FRAME};
use she_server::{Connection, Event, FrameEvent};

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut b = u32::try_from(payload.len()).unwrap().to_le_bytes().to_vec();
    b.extend_from_slice(payload);
    b
}

/// A tiny deterministic RNG so the torn-input schedules replay.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Insert { stream: 0, key: 7 },
        Request::InsertBatch { stream: 1, keys: (0..100).collect() },
        Request::QueryMember { key: u64::MAX },
        Request::QueryCard,
        Request::QueryFreq { key: 0 },
        Request::QuerySim,
        Request::QueryBatch { op: 0, keys: vec![1, 2, 3] },
        Request::QueryBatch { op: 2, keys: vec![] },
        Request::Stats,
        Request::Hello { version: 4 },
        Request::Snapshot { shard: 3 },
        Request::ReplSubscribe { from_seq: 9, node_id: 0 },
        Request::Shutdown,
    ]
}

#[test]
fn every_split_of_every_request_decodes_identically() {
    for req in sample_requests() {
        let bytes = frame(&req.encode());
        for split in 0..=bytes.len() {
            let mut c = Connection::new();
            c.feed(&bytes[..split], 0);
            c.feed(&bytes[split..], 1);
            match c.poll() {
                Event::Request(got) => assert_eq!(got, req, "split at {split}"),
                other => panic!("split at {split} of {req:?}: {other:?}"),
            }
            assert_eq!(c.poll(), Event::NeedMore);
        }
    }
}

#[test]
fn seeded_torn_streams_reassemble_the_exact_request_sequence() {
    for seed in 0..20u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let reqs: Vec<Request> = (0..64)
            .map(|i| match rng.next() % 4 {
                0 => Request::Insert { stream: 0, key: rng.next() },
                1 => Request::InsertBatch {
                    stream: 1,
                    keys: (0..rng.next() % 50).map(|_| rng.next()).collect(),
                },
                2 => Request::QueryFreq { key: i },
                _ => Request::QueryCard,
            })
            .collect();
        let mut stream = Vec::new();
        for r in &reqs {
            stream.extend_from_slice(&frame(&r.encode()));
        }
        let mut c = Connection::new();
        let mut got = Vec::new();
        let mut fed = 0;
        while fed < stream.len() {
            let n = 1 + (rng.next() as usize) % 33;
            let end = (fed + n).min(stream.len());
            c.feed(&stream[fed..end], fed as u64);
            fed = end;
            loop {
                match c.poll() {
                    Event::Request(r) => got.push(r),
                    Event::NeedMore => break,
                    other => panic!("seed {seed}: unexpected {other:?}"),
                }
            }
        }
        assert_eq!(got, reqs, "seed {seed}");
        assert!(!c.has_buffered_input(), "seed {seed}: no residue");
    }
}

/// The reactor takes a run of reads with `poll_if` and everything else
/// with `poll`. Whatever the predicate, interleaving the two over any
/// split of the input must yield exactly the events `poll` alone yields:
/// a rejected, undecodable or incomplete frame is never consumed.
#[test]
fn poll_if_interleaved_with_poll_yields_the_poll_sequence() {
    let mut payloads: Vec<Vec<u8>> = sample_requests().iter().map(Request::encode).collect();
    payloads.push(vec![0xFF, 1, 2, 3]);
    payloads.push(Vec::new());
    for seed in 0..20u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let mut stream = Vec::new();
        for _ in 0..64 {
            let p = &payloads[(rng.next() as usize) % payloads.len()];
            stream.extend_from_slice(&frame(p));
        }
        let mut splits = Vec::new();
        let mut fed = 0;
        while fed < stream.len() {
            let end = (fed + 1 + (rng.next() as usize) % 41).min(stream.len());
            splits.push(fed..end);
            fed = end;
        }
        let drain = |mixed: bool, rng: &mut Lcg| {
            let mut c = Connection::new();
            let mut got = Vec::new();
            for range in &splits {
                c.feed(&stream[range.clone()], range.start as u64);
                loop {
                    if mixed && rng.next().is_multiple_of(2) {
                        let take = !rng.next().is_multiple_of(3);
                        if let Some(req) = c.poll_if(|_| take) {
                            got.push(Event::Request(req));
                            continue;
                        }
                    }
                    match c.poll() {
                        Event::NeedMore => break,
                        event => got.push(event),
                    }
                }
            }
            got
        };
        let alone = drain(false, &mut rng);
        assert_eq!(alone.len(), 64, "seed {seed}: every frame is one event");
        assert_eq!(drain(true, &mut rng), alone, "seed {seed}");
    }
}

#[test]
fn bit_flipped_streams_never_panic() {
    // Flip every single bit of two multi-frame streams, one at a time, and
    // feed each flipped stream in seeded splits. Any outcome is acceptable
    // except a panic, a payload once the stream is fatal, or a payload that
    // decodes but does not re-encode to exactly its bytes.
    let small = vec![
        Request::Insert { stream: 0, key: 1 },
        Request::QueryCard,
        Request::Hello { version: 4 },
    ];
    for reqs in [small, sample_requests()] {
        let mut stream = Vec::new();
        for r in &reqs {
            stream.extend_from_slice(&frame(&r.encode()));
        }
        for bit in 0..stream.len() * 8 {
            let mut s = stream.clone();
            s[bit / 8] ^= 1 << (bit % 8);
            let mut rng = Lcg(bit as u64 | 1);
            let mut c = Connection::new();
            let (mut fed, mut fatal) = (0, false);
            while fed < s.len() {
                let end = (fed + 1 + (rng.next() as usize) % 96).min(s.len());
                c.feed(&s[fed..end], fed as u64);
                fed = end;
                loop {
                    match c.poll_frame() {
                        FrameEvent::Payload(p) => {
                            assert!(!fatal, "bit {bit}: payload after fatal");
                            if let Ok(req) = Request::decode(&p) {
                                assert_eq!(req.encode(), p, "bit {bit}: {req:?} re-encodes");
                            }
                        }
                        FrameEvent::NeedMore => break,
                        FrameEvent::Fatal => {
                            fatal = true;
                            break;
                        }
                    }
                }
            }
            assert_eq!(fatal, c.is_fatal(), "bit {bit}: sticky flag mismatch");
        }
    }
}

#[test]
fn output_queue_reemits_identical_frames_under_any_write_schedule() {
    let responses = [
        Response::Ok { accepted: 42 },
        Response::Bool(true),
        Response::F64(0.5),
        Response::U64s(vec![9, 8, 7]),
        Response::Err("nope".to_string()),
        Response::Stats(Vec::new()),
    ];
    let mut expect = Vec::new();
    for r in &responses {
        expect.extend_from_slice(&frame(&r.encode()));
    }
    for seed in 0..20u64 {
        let mut rng = Lcg(seed | 1);
        let mut c = Connection::new();
        for r in &responses {
            c.push_response(r);
        }
        assert_eq!(c.out_bytes(), expect.len());
        let mut written = Vec::new();
        while c.has_output() {
            let n = 1 + (rng.next() as usize) % 17;
            let take: Vec<u8> = c.out_slices().flatten().copied().take(n).collect();
            written.extend_from_slice(&take);
            c.advance_out(take.len());
        }
        assert_eq!(written, expect, "seed {seed}: byte-identical re-emission");
    }
}

#[test]
fn oversize_prefix_is_fatal_before_any_allocation_sized_by_it() {
    let mut c = Connection::new();
    let huge = u32::try_from(MAX_FRAME + 1).unwrap();
    c.feed(&huge.to_le_bytes(), 0);
    assert_eq!(c.poll_frame(), FrameEvent::Fatal);
    assert!(c.is_fatal());
    // Sticky across later feeds.
    c.feed(&frame(&Request::QueryCard.encode()), 1);
    assert_eq!(c.poll_frame(), FrameEvent::Fatal);
}

#[test]
fn pipelined_requests_interleave_with_responses_in_fifo_order() {
    // The reactor holds one read set or request at a time; the state
    // machine must hold pipelined frames intact while responses queue up.
    let mut c = Connection::new();
    let mut bytes = Vec::new();
    for key in 0..10u64 {
        bytes.extend_from_slice(&frame(&Request::QueryFreq { key }.encode()));
    }
    c.feed(&bytes, 0);
    for key in 0..10u64 {
        assert_eq!(c.poll(), Event::Request(Request::QueryFreq { key }));
        c.push_response(&Response::U64(key * 2));
    }
    assert_eq!(c.poll(), Event::NeedMore);
    let written: Vec<u8> = c.out_slices().flatten().copied().collect();
    let total = c.out_bytes();
    c.advance_out(total);
    let mut expect = Vec::new();
    for key in 0..10u64 {
        expect.extend_from_slice(&frame(&Response::U64(key * 2).encode()));
    }
    assert_eq!(written, expect);
    assert!(!c.has_output());
}
