//! The `she` binary itself: flag parsing, stdout formats, exit codes,
//! real OS processes and `SIGKILL` — the one layer no in-process test
//! can reach. What the servers *compute* is held bit for bit by the
//! library tests (`she-server/tests`, `she-replica/tests`,
//! `she-cluster/tests`, `she-chaos/tests`); these scenarios only prove
//! that the same behaviour survives the trip through `main`.
//!
//! Every server listens on `127.0.0.1:0` and is found through the
//! `… listening on ADDR` line it prints first, readiness is that line or
//! [`eventually`] on an observable effect, and every scenario ends by
//! checking that each process it started has exited — so two runs can
//! share a machine and none leaves a server behind.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

const SHE: &str = env!("CARGO_BIN_EXE_she");

/// A serving `she` process. Dropping it kills and reaps the child, also
/// when a failed assertion unwinds through the scenario.
struct Node {
    child: Child,
    addr: String,
    /// Held open so the drain report the server prints on shutdown has
    /// somewhere to go.
    _stdout: BufReader<ChildStdout>,
}

impl Node {
    /// Start `she <line>` (flags split on whitespace) and wait for its
    /// banner.
    fn spawn(line: &str) -> Node {
        let mut child = Command::new(SHE)
            .args(line.split_whitespace())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn she");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read the banner");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("`she {line}` printed {banner:?} first"))
            .to_string();
        Node { child, addr, _stdout: stdout }
    }

    /// `SIGKILL`, then reap.
    fn kill(&mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("reap");
    }

    /// `she shutdown`, then the process must exit by itself, cleanly.
    fn shutdown(&mut self) {
        she_ok(&format!("shutdown --addr {}", self.addr));
        assert!(
            eventually(|| self.exited()),
            "LEAKED PROCESS: {} survived its shutdown",
            self.addr
        );
        assert!(self.child.wait().expect("reap").success(), "{} exited with a failure", self.addr);
    }

    fn exited(&mut self) -> bool {
        self.child.try_wait().expect("try_wait").is_some()
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run `she <line>` to completion.
fn she(line: &str) -> Output {
    Command::new(SHE).args(line.split_whitespace()).output().expect("run she")
}

/// Run `she <line>`, which must succeed; returns its stdout.
fn she_ok(line: &str) -> String {
    let out = she(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "`she {line}` failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Poll `cond` for up to 20 s.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

/// The smokes' query battery: the exact lines `she query` (or `she
/// cluster-query`) prints for 16 keys and the two aggregates. `f64`
/// answers carry their raw bits, so equal text is bit-for-bit equality.
fn battery(command: &str, addr: &str) -> String {
    let mut lines = String::new();
    for key in 1..=16 {
        for op in ["member", "freq"] {
            lines += &she_ok(&format!("{command} --addr {addr} --op {op} --key {key}"));
        }
    }
    lines += &she_ok(&format!("{command} --addr {addr} --op card"));
    lines + &she_ok(&format!("{command} --addr {addr} --op sim"))
}

const SIZING: &str = "--shards 4 --window 64k --memory 64k";

/// `she checkpoint --dir D` → `she shutdown` → `she serve --restore D`
/// answers the same `she query` lines; `--readpath yes` is refused
/// without `--repl-log` and reported by `cluster-status` with it.
#[test]
fn checkpoint_then_restore_answers_the_same_query_lines() {
    let dir = std::env::temp_dir().join(format!("she-cli-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");

    let mut first = Node::spawn(&format!("serve --addr 127.0.0.1:0 {SIZING}"));
    let addr = &first.addr;
    let report = she_ok(&format!(
        "loadgen --addr {addr} --items 10000 --queries 100 --universe 5000 --verify yes {SIZING}"
    ));
    assert!(report.contains("verified=100  mismatches=0"), "{report}");
    let wrote = she_ok(&format!("checkpoint --addr {addr} --dir {dir_arg}"));
    assert!(wrote.starts_with("wrote ") && wrote.contains("checkpoint.she"), "{wrote}");
    let before = battery("query", addr);
    first.shutdown();

    let mut restored = Node::spawn(&format!("serve --addr 127.0.0.1:0 --restore {dir_arg}"));
    assert_eq!(battery("query", &restored.addr), before, "restored server diverged");
    restored.shutdown();
    std::fs::remove_dir_all(&dir).expect("remove the checkpoint dir");

    let refused = she("serve --addr 127.0.0.1:0 --readpath yes");
    assert_eq!(refused.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("needs --repl-log"));
    let mut fast = Node::spawn("serve --addr 127.0.0.1:0 --readpath yes --repl-log 64");
    let status = she_ok(&format!("cluster-status --addr {}", fast.addr));
    assert!(status.contains("\nreadpath=enabled hits=0 misses=0 "), "{status}");
    fast.shutdown();

    assert!(first.exited() && restored.exited() && fast.exited(), "LEAKED PROCESS");
}

/// `she serve --replica-of`: the replica tails a loadgen run, serves the
/// read half of a `--read-from` run, refuses a write with exit code 1
/// naming the primary, and after the primary's `SIGKILL` still answers
/// the `she query` lines the primary gave.
#[test]
fn replica_follows_refuses_writes_and_outlives_a_killed_primary() {
    let mut primary = Node::spawn(&format!("serve --addr 127.0.0.1:0 --repl-log 4096 {SIZING}"));
    let paddr = primary.addr.clone();
    let mut replica = Node::spawn(&format!("serve --addr 127.0.0.1:0 --replica-of {paddr}"));
    let raddr = replica.addr.clone();

    // 79 batches of 256; no queries, so log position = workload batch.
    she_ok(&format!(
        "loadgen --addr {paddr} --items 20000 --batch 256 --queries 0 --universe 5000"
    ));
    let mut status = String::new();
    assert!(
        eventually(|| {
            status = she_ok(&format!("cluster-status --addr {raddr}"));
            status.starts_with(&format!("role=replica primary={paddr} connected=true applied=79 "))
        }),
        "replica never reached seq 79: {status}"
    );
    assert!(status.contains(" boot_seq=0\nqueue_depths="), "{status}");
    assert!(status.ends_with("\nreadpath=disabled\n"), "{status}");

    // Read scaling: writes stay on the primary, queries go to the replica.
    she_ok(&format!(
        "loadgen --addr {paddr} --items 0 --queries 200 --connections 2 --read-from {raddr}"
    ));

    let refused = she(&format!("loadgen --addr {raddr} --items 100 --queries 0"));
    assert_eq!(refused.status.code(), Some(1), "a replica accepted a write");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("read-only replica") && stderr.contains(&paddr), "{stderr}");

    let before = battery("query", &paddr);
    primary.kill();
    let gone = she(&format!("query --addr {paddr} --op card"));
    assert_eq!(gone.status.code(), Some(3), "a dead server is exit code 3");
    assert_eq!(battery("query", &raddr), before, "replica diverged from its primary");
    assert!(
        eventually(|| she_ok(&format!("cluster-status --addr {raddr}"))
            .contains(" connected=false applied=79 ")),
        "replica never noticed the primary dying"
    );
    replica.shutdown();

    assert!(primary.exited() && replica.exited(), "LEAKED PROCESS");
}

/// Three `she cluster-serve` processes at RF=2: a cluster-aware verified
/// loadgen, the `cluster-status` / `cluster-map` line formats, then
/// `SIGKILL` of partition 0's primary — the survivors' map must name
/// node 2 (the lowest-id live holder) and `cluster-query` must keep
/// answering what it answered before the kill.
#[test]
fn cluster_of_three_processes_fails_over_to_the_lowest_live_holder() {
    // Bind port 0 to learn free ports, then release them for the nodes.
    let probes: Vec<_> =
        (0..3).map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("probe")).collect();
    let addrs: Vec<String> =
        probes.iter().map(|l| l.local_addr().expect("probed addr").to_string()).collect();
    drop(probes);
    let roster = format!("1@{},2@{},3@{}", addrs[0], addrs[1], addrs[2]);
    let mut nodes: Vec<Node> = (1..=3)
        .map(|id| {
            Node::spawn(&format!(
                "cluster-serve --node-id {id} --roster {roster} --window 65536 --memory 65536 \
                 --replication 2 --anti-entropy-ms 500 --gossip-ms 100 --heartbeat-timeout-ms 1000"
            ))
        })
        .collect();
    for (node, addr) in nodes.iter().zip(&addrs) {
        assert_eq!(&node.addr, addr, "a node must listen where the roster says");
    }
    let (first, second) = (&addrs[0], &addrs[1]);

    let report = she_ok(&format!(
        "loadgen --addr {first} --cluster yes --items 30720 --batch 256 --queries 60 \
         --universe 5000 --seed 1 --verify yes --window 65536 --shards 3 --memory 65536"
    ));
    assert!(report.contains("verified=60  mismatches=0"), "{report}");

    // Drained: every replica holder has acked its primary's log head (a
    // kill before that would test data loss, not failover). One line per
    // partition: `partition=P primary=N@ADDR holders=… head=H lag=ID:LAG`.
    let mut status = String::new();
    assert!(
        eventually(|| {
            status = she_ok(&format!("cluster-status --addr {first}"));
            let lags: Vec<&str> = status.lines().filter_map(|l| l.split(" lag=").nth(1)).collect();
            lags.len() == 3 && lags.iter().all(|lag| lag.ends_with(":0"))
        }),
        "replica holders never drained: {status}"
    );
    let p0 = status.lines().find(|l| l.starts_with("partition=0 ")).expect("partition 0 line");
    assert!(p0.starts_with(&format!("partition=0 primary=1@{first} holders=1,2 head=")), "{p0}");
    assert!(p0.ends_with(" lag=2:0"), "{p0}");
    let map = she_ok(&format!("cluster-map --addr {first}"));
    assert!(map.contains(" partitions=3\n"), "{map}");
    assert!(map.contains(&format!("\npartition=0 primary=1@{first} replicas=2@")), "{map}");

    let before = battery("cluster-query", second);
    nodes[0].kill();
    let mut map = String::new();
    assert!(
        eventually(|| {
            map = she_ok(&format!("cluster-map --addr {second}"));
            !map.contains(" primary=1@")
        }),
        "failover never converged: {map}"
    );
    assert!(map.contains("\npartition=0 primary=2@"), "wrong node promoted for partition 0: {map}");
    assert_eq!(battery("cluster-query", second), before, "an acknowledged write was lost");

    nodes[1].shutdown();
    nodes[2].shutdown();
    assert!(nodes.iter_mut().all(Node::exited), "LEAKED PROCESS");
}
