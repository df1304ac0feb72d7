//! Cluster node processes. The benchmark binary re-executes itself as
//! `ladder node …`, which does exactly what `she cluster-serve` does —
//! `ClusterNode::start` then `wait` — so the cluster under test runs in
//! processes of its own, separate from the load generator, without
//! building the whole CLI.

use she_cluster::{parse_roster, ClusterNode, NodeConfig};
use std::io::{self, Read};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

/// Gossip fast enough that replica slots bootstrap within a few hundred
/// milliseconds of start; the failure detector stays at its default.
const GOSSIP_MS: u64 = 100;
const HEARTBEAT_TIMEOUT_MS: u64 = 2000;

/// `ladder node --id N --roster 1@host:port,… --replication R`.
pub fn run_node(args: &[String]) -> Result<(), String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("node: missing {flag}"))
    };
    let node_id = value("--id")?.parse::<u64>().map_err(|e| format!("node: --id: {e}"))?;
    let replication =
        value("--replication")?.parse::<u16>().map_err(|e| format!("node: --replication: {e}"))?;
    let roster = parse_roster(value("--roster")?)?;
    let node = ClusterNode::start(NodeConfig {
        node_id,
        roster,
        replication,
        gossip_ms: GOSSIP_MS,
        heartbeat_timeout_ms: HEARTBEAT_TIMEOUT_MS,
        ..NodeConfig::default()
    })
    .map_err(|e| format!("node {node_id}: {e}"))?;
    // The parent holds our stdin: when it goes away, however it goes,
    // the pipe closes and this node exits instead of being orphaned.
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        while matches!(io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    node.wait();
    Ok(())
}

/// The spawned node processes; dropping the guard kills and reaps every
/// one, also when a panic unwinds through it.
#[derive(Debug)]
pub struct Children(Vec<Child>);

impl Children {
    /// Spawn `nodes` node processes on probed loopback ports; returns the
    /// guard and the primaries' addresses in node-id order.
    pub fn spawn_cluster(nodes: usize, replication: u16) -> io::Result<(Children, Vec<String>)> {
        // Bind port 0 to learn free ports, then release them for the nodes.
        let probes: Vec<TcpListener> =
            (0..nodes).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
        let addrs: Vec<String> = probes
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<Result<_, _>>()?;
        drop(probes);
        let roster: Vec<String> =
            addrs.iter().enumerate().map(|(i, addr)| format!("{}@{addr}", i + 1)).collect();
        let roster = roster.join(",");
        let exe = std::env::current_exe()?;
        let mut children = Children(Vec::with_capacity(nodes));
        for id in 1..=nodes {
            let child = Command::new(&exe)
                .args(["node", "--id", &id.to_string(), "--roster", &roster])
                .args(["--replication", &replication.to_string()])
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .spawn()?;
            children.0.push(child);
        }
        Ok((children, addrs))
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
        }
        for child in &mut self.0 {
            let _ = child.wait();
        }
    }
}
