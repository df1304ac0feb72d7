//! **blocking-io v2** — no call chain from a reactor root to a blocking
//! syscall wrapper. The reactor thread multiplexes every client
//! connection; one call that parks it on a socket read, a full write, or
//! an unbounded channel wait stalls *all* of them at once — including a
//! blocking call smuggled in through a helper fn defined in a file the
//! old per-file list never policed.
//!
//! v1 policed `RuleConfig::blocking_files` directly. v2 walks the
//! workspace call graph from the configured roots (the epoll poll loop,
//! the inline dispatch arm, the `QUERY_FAST` handler) and flags every
//! blocking call site inside any reachable fn, printing the full
//! root → … → fn chain. The old file list survives as a coverage
//! assertion: every legacy reactor-path file must contain at least one
//! root-reachable fn, so the computed root set can never silently rot
//! below what the hand-maintained list used to police.
//!
//! A reachable site that must block deliberately — e.g. handing a
//! connection off to a dedicated thread — carries
//! `// audit:allow(blocking): <reason>` naming the thread that actually
//! blocks. Any finding fails the gate.

use std::collections::BTreeMap;
use std::io;

use crate::graph::{CallGraph, Reach};
use crate::lexer::Lexed;
use crate::rules::{Ctx, Finding, Rule};

pub(crate) struct Blocking;

impl Rule for Blocking {
    fn name(&self) -> &'static str {
        "blocking"
    }
    fn description(&self) -> &'static str {
        "blocking syscall wrappers reachable from the reactor roots"
    }
    fn label(&self) -> &'static str {
        "blocking-io"
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        let legacy = cx.cfg.scope_of("blocking");
        Ok(check_graph(cx.graph, &cx.reactor.reach, cx.lexed, legacy, &cx.reactor.missing))
    }
}

/// Calls that park the calling thread on I/O or an unbounded wait.
/// Covers the repo's own frame codec (`read_frame` and friends are
/// blocking by design), the std blocking read/write combinators, socket
/// timeout configuration (only meaningful on blocking sockets), blocking
/// channel receives, TCP dials (a handshake, or a refused or silent
/// peer, for up to the whole timeout) and sleeps.
const BLOCKERS: [&str; 13] = [
    "read_frame",
    "read_frame_deadline",
    "write_frame",
    "read_exact",
    "read_to_end",
    "write_all",
    "recv",
    "recv_timeout",
    "set_read_timeout",
    "set_write_timeout",
    "connect",
    "connect_timeout",
    "sleep",
];

/// Run the reachability rule: every blocking sink in a root-reachable fn
/// is a finding carrying the full call chain; every legacy reactor-path
/// file must be covered by the root set; every configured root must
/// exist in the graph.
pub fn check_graph(
    graph: &CallGraph,
    reach: &Reach,
    lexed: &BTreeMap<String, Lexed>,
    blocking_files: &[String],
    missing_roots: &[String],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for spec in missing_roots {
        out.push(Finding::new(
            "blocking",
            "",
            "RuleConfig::blocking_roots",
            0,
            format!(
                "configured reactor root `{spec}` matches no fn in the workspace — the \
                 root set must track the code or the whole rule silently under-approximates"
            ),
        ));
    }
    for (id, f) in graph.fns.iter().enumerate().filter(|&(id, _)| reach.reachable[id]) {
        let Some(lx) = lexed.get(&f.file) else { continue };
        // A fn's calls exclude nested fns and carved-out spawn closures:
        // those belong to their own node, so a dedicated thread's work
        // never blames the spawner.
        for call in &f.calls {
            if !BLOCKERS.contains(&call.name.as_str())
                || lx.in_test(call.line)
                || lx.allowed("blocking", call.line)
            {
                continue;
            }
            out.push(Finding::new(
                "blocking",
                &f.crate_name,
                &f.file,
                call.line,
                format!(
                    "`{}(` blocks the reactor thread; chain: {} — go through epoll \
                     readiness, offload it, or annotate `// audit:allow(blocking): <reason>` \
                     naming the thread that actually blocks",
                    call.name,
                    graph.chain_str(reach, id)
                ),
            ));
        }
    }
    // Coverage assertion: the computed root set must still reach every
    // file the retired v1 list policed by hand.
    for suffix in blocking_files {
        let covered = graph
            .fns
            .iter()
            .enumerate()
            .any(|(i, f)| f.file.ends_with(suffix.as_str()) && reach.reachable[i]);
        if !covered {
            out.push(Finding::new(
                "blocking",
                "",
                suffix,
                0,
                "reactor root set does not reach any fn in this legacy reactor-path \
                 file — extend RuleConfig::blocking_roots to cover it"
                    .to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn run(src: &str, roots: &[&str], files: &[&str]) -> Vec<Finding> {
        let lx = lex(src);
        let items = parse_file("demo", "demo/src/lib.rs", &lx);
        let graph = CallGraph::build(vec![items]);
        let specs: Vec<(String, String)> =
            roots.iter().map(|r| ("demo".to_string(), r.to_string())).collect();
        let (ids, missing) = graph.find_roots(&specs);
        let reach = graph.reach(&ids);
        let lexed = [("demo/src/lib.rs".to_string(), lx)].into_iter().collect();
        let files: Vec<String> = files.iter().map(|s| s.to_string()).collect();
        check_graph(&graph, &reach, &lexed, &files, &missing)
    }

    #[test]
    fn chain_through_helper_is_flagged() {
        let src = "fn run() { helper(); }\nfn helper() { s.read_exact(&mut b); }\n";
        let f = run(src, &["run"], &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert!(f[0].msg.contains("run → helper"), "{}", f[0].msg);
        assert!(f[0].msg.contains("blocks the reactor thread"));
    }

    #[test]
    fn unreachable_blocking_is_fine() {
        let src = "fn run() {}\nfn feed_thread() { s.write_all(&b); }\n";
        assert!(run(src, &["run"], &[]).is_empty());
    }

    #[test]
    fn spawned_closure_does_not_taint_the_spawner() {
        let src = "fn run() { spawn(move || { rx.recv(); }); poll(); }\nfn poll() {}\n";
        assert!(run(src, &["run"], &[]).is_empty());
    }

    /// Each dial and sleep form is a sink when the reactor reaches it.
    #[test]
    fn dials_and_sleeps_are_sinks() {
        for (call, name) in [
            ("TcpStream::connect(addr)", "connect"),
            ("TcpStream::connect_timeout(&sa, t)", "connect_timeout"),
            ("std::thread::sleep(pause)", "sleep"),
        ] {
            let src = format!("fn run() {{ send_leg(); }}\nfn send_leg() {{ {call}; }}\n");
            let f = run(&src, &["run"], &[]);
            assert_eq!(f.len(), 1, "{call}: {f:?}");
            assert!(f[0].msg.contains(&format!("`{name}(`")), "{}", f[0].msg);
            assert!(f[0].msg.contains("run → send_leg"), "{}", f[0].msg);
        }
    }

    /// A dial on a one-shot thread is the sanctioned form: the spawned
    /// closure is its own node, so the spawner stays clean.
    #[test]
    fn dial_inside_a_spawned_closure_is_not_flagged() {
        let src = "fn run() { open_link(); }\nfn open_link() {\n    \
                   spawn(move || { let s = TcpStream::connect_timeout(&sa, t); tx.send(s); });\n}\n";
        assert!(run(src, &["run"], &[]).is_empty());
    }

    #[test]
    fn allow_suppresses_a_reachable_sink() {
        let src = "fn run() { handoff(); }\nfn handoff() {\n    \
                   // audit:allow(blocking): runs once, then the fd moves to the feed thread\n    \
                   s.set_read_timeout(None);\n}\n";
        assert!(run(src, &["run"], &[]).is_empty());
    }

    #[test]
    fn missing_root_is_a_finding() {
        let f = run("fn run() {}\n", &["ghost"], &[]);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("matches no fn"), "{}", f[0].msg);
    }

    #[test]
    fn uncovered_legacy_file_is_a_finding() {
        let f = run("fn run() {}\n", &["run"], &["demo/src/other.rs"]);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("does not reach any fn"), "{}", f[0].msg);
    }

    #[test]
    fn covered_legacy_file_is_quiet() {
        let f = run("fn run() { helper(); }\nfn helper() {}\n", &["run"], &["demo/src/lib.rs"]);
        assert!(f.is_empty(), "{f:?}");
    }
}
