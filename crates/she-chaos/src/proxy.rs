//! A fault-injecting TCP proxy: clients connect to the proxy, the proxy
//! connects upstream, and every byte in both directions flows through a
//! [`ChaosStream`] drawing from a per-connection derived injector.
//!
//! The proxy is the tool for hardening *protocols*: placed on the
//! replication path it subjects bootstrap blobs, op-log records, and
//! heartbeats to partial reads, delays, resets, and bit flips — all of
//! which the checksummed `SHEF` frames and the replica's
//! reconnect/resync machinery must absorb. [`ChaosProxy::sever`] cuts
//! every live link at once, the scripted "network blip".

use crate::fault::{FaultConfig, Faults};
use crate::stream::ChaosStream;
use she_core::LeafMutex;
use she_metrics::FaultCounters;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often pump threads wake to poll the stop flag.
const PUMP_POLL: Duration = Duration::from_millis(50);

#[derive(Debug)]
struct ProxyShared {
    stop: AtomicBool,
    /// Raw sockets of live links, kept so `sever` can cut them all.
    links: LeafMutex<Vec<TcpStream>>,
    pumps: LeafMutex<Vec<JoinHandle<()>>>,
    conn_seq: AtomicU64,
}

/// A running fault proxy; see the module docs.
#[derive(Debug)]
pub struct ChaosProxy {
    local_addr: SocketAddr,
    shared: Arc<ProxyShared>,
    faults: Arc<Faults>,
    accept_thread: JoinHandle<()>,
}

impl ChaosProxy {
    /// Bind an ephemeral local port and forward every connection to
    /// `upstream`, injecting `cfg`'s faults in both directions.
    pub fn start(upstream: String, cfg: FaultConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            stop: AtomicBool::new(false),
            links: LeafMutex::new(Vec::new()),
            pumps: LeafMutex::new(Vec::new()),
            conn_seq: AtomicU64::new(0),
        });
        let faults = Arc::new(Faults::new(cfg));
        let accept_shared = Arc::clone(&shared);
        let accept_faults = Arc::clone(&faults);
        let accept_thread =
            std::thread::Builder::new().name("chaos-accept".into()).spawn(move || {
                accept_loop(listener, upstream, accept_shared, accept_faults);
            })?;
        Ok(ChaosProxy { local_addr, shared, faults, accept_thread })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The injected-fault tallies.
    pub fn counters(&self) -> Arc<FaultCounters> {
        self.faults.counters()
    }

    /// Cut every live link (both directions). New connections are still
    /// accepted — this is a blip, not an outage.
    pub fn sever(&self) {
        let mut links = self.shared.links.lock();
        for s in links.drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Stop accepting, cut every link, and join the worker threads.
    pub fn stop(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr); // unblock accept
        self.sever();
        let _ = self.accept_thread.join();
        let pumps = {
            let mut g = self.shared.pumps.lock();
            std::mem::take(&mut *g)
        };
        for p in pumps {
            let _ = p.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: String,
    shared: Arc<ProxyShared>,
    faults: Arc<Faults>,
) {
    loop {
        let Ok((client, _)) = listener.accept() else {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(server) = TcpStream::connect(&upstream) else {
            continue; // upstream down: drop the client, as a dead router would
        };
        let id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        // Pump reads poll at PUMP_POLL so the stop flag is honoured even
        // on an idle link (SO_RCVTIMEO is shared by the clones below).
        let _ = client.set_read_timeout(Some(PUMP_POLL));
        let _ = server.set_read_timeout(Some(PUMP_POLL));
        let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        {
            let mut links = shared.links.lock();
            if let (Ok(cl), Ok(sl)) = (client.try_clone(), server.try_clone()) {
                links.push(cl);
                links.push(sl);
            }
        }
        // Faults ride the upstream-facing half in each direction, each
        // pump with its own derived schedule.
        let up = ChaosStream::new(server, faults.derive(id * 2));
        let down = ChaosStream::new(s2, faults.derive(id * 2 + 1));
        let mut handles = Vec::with_capacity(2);
        let stop_a = Arc::clone(&shared);
        let stop_b = Arc::clone(&shared);
        if let Ok(h) = std::thread::Builder::new()
            .name("chaos-c2s".into())
            .spawn(move || pump(client, up, &stop_a.stop))
        {
            handles.push(h);
        }
        if let Ok(h) = std::thread::Builder::new()
            .name("chaos-s2c".into())
            .spawn(move || pump(down, c2, &stop_b.stop))
        {
            handles.push(h);
        }
        shared.pumps.lock().extend(handles);
    }
}

/// Shut both endpoints of a pump down, whatever types wrap them.
trait Sever {
    fn sever(&self);
}

impl Sever for TcpStream {
    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Sever for ChaosStream<TcpStream> {
    fn sever(&self) {
        let _ = self.get_ref().shutdown(Shutdown::Both);
    }
}

/// Copy bytes `src` → `dst` until EOF, error, or stop; then cut both
/// sockets so the sibling pump unblocks too.
fn pump<R, W>(mut src: R, mut dst: W, stop: &AtomicBool)
where
    R: Read + Sever,
    W: Write + Sever,
{
    let mut buf = [0u8; 8192];
    while !stop.load(Ordering::SeqCst) {
        match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if dst.write_all(&buf[..n]).and_then(|()| dst.flush()).is_err() {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    src.sever();
    dst.sever();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An upstream echo server good for one round per connection batch.
    fn echo_upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n) = s.read(&mut buf) {
                        if n == 0 || s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, h)
    }

    #[test]
    fn quiet_proxy_is_transparent() {
        let (up, _h) = echo_upstream();
        let proxy = ChaosProxy::start(up.to_string(), FaultConfig::quiet(1)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping");
        proxy.stop();
    }

    #[test]
    fn sever_cuts_live_links() {
        let (up, _h) = echo_upstream();
        let proxy = ChaosProxy::start(up.to_string(), FaultConfig::quiet(2)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        c.read_exact(&mut got).unwrap();
        proxy.sever();
        // After the cut the client sees EOF or a reset, never a hang.
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        match c.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("link should be dead after sever"),
        }
        // And a *new* connection still works.
        let mut c2 = TcpStream::connect(proxy.local_addr()).unwrap();
        c2.write_all(b"pong").unwrap();
        c2.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"pong");
        proxy.stop();
    }
}
