//! Deliberately rule-violating fixture. Never compiled — only lexed by
//! `tests/audit_self.rs`, which asserts every audit rule fires on this
//! file. If you add a rule to she-audit, add a violation here.

// audit:allow(growth)
pub fn malformed_allow_above() {}

// audit:allow(panik): names no registered rule, so it excuses nothing
pub fn unknown_allow_above() {}

pub fn hoard(log: &mut Vec<u32>, x: u32) {
    log.push(x);
}

pub fn stall_the_reactor(s: &mut std::net::TcpStream, buf: &mut [u8]) {
    let _ = s.read_exact(buf);
}

// ---- reachability violations ----

/// Blocking root (`demo_cfg().blocking_roots`): reaches the blocking
/// `read_exact` through a helper, so the finding must carry the chain.
pub fn reactor_loop(s: &mut std::net::TcpStream, buf: &mut [u8]) {
    stall_the_reactor(s, buf);
}

/// Allocation sized straight off a decoded wire length, never clamped.
pub fn inflate(r: &mut Reader) -> Vec<u8> {
    let n = r.u64() as usize;
    Vec::with_capacity(n)
}
