//! Rule-clean fixture. Never compiled — only lexed by
//! `tests/audit_self.rs`, which asserts the audit reports zero findings
//! here: bounded or properly-annotated growth, a reactor root that
//! reaches nothing blocking, and a clamped wire length.

pub fn first(v: &[u32]) -> Option<u32> {
    v.first().copied()
}

pub fn bounded_log(log: &mut Vec<u32>, x: u32, cap: usize) {
    if log.len() >= cap {
        log.remove(0);
    }
    log.push(x);
}

pub fn annotated_growth(v: &mut Vec<u32>, batch: &[u32]) {
    // audit:allow(growth): grows by at most one element per batch entry
    for &x in batch {
        v.push(x);
    }
}

pub fn hand_off(s: &mut std::net::TcpStream, out: &[u8]) -> std::io::Result<()> {
    // audit:allow(blocking): runs on the detached per-connection thread
    s.write_all(out)
}

// ---- reachability counterparts ----

/// Blocking root (`demo_cfg().blocking_roots`): exists (a missing root
/// is itself a finding), reaches only non-blocking code, and covers the
/// legacy `blocking_files` entry for this file.
pub fn reactor_loop(v: &[u32]) -> Option<u32> {
    first(v)
}

/// Wire-decoded length clamped at birth: quiet under the wiresize rule.
pub fn inflate(r: &mut Reader, cap: usize) -> Vec<u8> {
    let n = (r.u64() as usize).min(cap);
    Vec::with_capacity(n)
}

// A string mentioning Mutex::new must not confuse the lexer:
pub const DOC: &str = "call Mutex::new(0) and log.push(x) here";

#[cfg(test)]
mod tests {
    #[test]
    fn growth_in_tests_is_fine() {
        let mut v = Vec::new();
        v.push(super::first(&[3]));
    }
}
