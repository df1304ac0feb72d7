//! Lock-order fixture. Never compiled — only lexed by
//! `tests/graph_rules.rs` with a manifest of `outer = 10, inner = 20`:
//! `forwards` nests in increasing rank (fine), `backwards` inverts it
//! (an acquisition-order finding), and `caller` reaches the inversion
//! through a helper so the edge must be mined across fn boundaries.
//! `ping` and `pong` call each other and only `ping` locks: the two
//! holders reach that lock from either side of the recursion cycle.

use she_core::OrderedMutex;

pub struct Pair {
    first: OrderedMutex<u32>,
    second: OrderedMutex<u32>,
}

pub fn make() -> Pair {
    Pair {
        first: OrderedMutex::new("outer", 0),
        second: OrderedMutex::new("inner", 0),
    }
}

pub fn forwards(p: &Pair) -> u32 {
    let lo = p.first.lock();
    let hi = p.second.lock();
    *lo + *hi
}

pub fn backwards(p: &Pair) -> u32 {
    let hi = p.second.lock();
    let lo = p.first.lock();
    *lo + *hi
}

pub fn caller(p: &Pair) -> u32 {
    let hi = p.second.lock();
    tail(p) + *hi
}

fn tail(p: &Pair) -> u32 {
    *p.first.lock()
}

fn ping(p: &Pair, n: u32) -> u32 {
    if n == 0 {
        return *p.first.lock();
    }
    pong(p, n - 1)
}

fn pong(p: &Pair, n: u32) -> u32 {
    ping(p, n)
}

pub fn holds_then_pings(p: &Pair) -> u32 {
    let hi = p.second.lock();
    ping(p, 1) + *hi
}

pub fn holds_then_pongs(p: &Pair) -> u32 {
    let hi = p.second.lock();
    pong(p, 1) + *hi
}
