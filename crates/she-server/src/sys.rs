//! Minimal Linux `epoll` FFI shims and a cross-thread waker — the entire
//! OS surface of the reactor, kept to four raw syscalls so the crate
//! stays free of external dependencies. Everything else the reactor
//! needs (non-blocking sockets, vectored writes, raw fds) comes from
//! `std`.
//!
//! The `EpollEvent` layout matches the kernel ABI: packed on x86/x86_64
//! (where the kernel struct is `__attribute__((packed))`), naturally
//! aligned elsewhere.
//!
//! This module is the crate's **only** `unsafe` exception (the crate
//! otherwise denies `unsafe_code`): four FFI declarations and their call
//! sites, each with a SAFETY argument.

#![allow(
    unsafe_code,
    reason = "the epoll FFI boundary: four syscalls, each block with a SAFETY argument"
)]

use std::fmt;
use std::io::{self, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;

/// Readable (or peer closed — `EPOLLHUP`/`EPOLLRDHUP` also wake reads).
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to request it).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported; no need to request it).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down the write half of the connection.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;

/// One readiness event, kernel ABI layout.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The caller's token, returned verbatim with each event.
    pub data: u64,
}

impl fmt::Debug for EpollEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Copy out of the packed struct; references into it are UB.
        let events = self.events;
        let data = self.data;
        f.debug_struct("EpollEvent").field("events", &events).field("data", &data).finish()
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: c_int,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; any flag value is
        // accepted or rejected by the kernel with -1/errno.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    /// Register `fd` for `events`, tagging its events with `data`.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a live, properly laid out (#[repr(C)], kernel
        // ABI) stack value for the duration of the call.
        let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Deregister `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add` — pre-2.6.9 kernels demanded a non-null
        // event pointer even for DEL, and `ev` satisfies both eras.
        let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait up to `timeout_ms` for events; fills `events` from the front
    /// and returns how many arrived (0 on timeout or `EINTR`).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let cap = c_int::try_from(events.len()).unwrap_or(c_int::MAX).max(1);
        // SAFETY: `events` is a live mutable slice; `cap` never exceeds
        // its length, so the kernel writes only within bounds.
        let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), cap, timeout_ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(usize::try_from(rc).unwrap_or(0))
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` came from a successful epoll_create1 and is
        // owned exclusively by this value; double-close is impossible.
        unsafe {
            close(self.fd);
        }
    }
}

/// Wakes a reactor blocked in [`Epoll::wait`] from any thread, by writing
/// one byte into a socketpair whose read half is registered with the
/// epoll instance. Wakes coalesce: the byte is advisory, the reactor
/// drains the socket and re-checks all its queues.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Poke the reactor. Errors (full pipe, reactor gone) are ignored —
    /// a full pipe already guarantees a pending wakeup.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// A connected waker pair: the [`Waker`] for producers, the read half for
/// the reactor to register and drain. Both halves are non-blocking.
pub fn waker_pair() -> io::Result<(Waker, UnixStream)> {
    let (rx, tx) = UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Convenience: the raw fd of any socket-like type.
pub fn raw_fd<T: AsRawFd>(s: &T) -> RawFd {
    s.as_raw_fd()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn epoll_reports_readable_socketpair() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        epoll.add(b.as_raw_fd(), EPOLLIN, 42).expect("add");
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0, "nothing readable yet");
        (&a).write_all(b"x").expect("write");
        let n = epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 42);
        epoll.del(b.as_raw_fd()).expect("del");
    }

    #[test]
    fn waker_wakes_and_drains() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (waker, mut rx) = waker_pair().expect("pair");
        epoll.add(rx.as_raw_fd(), EPOLLIN, 7).expect("add");
        waker.wake();
        waker.wake();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let n = epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1, "wakes coalesce onto one fd");
        let mut buf = [0u8; 16];
        let drained = rx.read(&mut buf).expect("drain");
        assert!(drained >= 1);
    }
}
