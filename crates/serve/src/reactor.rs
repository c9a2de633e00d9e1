//! A thin `epoll` readiness reactor over raw libc syscalls.
//!
//! The workspace is std-only, so instead of pulling in `mio`/`libc` this
//! module declares the four syscalls it needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `pipe2`) the same way
//! [`crate::install_sigint`] declares `signal(2)` — libc is always linked
//! into std binaries on Linux. Everything unsafe lives here behind a safe
//! API; the event loop in `crate::event` never touches a raw fd except
//! through [`Reactor`] and [`WakePipe`].
//!
//! The reactor is **level-triggered** (the epoll default): a socket with
//! unread bytes or unflushed write space keeps reporting ready, so the
//! event loop can stop reading/writing at any convenient boundary without
//! losing the wakeup — no `EPOLLET` starvation bookkeeping.

#![cfg(target_os = "linux")]

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

// Linux ABI constants (asm-generic values; x86_64 and aarch64 agree).
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;

/// `struct epoll_event` — packed on x86_64 (12 bytes), and the packed
/// layout is ABI-compatible on the other 64-bit Linux targets as well
/// because the kernel reads it bytewise via the syscall ABI.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

fn last_err() -> io::Error {
    io::Error::last_os_error()
}

/// What a registration wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd accepts more bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest — a connection with a partially flushed
    /// response.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Write-only interest — a half-closed connection still flushing its
    /// final response.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            // RDHUP rides with read interest only: it is level-triggered,
            // so arming it on a write-only registration would make a
            // half-closed peer report ready forever.
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification out of [`Reactor::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Bytes (or EOF) are waiting to be read.
    pub readable: bool,
    /// The socket accepts more bytes.
    pub writable: bool,
    /// Error or hangup — the connection should be torn down after any
    /// final read drains buffered bytes.
    pub hangup: bool,
}

/// An owned `epoll` instance. Fds are registered under a caller-chosen
/// `u64` token that comes back verbatim in [`Event::token`].
pub struct Reactor {
    epfd: RawFd,
    /// Reused event buffer for [`Reactor::wait`].
    events: Vec<EpollEvent>,
}

impl Reactor {
    /// Create the epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_err());
        }
        Ok(Self {
            epfd,
            events: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: Option<(u64, Interest)>) -> io::Result<()> {
        let mut ev = interest.map(|(token, i)| EpollEvent {
            events: i.mask(),
            data: token,
        });
        let ptr = ev
            .as_mut()
            .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
            return Err(last_err());
        }
        Ok(())
    }

    /// Register `fd` under `token` with the given interest.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some((token, interest)))
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Some((token, interest)))
    }

    /// Remove `fd` from the interest list. (Closing the fd also removes
    /// it, but an explicit deregister keeps teardown deterministic.)
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses, then call `sink` once per ready fd. Returns the number of
    /// notifications delivered (0 on timeout). `EINTR` is reported as 0
    /// rather than an error so signal delivery never kills the loop.
    pub fn wait(&mut self, timeout: Duration, mut sink: impl FnMut(Event)) -> io::Result<usize> {
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.events.as_mut_ptr(),
                self.events.len() as i32,
                ms,
            )
        };
        if n < 0 {
            let e = last_err();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        let n = n as usize;
        for i in 0..n {
            let ev = self.events[i];
            let bits = ev.events;
            sink(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

/// A nonblocking self-pipe used to wake the reactor from worker threads:
/// the read end is registered in the epoll set, workers write one byte
/// after pushing a completion. Writes to a full pipe are dropped — the
/// pending byte already guarantees a wakeup.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

/// The clonable writer half handed to worker threads.
#[derive(Clone, Copy)]
pub struct Waker {
    write_fd: RawFd,
}

impl WakePipe {
    /// Create the pipe (both ends nonblocking, close-on-exec).
    pub fn new() -> io::Result<Self> {
        let mut fds = [0i32; 2];
        if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
            return Err(last_err());
        }
        Ok(Self {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The fd to register for read interest in the reactor.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// A writer handle for worker threads. The handle borrows the pipe's
    /// lifetime logically (fd-copy), so the [`WakePipe`] must outlive the
    /// workers — the event loop joins them before dropping it.
    pub fn waker(&self) -> Waker {
        Waker {
            write_fd: self.write_fd,
        }
    }

    /// Drain all pending wake bytes (call once per readiness event).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return; // empty (EAGAIN), EOF, or a transient error
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

impl Waker {
    /// Wake the reactor. Best-effort: a full pipe already has a pending
    /// wake byte, so the dropped write is harmless.
    pub fn wake(&self) {
        let b = [1u8];
        unsafe { write(self.write_fd, b.as_ptr(), 1) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wait_times_out_when_nothing_is_ready() {
        let mut r = Reactor::new().unwrap();
        let n = r
            .wait(Duration::from_millis(10), |_| panic!("no events expected"))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn readable_socket_reports_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut r = Reactor::new().unwrap();
        r.register(server_side.as_raw_fd(), 42, Interest::READ)
            .unwrap();

        client.write_all(b"ping").unwrap();
        let mut seen = Vec::new();
        r.wait(Duration::from_secs(1), |ev| seen.push(ev)).unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].token, 42);
        assert!(seen[0].readable);
        assert!(!seen[0].hangup);

        // Level-triggered: unread bytes keep the fd ready.
        let n = r.wait(Duration::from_millis(50), |_| {}).unwrap();
        assert_eq!(n, 1);
        let mut buf = [0u8; 16];
        let mut s = &server_side;
        assert_eq!(s.read(&mut buf).unwrap(), 4);
        assert_eq!(r.wait(Duration::from_millis(10), |_| {}).unwrap(), 0);
    }

    #[test]
    fn hangup_is_reported_after_peer_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut r = Reactor::new().unwrap();
        r.register(server_side.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        drop(client);
        let mut hangup = false;
        r.wait(Duration::from_secs(1), |ev| hangup |= ev.hangup)
            .unwrap();
        assert!(hangup);
    }

    #[test]
    fn modify_enables_write_interest_and_deregister_silences() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut r = Reactor::new().unwrap();
        let fd = server_side.as_raw_fd();
        r.register(fd, 1, Interest::READ).unwrap();
        // An idle socket with write interest is immediately writable.
        r.modify(fd, 1, Interest::READ_WRITE).unwrap();
        let mut writable = false;
        r.wait(Duration::from_secs(1), |ev| writable |= ev.writable)
            .unwrap();
        assert!(writable);
        r.deregister(fd).unwrap();
        assert_eq!(r.wait(Duration::from_millis(10), |_| {}).unwrap(), 0);
    }

    #[test]
    fn wake_pipe_wakes_and_drains() {
        let pipe = WakePipe::new().unwrap();
        let mut r = Reactor::new().unwrap();
        r.register(pipe.read_fd(), 99, Interest::READ).unwrap();
        let waker = pipe.waker();
        let t = std::thread::spawn(move || waker.wake());
        let mut woke = false;
        r.wait(Duration::from_secs(1), |ev| woke |= ev.token == 99)
            .unwrap();
        t.join().unwrap();
        assert!(woke);
        pipe.drain();
        assert_eq!(r.wait(Duration::from_millis(10), |_| {}).unwrap(), 0);
    }
}
