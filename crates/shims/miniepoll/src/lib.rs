//! Offline stand-in for the epoll bindings of `libc`/`mio`: raw syscall
//! wrappers for `epoll_create1` / `epoll_ctl` / `epoll_wait` plus an
//! `eventfd`-based cross-thread wakeup — just enough surface for one
//! readiness loop per server shard. Like the other `crates/shims/*`
//! crates it has **no dependencies** (the build is offline); the FFI
//! declarations below are the entire unsafe surface of the workspace.
//!
//! # Safety invariants
//!
//! The wrappers stay sound because the following invariants hold — they
//! are what a reviewer should check when touching this crate:
//!
//! * **Struct layout.** `epoll_ctl` / `epoll_wait` exchange
//!   `EpollEvent` values with the kernel, so the struct must match the
//!   kernel ABI bit for bit: `u32` events word followed by a 64-bit
//!   user-data word, **packed** (no padding between the two) on x86-64
//!   and x86 — the one architecture family where the kernel declares
//!   `epoll_event` with `__attribute__((packed))`. The `#[repr(C,
//!   packed)]` below encodes exactly that; porting this crate to another
//!   Linux architecture means auditing that attribute first.
//! * **Fd ownership.** The epoll instance and the eventfd are held as
//!   [`OwnedFd`](std::os::fd::OwnedFd)s, so they close exactly once, on drop. *Registered* fds
//!   are borrowed, never owned: callers must keep a registered fd open
//!   until it is [`Epoll::delete`]d or the epoll instance is dropped.
//!   (Closing a registered fd is not a leak — the kernel drops the
//!   registration with the last copy of the open file — but after a
//!   `close` the fd number can be reused, so a stale registration would
//!   alias the *new* stream. The serve reactor deletes before closing.)
//! * **Buffer validity.** [`Epoll::wait`] passes `events.as_mut_ptr()`
//!   and the buffer's `capacity()` to the kernel and then `set_len` to
//!   the return value — sound because `EpollEvent` is plain old data
//!   (any byte pattern is a valid value) and the kernel writes exactly
//!   `ret` entries.
//! * **Signal handling.** `epoll_wait` and the eventfd `read`/`write`
//!   can fail with `EINTR`; the wrappers retry internally, so callers
//!   never observe it.
//!
//! Level-triggered only: the serve reactor re-arms interest by calling
//! [`Epoll::modify`] when its write buffer empties or fills, and
//! level-triggered semantics make a missed edge impossible (the next
//! `wait` reports readiness again). `EPOLLET` is deliberately not
//! exposed.
//!
//! On non-Linux targets the same API compiles but every constructor
//! returns [`std::io::ErrorKind::Unsupported`]; gate call sites on
//! [`SUPPORTED`].

#![forbid(unsafe_op_in_unsafe_fn)]

/// `true` when this build has a real epoll behind it (Linux); on other
/// platforms every constructor returns `ErrorKind::Unsupported` and
/// callers should fall back to a threaded design.
pub const SUPPORTED: bool = cfg!(target_os = "linux");

/// What a registration waits for; readiness is reported via [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer half-closed).
    pub readable: bool,
    /// Wake when the fd accepts writes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest — while a write buffer is non-empty.
    pub const READABLE_WRITABLE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The `token` the fd was registered with.
    pub token: u64,
    /// The raw `EPOLL*` bits the kernel reported.
    events: u32,
}

impl Event {
    /// Readable (`EPOLLIN`): data, or an EOF, is waiting. Reported on a
    /// peer's clean close too — the read then returns 0.
    pub fn readable(&self) -> bool {
        self.events & sys::EPOLLIN != 0
    }

    /// Writable (`EPOLLOUT`): the fd accepts writes without blocking.
    pub fn writable(&self) -> bool {
        self.events & sys::EPOLLOUT != 0
    }

    /// Hung up or errored (`EPOLLHUP` / `EPOLLERR`) — the kernel
    /// reports these even when not requested, and **keeps** reporting
    /// them level-triggered, so a caller must react (close the fd) or
    /// it will spin. The serve reactor treats either as fatal for the
    /// connection.
    pub fn closed(&self) -> bool {
        self.events & (sys::EPOLLHUP | sys::EPOLLERR) != 0
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// The kernel's `struct epoll_event`: a 32-bit events mask and a
    /// 64-bit user-data word. Packed on x86-64/x86 (see the crate docs'
    /// safety invariants); other architectures use natural alignment.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{sys, Event, Interest};
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.readable {
            bits |= sys::EPOLLIN;
        }
        if interest.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    /// An epoll instance (closed on drop). Registrations are
    /// level-triggered; see the crate docs for the safety invariants.
    pub struct Epoll {
        epfd: OwnedFd,
        /// Reused kernel-side event buffer for [`Epoll::wait`].
        buffer: Vec<sys::EpollEvent>,
    }

    impl Epoll {
        /// Creates an epoll instance (`EPOLL_CLOEXEC`).
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers; a non-negative
            // return is a freshly created fd we immediately own.
            let raw = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                // SAFETY: `raw` is a valid fd owned by nobody else.
                epfd: unsafe { OwnedFd::from_raw_fd(raw) },
                buffer: Vec::with_capacity(64),
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, event: Option<sys::EpollEvent>) -> io::Result<()> {
            let mut event = event;
            let ptr = event
                .as_mut()
                .map_or(std::ptr::null_mut(), |e| e as *mut sys::EpollEvent);
            // SAFETY: `ptr` is null (DEL) or points at a live stack
            // value for the duration of the call; the kernel only reads
            // it. The caller guarantees `fd` is open (crate invariant).
            let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, ptr) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` with `token` (returned verbatim in events).
        /// The fd must stay open until [`Epoll::delete`] — see the crate
        /// docs.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let event = sys::EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            self.ctl(sys::EPOLL_CTL_ADD, fd, Some(event))
        }

        /// Changes a registration's interest set (write-interest
        /// toggling is the expected use).
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let event = sys::EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            self.ctl(sys::EPOLL_CTL_MOD, fd, Some(event))
        }

        /// Removes a registration. Call *before* closing the fd (a
        /// close-then-reuse of the fd number would alias registrations).
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, None)
        }

        /// Blocks until at least one registered fd is ready (or
        /// `timeout_ms` elapses; negative = wait forever), appending the
        /// reports to `events` (cleared first). Retries `EINTR`.
        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            events.clear();
            let capacity = self.buffer.capacity().max(1) as i32;
            let ready = loop {
                // SAFETY: the pointer/capacity pair describes the spare
                // buffer; the kernel writes at most `capacity` entries
                // and returns how many. EpollEvent is plain old data, so
                // set_len over kernel-written entries is sound.
                let rc = unsafe {
                    sys::epoll_wait(
                        self.epfd.as_raw_fd(),
                        self.buffer.as_mut_ptr(),
                        capacity,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            // SAFETY: the kernel initialized exactly `ready` entries
            // (`ready <= capacity` by the epoll_wait contract).
            unsafe { self.buffer.set_len(ready) };
            events.extend(self.buffer.iter().map(|e| Event {
                token: e.data,
                events: e.events,
            }));
            Ok(ready)
        }
    }

    /// A nonblocking `eventfd` wakeup: any thread [`signal`]s, the
    /// reactor registers [`fd`] for read interest and [`drain`]s on
    /// wake. The fd is wrapped in a [`File`] so reads/writes go through
    /// std (no extra FFI) and it closes on drop.
    ///
    /// [`signal`]: EventFd::signal
    /// [`fd`]: EventFd::fd
    /// [`drain`]: EventFd::drain
    pub struct EventFd {
        file: File,
    }

    impl EventFd {
        /// Creates a nonblocking, close-on-exec eventfd with count 0.
        pub fn new() -> io::Result<EventFd> {
            // SAFETY: eventfd takes no pointers; a non-negative return
            // is a freshly created fd we immediately own.
            let raw = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `raw` is a valid fd owned by nobody else.
            Ok(EventFd {
                file: File::from(unsafe { OwnedFd::from_raw_fd(raw) }),
            })
        }

        /// The fd to register with [`Epoll::add`]; readable whenever the
        /// counter is non-zero. Borrowed by the epoll registration —
        /// keep the `EventFd` alive until deregistered (crate
        /// invariant).
        pub fn fd(&self) -> RawFd {
            self.file.as_raw_fd()
        }

        /// Wakes the owning reactor (adds 1 to the counter). Saturation
        /// (`WouldBlock` on a full counter) still means "signalled", so
        /// it is not an error; `EINTR` is retried.
        pub fn signal(&self) {
            let one = 1u64.to_ne_bytes();
            loop {
                match (&self.file).write(&one) {
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    _ => return,
                }
            }
        }

        /// Clears the counter (after a readable event), so the next
        /// [`signal`](EventFd::signal) triggers a fresh wake. Returns
        /// `true` if any signals had accumulated.
        pub fn drain(&self) -> bool {
            let mut buf = [0u8; 8];
            loop {
                match (&self.file).read(&mut buf) {
                    Ok(_) => return true,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return false, // WouldBlock: already clear
                }
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "miniepoll requires Linux (check miniepoll::SUPPORTED)",
        )
    }

    /// Unsupported-platform stub; see [`super::SUPPORTED`].
    pub struct Epoll {}

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            Err(unsupported())
        }

        pub fn add(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn wait(&mut self, _events: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    /// Unsupported-platform stub; see [`super::SUPPORTED`].
    pub struct EventFd {}

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            Err(unsupported())
        }

        pub fn fd(&self) -> RawFd {
            -1
        }

        pub fn signal(&self) {}

        pub fn drain(&self) -> bool {
            false
        }
    }
}

pub use imp::{Epoll, EventFd};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn reports_readability_with_the_registered_token() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let mut epoll = Epoll::new().unwrap();
        epoll.add(b.as_raw_fd(), 7, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        // Nothing to read yet: a zero-timeout wait reports no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        a.write_all(b"x").unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());
        epoll.delete(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn write_interest_toggles_via_modify() {
        let (_a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let mut epoll = Epoll::new().unwrap();
        epoll.add(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        // An idle socket's send buffer has room: writable immediately
        // once write interest is armed.
        epoll
            .modify(b.as_raw_fd(), 1, Interest::READABLE_WRITABLE)
            .unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert!(events[0].writable());
        epoll.modify(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn peer_close_reads_as_readable_eof() {
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let mut epoll = Epoll::new().unwrap();
        epoll.add(b.as_raw_fd(), 3, Interest::READABLE).unwrap();
        drop(a);
        let mut events = Vec::new();
        assert!(epoll.wait(&mut events, 1000).unwrap() >= 1);
        assert!(events[0].readable());
        let mut buf = [0u8; 8];
        let mut b = b;
        assert_eq!(b.read(&mut buf).unwrap(), 0); // EOF
    }

    #[test]
    fn eventfd_signals_across_threads_and_drains() {
        let wake = EventFd::new().unwrap();
        let mut epoll = Epoll::new().unwrap();
        epoll.add(wake.fd(), u64::MAX, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        std::thread::scope(|scope| {
            scope.spawn(|| wake.signal());
        });
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, u64::MAX);
        assert!(wake.drain());
        assert!(!wake.drain()); // already clear
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn signal_saturation_is_not_lost() {
        let wake = EventFd::new().unwrap();
        for _ in 0..10_000 {
            wake.signal();
        }
        let mut epoll = Epoll::new().unwrap();
        epoll.add(wake.fd(), 0, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert!(wake.drain());
    }
}
