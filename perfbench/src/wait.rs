//! Waiting for socket input with a sub-millisecond deadline.
//!
//! The open-loop generator must wake at each request's due time or as
//! soon as a reply arrives, whichever comes first. Socket read timeouts
//! round up to the kernel tick (milliseconds) and `poll(2)` takes whole
//! milliseconds, so this calls `ppoll(2)`, whose timeout is a
//! `timespec`, and first sets the thread's timer slack to 1 ns (the
//! default 50 µs of slack would show up as generator lateness). std
//! exposes neither call, hence the `extern` items.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::os::raw::c_int;
    fn prctl(
        option: std::os::raw::c_int,
        arg2: std::os::raw::c_ulong,
        arg3: std::os::raw::c_ulong,
        arg4: std::os::raw::c_ulong,
        arg5: std::os::raw::c_ulong,
    ) -> std::os::raw::c_int;
}

/// Makes the calling thread's timed waits expire on time (1 ns slack).
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling state; the unused arguments
    // are passed as 0 as prctl(2) asks.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Blocks until one of `fds` is readable or `timeout` passes; returns
/// whether each descriptor is readable (or hung up).
pub fn readable(fds: &[RawFd], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `set` is a live, exclusively borrowed slice of
    // `#[repr(C)]` structs with the layout of `struct pollfd`, and its
    // length is passed alongside, so the kernel writes only `revents`
    // inside it; `ts` outlives the call and has the layout of `struct
    // timespec` on 64-bit Linux; a null signal mask leaves the mask as
    // it is.
    let rc = unsafe {
        ppoll(
            set.as_mut_ptr(),
            set.len() as std::os::raw::c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(err);
    }
    Ok(set.iter().map(|p| p.revents != 0).collect())
}
