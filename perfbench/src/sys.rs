//! The process calls std does not expose: a child's own peak resident
//! set (`wait4`), and pointing stdout at a file while in-process
//! experiments print their tables (`dup`/`dup2`). Linux only, like the
//! `/proc` reads elsewhere in the benchmark.

use std::fs::File;
use std::io::{self, Write};
use std::os::fd::AsRawFd;
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn dup(fd: i32) -> i32;
    fn dup2(old: i32, new: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Reap `child` and return its exit status with its peak resident set
/// in KiB. `child` must not have been waited for already.
pub fn wait_with_peak_rss(child: Child) -> io::Result<(ExitStatus, u64)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and `struct rusage`; `pid` is our unreaped
        // child, so no other process can be reaped by mistake.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok((
        ExitStatus::from_raw(status),
        u64::try_from(usage.maxrss).unwrap_or(0),
    ))
}

/// Stdout redirected into a file until dropped.
pub struct Redirect {
    saved: i32,
}

impl Redirect {
    pub fn stdout_to(file: &File) -> io::Result<Self> {
        io::stdout().flush()?;
        // SAFETY: `dup` only reads the descriptor table; fd 1 is open for
        // the life of the process.
        let saved = unsafe { dup(1) };
        if saved < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `file` is open for the duration of the call; `dup2`
        // atomically replaces fd 1, whose previous target `saved` keeps.
        if unsafe { dup2(file.as_raw_fd(), 1) } < 0 {
            let err = io::Error::last_os_error();
            // SAFETY: `saved` is the descriptor `dup` just returned.
            unsafe { close(saved) };
            return Err(err);
        }
        Ok(Redirect { saved })
    }
}

impl Drop for Redirect {
    fn drop(&mut self) {
        let _ = io::stdout().flush();
        // SAFETY: `saved` is the duplicate of the original stdout taken
        // in `stdout_to` and owned only by this guard.
        unsafe {
            dup2(self.saved, 1);
            close(self.saved);
        }
    }
}

/// One lowest-priority busy thread per processor while alive, so no
/// processor goes idle. Waking an idle virtual processor costs a
/// variable, often millisecond, delay that would otherwise dominate the
/// spread of sub-millisecond request latencies; a `SCHED_IDLE` thread
/// yields to any other runnable thread at once.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    #[must_use]
    pub fn start(processors: usize) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let threads = (0..processors)
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { priority: 0 };
                    // SAFETY: `param` is a live `struct sched_param`; pid 0
                    // names the calling thread.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return; // never spin at normal priority
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Peak resident set (`VmHWM`) of a running process, in KiB.
#[must_use]
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn peak_rss_of_a_child_is_reported() {
        let child = Command::new("true").spawn().unwrap();
        let (status, kib) = wait_with_peak_rss(child).unwrap();
        assert!(status.success());
        assert!(kib > 0);
    }

    #[test]
    fn own_vm_hwm_is_readable() {
        assert!(vm_hwm_kib(std::process::id()).unwrap() > 0);
    }
}
