//! Child processes with their resource usage, and this process's own.
//!
//! The standard library reports neither the peak memory nor the CPU
//! time of a child, so a child is reaped with `wait4`, which returns its
//! `rusage`; `getrusage` does the same for this process.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of LP64 Linux: two `timeval`s, then 14 `long`s, the
/// first of which is the peak resident set size in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

impl Rusage {
    fn zeroed() -> Rusage {
        Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss_kib: 0,
            rest: [0; 13],
        }
    }

    fn cpu(&self) -> Duration {
        let micros = |t: &Timeval| {
            u64::try_from(t.sec).unwrap_or(0) * 1_000_000 + u64::try_from(t.usec).unwrap_or(0)
        };
        Duration::from_micros(micros(&self.utime) + micros(&self.stime))
    }
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// One finished child process.
pub struct Finished {
    /// From just before spawning to reaping.
    pub wall: Duration,
    /// User plus system CPU time of the child.
    pub cpu: Duration,
    /// Peak resident set size of the child, in KiB.
    pub maxrss_kib: u64,
    /// Whether it exited with status 0.
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

/// Runs `program args…` to completion, capturing both output streams.
pub fn run(program: &str, args: &[&str]) -> std::io::Result<Finished> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut out_pipe = child.stdout.take().expect("stdout is piped");
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    let (stdout, stderr) = std::thread::scope(|scope| {
        let err_reader = scope.spawn(move || {
            let mut text = String::new();
            err_pipe.read_to_string(&mut text).map(|_| text)
        });
        let mut text = String::new();
        let out = out_pipe.read_to_string(&mut text).map(|_| text);
        let err = err_reader.join().expect("the stderr reader does not panic");
        (out, err)
    });
    let mut status = 0i32;
    let mut usage = Rusage::zeroed();
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on
        // it, since `child` is neither waited on nor killed), and both
        // pointers refer to live, properly aligned locals of the types
        // `wait4` expects.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed();
    drop(child);
    Ok(Finished {
        wall,
        cpu: usage.cpu(),
        maxrss_kib: u64::try_from(usage.maxrss_kib).unwrap_or(0),
        // WIFEXITED(status) && WEXITSTATUS(status) == 0.
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        stdout: stdout?,
        stderr: stderr?,
    })
}

fn self_usage() -> Rusage {
    let mut usage = Rusage::zeroed();
    // SAFETY: `usage` is a live, properly aligned `struct rusage`, which
    // `getrusage(RUSAGE_SELF, …)` only writes into.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail on valid input");
    usage
}

/// CPU time (user plus system, all threads) this process has used.
pub fn self_cpu() -> Duration {
    self_usage().cpu()
}

/// Peak resident set size of this process so far, in KiB.
pub fn self_maxrss_kib() -> u64 {
    u64::try_from(self_usage().maxrss_kib).unwrap_or(0)
}
