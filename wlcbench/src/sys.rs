//! The two Linux calls the standard library does not wrap: the peak
//! resident set of finished children, and CPU affinity.

use std::mem::size_of_val;
use std::os::unix::process::CommandExt;
use std::process::Command;

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Peak resident set of the largest child process waited for so far, MiB.
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a writable `struct rusage` in the 64-bit Linux
    // layout (two `timeval`s of two 64-bit fields, then fourteen `long`s),
    // which is exactly what `getrusage` fills in.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// The set of CPUs a process may run on, as a 1024-bit `cpu_set_t`.
type CpuSet = [u64; 16];

fn allowed_cpus() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` and its exact size is
    // passed, so the kernel writes only inside it.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// The CPU the benchmark pins work to: the highest-numbered one this thread
/// may use, as a one-CPU set. Device interrupts go to the lowest-numbered
/// CPU on the VMs this runs on.
fn pinned_cpu() -> Option<CpuSet> {
    last_of(&allowed_cpus()?)
}

fn last_of(allowed: &CpuSet) -> Option<CpuSet> {
    let cpu = (0..1024).rev().find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    Some(one)
}

fn set_affinity(mask: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `mask` is a readable `cpu_set_t` of the size passed.
    match unsafe { sched_setaffinity(0, size_of_val(mask), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// The calling thread pinned to one CPU; dropping it gives the thread back
/// the CPUs it had. Threads spawned while pinned keep the one CPU.
pub struct Pinned {
    previous: CpuSet,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = set_affinity(&self.previous);
    }
}

/// Pins the calling thread, and the threads it spawns afterwards, to one
/// CPU.
pub fn pin_this_thread() -> Result<Pinned, String> {
    let previous = allowed_cpus().ok_or("cannot read this thread's CPU affinity")?;
    let one = last_of(&previous).ok_or("no CPU in this thread's affinity mask")?;
    set_affinity(&one).map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    Ok(Pinned { previous })
}

/// Makes `command`'s process run on one CPU: the one [`pin_this_thread`]
/// would pick.
pub fn pin_command(command: &mut Command) -> Result<(), String> {
    let one = pinned_cpu().ok_or("no CPU in this thread's affinity mask")?;
    // SAFETY: the hook runs in the forked child before `exec`; it makes one
    // system call on a mask it owns and allocates nothing, which is what a
    // `pre_exec` hook may do.
    unsafe { command.pre_exec(move || set_affinity(&one)) };
    Ok(())
}
