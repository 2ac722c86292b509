//! CPU placement.  On a small VM the scheduler places threads
//! differently from run to run, and each placement gives its own latency
//! level (2–3× for one-shot reads over the wire).  The benchmark
//! therefore fixes placement: embedded workloads run on one CPU; `curate`
//! runs the server's threads on one CPU and its clients on another.
//! Threads inherit the mask of the thread that spawns them.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const WORDS: usize = 16;

/// CPUs the calling thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restrict the calling thread (and threads it spawns later) to `cpu`.
pub fn pin(cpu: usize) -> bool {
    if cpu >= WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed, and pid
    // 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
