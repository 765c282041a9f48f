//! Host facts the benchmark reads directly: CPU clocks, peak memory, core
//! count, the commit under test, and a fixed host-speed reference kernel.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux clock ids (`<time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` with the C layout
    // (two 64-bit fields on the 64-bit Linux targets this runs on), and
    // `clock` is one of the two CPU-time clock ids Linux always provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time consumed by every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured, when the working directory is a git
/// checkout; `unknown` otherwise.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|h| h.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None => head,
    }
}

/// A fixed pointer-chase kernel, timed between measurement windows so host
/// drift shows beside the numbers. Information only: no metric is ever
/// rescaled by it.
pub struct HostRef {
    next: Vec<u32>,
    at: u32,
    samples_ns: Vec<f64>,
}

/// 4 MiB of links: larger than L2, so the chase measures the memory path.
const HOSTREF_LINKS: usize = 1 << 20;
const HOSTREF_STEPS: usize = 200_000;

impl HostRef {
    /// Builds one random cycle through every slot (Sattolo's shuffle with a
    /// fixed seed, so the kernel is identical on every run).
    pub fn new() -> HostRef {
        let mut next: Vec<u32> = (0..HOSTREF_LINKS as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..HOSTREF_LINKS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % i as u64) as usize;
            next.swap(i, j);
        }
        HostRef {
            next,
            at: 0,
            samples_ns: Vec::new(),
        }
    }

    /// Times one fixed chase and records its ns per step.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut at = self.at;
        for _ in 0..HOSTREF_STEPS {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
        self.samples_ns
            .push(t0.elapsed().as_nanos() as f64 / HOSTREF_STEPS as f64);
    }

    /// `(min, median, max)` ns per step over every sample taken.
    pub fn summary(&self) -> (f64, f64, f64) {
        let mut s = self.samples_ns.clone();
        s.sort_by(f64::total_cmp);
        match (s.first(), s.last()) {
            (Some(&lo), Some(&hi)) => (lo, crate::stats::median(&s), hi),
            _ => (0.0, 0.0, 0.0),
        }
    }
}
