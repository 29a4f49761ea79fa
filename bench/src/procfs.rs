//! Host-side resource readings: resident memory from `/proc` and process
//! CPU time from the POSIX CPU-time clock.
//!
//! Every `/proc` reader returns `None` when the file or field is missing
//! (non-Linux hosts, restricted containers) instead of failing the run;
//! the caller decides whether a missing reading is an error.

use std::time::Duration;

/// Extracts `"<field>:   <n> kB"` from `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

fn status_kb(field: &str) -> Option<u64> {
    parse_status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, field)
}

/// Peak resident set size of this process so far (`VmHWM`), in kB.
pub fn vm_hwm_kb() -> Option<u64> {
    status_kb("VmHWM")
}

/// Current resident set size of this process (`VmRSS`), in kB.
pub fn vm_rss_kb() -> Option<u64> {
    status_kb("VmRSS")
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User + system CPU time this process has consumed, all threads
/// included — also threads that have already exited, which is what the
/// sweep pool's scoped workers are by the time a pass is over.
///
/// Read from the CPU-time clock rather than `/proc/self/stat`: the latter
/// counts 10 ms ticks, so a sub-second pass would read the same value on
/// every run.
pub fn process_cpu_time() -> Option<Duration> {
    if !cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        return None;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this branch runs on), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\tf2bench\nVmPeak:\t  204800 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(40000));
    }

    #[test]
    fn absent_or_malformed_fields_are_none() {
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        assert_eq!(parse_status_kb("", "VmHWM"), None);
        assert_eq!(parse_status_kb("VmHWM:\tlots kB\n", "VmHWM"), None);
        assert_eq!(parse_status_kb("VmHWM\n", "VmHWM"), None);
        // A field that merely shares a prefix is not a match.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let Some(before) = process_cpu_time() else {
            return; // no CPU-time clock on this host
        };
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = process_cpu_time().expect("clock stays available");
        assert!(after > before);
    }
}
