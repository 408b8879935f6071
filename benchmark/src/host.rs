//! What the benchmark reads from the machine: process CPU time and peak
//! memory from `/proc/self`, and the metadata that makes two result files
//! from different hosts recognisable as such.

use std::process::Command;

use crate::json::Json;

/// Linux reports `utime`/`stime` in clock ticks; `USER_HZ` is 100 on every
/// architecture the kernel supports, and std has no `sysconf` to ask.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SEC
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    // From the C library std already links; std has no affinity call.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs a mask can name: the kernel's `CPU_SETSIZE`.
const MASK_BITS: usize = 1024;

/// The highest CPU in a `Cpus_allowed_list` such as `0-1` or `0,2-5`.
fn highest_cpu(list: &str) -> Option<usize> {
    list.trim()
        .split(',')
        .filter_map(|range| range.rsplit('-').next()?.trim().parse::<usize>().ok())
        .max()
}

/// The CPU measuring processes pin themselves to: the highest one this
/// process may use. `None` where the allowed list cannot be read.
pub fn pin_target() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    highest_cpu(list).filter(|&c| c < MASK_BITS)
}

/// Pins this thread, and so every thread it later spawns, to
/// [`pin_target`], or says why it cannot: a measuring process that is not
/// pinned must not measure, because its numbers belong to another regime
/// and would sit in the same schema.
///
/// Why: on the 2-vCPU sandbox a wake-up that crosses CPUs costs a
/// hypervisor IPI of ~25 µs, a null call makes four, and where the
/// scheduler places the threads differs from process to process — a null
/// call reads 14 µs when they share a CPU and 100 µs when they do not,
/// and identical runs flip between the two. On one CPU the numbers are the
/// program's own path and repeat within a few percent.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = pin_target().ok_or("cannot read Cpus_allowed_list; refusing to measure unpinned")?;
    let mut mask = [0u64; MASK_BITS / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        let why = std::io::Error::last_os_error();
        return Err(format!(
            "sched_setaffinity to CPU {cpu}: {why}; refusing to measure unpinned"
        ));
    }
    Ok(cpu)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host, toolchain and commit, for the head of a result file.
pub fn metadata() -> Vec<(String, Json)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "pinned_cpu".into(),
            pin_target().map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("kernel".into(), Json::Str(kernel)),
        ("cpu_model".into(), Json::Str(cpu_model)),
        (
            "commit".into(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_list_forms() {
        assert_eq!(highest_cpu("0-1\n"), Some(1));
        assert_eq!(highest_cpu("0"), Some(0));
        assert_eq!(highest_cpu("0,2-5,9"), Some(9));
        assert_eq!(highest_cpu("0-3,8-11"), Some(11));
        assert_eq!(highest_cpu(""), None);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_seconds();
        let mut x = 0u64;
        while process_cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(process_cpu_seconds() > before);
    }
}
