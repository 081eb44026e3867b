//! Per-phase peak resident set size on Linux.
//!
//! The kernel's `VmHWM` only ever rises within a process, so a reading
//! taken after several phases would charge every phase with the largest
//! one. Writing `5` to `/proc/self/clear_refs` resets the high-water
//! mark to the current RSS; [`reset_peak`] does that before a phase and
//! [`peak_mb`] reads the phase's own peak after it.

/// Resets this process's RSS high-water mark. Returns false where the
/// kernel does not allow it; [`peak_mb`] then reads the process-wide
/// peak, which is still this run's alone because every benchmark run
/// is a fresh process.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The RSS high-water mark since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
