//! Process CPU time and peak memory from `/proc/self`. Each reader
//! returns `None` when `/proc` is unavailable, so a caller reports the
//! metric as missing rather than as zero.

/// CPU seconds (user + system, all threads) this process has used so
/// far: fields 14 and 15 of `/proc/self/stat`, in clock ticks.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // the numeric fields start after its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k is at index k - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every mainstream Linux architecture,
/// and the standard library has no call to ask.
const CLK_TCK: f64 = 100.0;

/// Peak resident set size (`VmHWM` of `/proc/self/status`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Lowers the peak resident set size to the current one (`5` written to
/// `/proc/self/clear_refs`), so that the next [`peak_rss_mib`] gives the
/// peak since this call. Returns whether the kernel took the reset; if it
/// did not, the peak stays the process's own.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_report_plausible_values_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let before = cpu_seconds().expect("stat parses");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().expect("stat parses") >= before);
        let rss = peak_rss_mib().expect("status parses");
        assert!(rss > 0.5 && rss < 1e6, "{rss}");
    }

    #[test]
    fn a_reset_lowers_the_peak_to_the_current_size() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let with_big = peak_rss_mib().expect("status parses");
        drop(big);
        if reset_peak_rss() {
            let after = peak_rss_mib().expect("status parses");
            assert!(
                after < with_big - 32.0,
                "{after} MiB after a reset, {with_big} before"
            );
        }
    }
}
