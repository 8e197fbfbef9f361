//! Run context: host facts the numbers depend on, the host's steal time
//! during a measured phase, and the process's peak resident set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Parses a sysfs cache size such as `2048K` or `300M` into bytes.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Size in bytes of CPU 0's unified or data cache at `level`, from sysfs.
pub fn cache_bytes(level: u32) -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    for entry in dir.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let lvl = read("level").and_then(|l| l.trim().parse::<u32>().ok());
        let ty = read("type").unwrap_or_default();
        if lvl == Some(level) && ty.trim() != "Instruction" {
            return read("size").and_then(|s| parse_size(&s));
        }
    }
    None
}

/// Peak resident set size (`VmHWM`) of this process, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
}

/// Cumulative (steal, total) ticks of all CPUs from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Host steal ticks sampled over a measured phase: (seconds from the
/// phase start, cumulative steal, cumulative total).
#[derive(Debug, Default)]
pub struct StealLog(Vec<(f64, u64, u64)>);

/// How often the steal sampler reads `/proc/stat`.
const STEAL_PERIOD: Duration = Duration::from_millis(50);

impl StealLog {
    /// Runs `f` while a sampler thread logs the host's steal ticks, from
    /// `start` until `f` returns.
    pub fn record<T>(start: Instant, f: impl FnOnce() -> T) -> (T, StealLog) {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut log = Vec::new();
                loop {
                    // Relaxed: a stop request that publishes no other data.
                    let last = stop.load(Ordering::Relaxed);
                    if let Some((steal, total)) = cpu_ticks() {
                        log.push((start.elapsed().as_secs_f64(), steal, total));
                    }
                    if last {
                        return StealLog(log);
                    }
                    std::thread::sleep(STEAL_PERIOD);
                }
            });
            let out = f();
            stop.store(true, Ordering::Relaxed);
            (out, sampler.join().expect("steal sampler"))
        })
    }

    /// Share of CPU time the host stole between `from_s` and `to_s`
    /// (seconds from the phase start), from the samples bracketing the
    /// interval (the first or last sample where none lies beyond it);
    /// `None` with no ticks between them.
    pub fn share(&self, from_s: f64, to_s: f64) -> Option<f64> {
        let a = self
            .0
            .iter()
            .rev()
            .find(|s| s.0 <= from_s)
            .or(self.0.first())?;
        let b = self.0.iter().find(|s| s.0 >= to_s).or(self.0.last())?;
        let total = b.2.checked_sub(a.2).filter(|&t| t > 0)?;
        Some(b.1.saturating_sub(a.1) as f64 / total as f64)
    }

    /// Share stolen over the whole log.
    pub fn overall(&self) -> Option<f64> {
        let (first, last) = (self.0.first()?, self.0.last()?);
        self.share(first.0, last.0)
    }
}

/// The host-context lines every run prints.
pub fn host_lines() -> Vec<String> {
    let fmt = |b: Option<u64>| b.map_or("unknown".to_string(), |b| format!("{b} B"));
    vec![
        format!("nproc: {}", nproc()),
        format!("L2 cache (cpu0, sysfs): {}", fmt(cache_bytes(2))),
        format!("L3 cache (cpu0, sysfs): {}", fmt(cache_bytes(3))),
    ]
}

/// Says where a computed working set sits against the last-level cache.
pub fn working_set_line(label: &str, bytes: u64) -> String {
    let mib = bytes as f64 / (1u64 << 20) as f64;
    let verdict = match cache_bytes(3) {
        Some(l3) if bytes <= l3 => format!(
            "fits in the {:.0} MiB L3: sweeps are served from cache, so no DRAM-bandwidth claim is made",
            l3 as f64 / (1u64 << 20) as f64
        ),
        Some(l3) => format!("exceeds the {:.0} MiB L3", l3 as f64 / (1u64 << 20) as f64),
        None => "L3 size unknown".to_string(),
    };
    format!("{label}: computed working set {bytes} B ({mib:.1} MiB), {verdict}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_uses_the_bracketing_samples() {
        let log = StealLog(vec![(0.0, 10, 1000), (1.0, 20, 1200), (2.0, 80, 1400)]);
        assert_eq!(log.share(0.0, 1.0), Some(0.05));
        assert_eq!(log.share(0.5, 1.5), Some(70.0 / 400.0));
        assert_eq!(log.share(1.0, 2.5), Some(0.3), "clamped to the last sample");
        assert_eq!(log.share(2.0, 2.5), None, "no ticks in between");
        assert_eq!(log.overall(), Some(70.0 / 400.0));
        assert_eq!(StealLog::default().share(0.0, 1.0), None);
        let ((), live) = StealLog::record(Instant::now(), || {
            std::thread::sleep(Duration::from_millis(120))
        });
        assert!(live.0.len() >= 2, "samples at start and end");
    }

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
    }
}
