//! Order statistics with the sample-count rule the benchmark reports by.
//!
//! A percentile is reported as *supported* only when at least
//! [`MIN_BEYOND`] samples lie beyond it; with fewer, its value rests on a
//! handful of tail samples and moves from run to run for no reason the
//! program controls.

/// Samples that must lie strictly beyond a percentile for it to count
/// as supported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// Samples beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support the `p`-th percentile.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The `p`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The median of an unsorted slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A latency percentile over an ascending slice in which failed
/// operations sit last as `+∞`; a percentile that lands on a failure
/// reads `f64::MAX`, the largest finite value JSON can carry.
pub fn latency(sorted: &[f64], p: f64) -> f64 {
    let v = percentile(sorted, p);
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

/// One finished operation: when it finished (seconds from the start of
/// the measured phase) and how long it took (ms, `+∞` if it failed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Finish time, seconds from the phase start.
    pub at_s: f64,
    /// Latency in ms; `+∞` for a failed operation.
    pub ms: f64,
}

/// Throughput and latency over the part of a measured phase that ran
/// under the least interference from outside the process.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Verified completions per second of the kept time.
    pub ops_per_s: f64,
    /// Median latency of the kept completions, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency of the kept completions, ms.
    pub p90_ms: f64,
    /// Completions kept.
    pub samples: usize,
    /// Chunks formed.
    pub chunks: usize,
    /// Chunks kept.
    pub kept: usize,
    /// The largest interference share among the kept chunks, if known.
    pub noise_cut: Option<f64>,
}

/// Summarises completions (in any order). They are cut into chunks of
/// `chunk_len` consecutive finishes, each covering the time since the
/// previous chunk ended. `noise(from_s, to_s)` is the share of that time
/// the host took away from this process (hypervisor steal). When it is
/// known for every chunk, only the chunks at or below its median are
/// kept. The choice depends on the host, never on the measured
/// latencies, so a slowdown the program causes stays visible. Rate and
/// percentiles are then taken over the kept chunks' completions pooled.
pub fn summarise(
    completions: &[Completion],
    chunk_len: usize,
    noise: &dyn Fn(f64, f64) -> Option<f64>,
) -> Summary {
    assert!(
        !completions.is_empty() && chunk_len > 0,
        "nothing to summarise"
    );
    let mut c = completions.to_vec();
    c.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    // Per chunk: (noise share, start, end, completions).
    let mut chunks = Vec::new();
    let mut begin_s = 0.0;
    for chunk in c.chunks(chunk_len) {
        let end_s = chunk[chunk.len() - 1].at_s;
        chunks.push((noise(begin_s, end_s), begin_s, end_s, chunk));
        begin_s = end_s;
    }
    let formed = chunks.len();
    let shares: Option<Vec<f64>> = chunks.iter().map(|k| k.0).collect();
    if let Some(cut) = shares.map(|s| median(&s)) {
        chunks.retain(|k| k.0.is_some_and(|share| share <= cut));
    }
    let seconds: f64 = chunks.iter().map(|k| k.2 - k.1).sum();
    let mut ms: Vec<f64> = chunks
        .iter()
        .flat_map(|k| k.3.iter().map(|x| x.ms))
        .collect();
    ms.sort_by(f64::total_cmp);
    let ok = ms.iter().filter(|v| v.is_finite()).count();
    Summary {
        ops_per_s: ok as f64 / seconds.max(1e-9),
        p50_ms: latency(&ms, 50.0),
        p90_ms: latency(&ms, 90.0),
        samples: ms.len(),
        chunks: formed,
        kept: chunks.len(),
        noise_cut: chunks.iter().filter_map(|k| k.0).reduce(f64::max),
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!supported(99, 90.0), "99 samples leave 9 beyond p90");
        assert_eq!(beyond(99, 90.0), 9);
        assert!(supported(100, 90.0));
        assert_eq!(beyond(100, 90.0), 10);
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
    }

    #[test]
    fn median_is_supported_from_twenty_samples() {
        assert!(!supported(19, 50.0));
        assert!(supported(20, 50.0));
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let mut with_failures: Vec<f64> = (1..=95).map(f64::from).collect();
        with_failures.extend([f64::INFINITY; 5]);
        assert_eq!(latency(&with_failures, 90.0), 90.0);
        assert_eq!(
            latency(&with_failures, 99.0),
            f64::MAX,
            "a failure misses any limit"
        );
    }

    #[test]
    fn without_noise_data_every_completion_counts() {
        // 100 ops at 10 ms each, ten of them slowed to 50 ms.
        let mut c = Vec::new();
        let mut t = 0.0;
        for i in 0..100 {
            let ms = if (30..40).contains(&i) { 50.0 } else { 10.0 };
            t += ms / 1e3;
            c.push(Completion { at_s: t, ms });
        }
        let s = summarise(&c, 10, &|_, _| None);
        assert_eq!((s.chunks, s.kept, s.samples), (10, 10, 100));
        assert_eq!((s.p50_ms, s.p90_ms), (10.0, 10.0));
        assert_eq!(latency(&[10.0; 5], 90.0), 10.0);
        assert!((s.ops_per_s - 100.0 / 1.4).abs() < 1e-9, "{}", s.ops_per_s);
    }

    #[test]
    fn failures_lower_the_rate_and_fill_the_tail() {
        let c: Vec<Completion> = (0..20)
            .map(|i| Completion {
                at_s: (i + 1) as f64 * 0.1,
                ms: if i % 10 == 9 { f64::INFINITY } else { 100.0 },
            })
            .collect();
        let s = summarise(&c, 10, &|_, _| None);
        assert!(
            (s.ops_per_s - 9.0).abs() < 1e-9,
            "9 verified per second, got {}",
            s.ops_per_s
        );
        assert_eq!(s.p90_ms, 100.0);
        assert_eq!(summarise(&c, 10, &|_, _| None).p50_ms, 100.0);
        let shuffled: Vec<Completion> = c.iter().rev().copied().collect();
        assert_eq!(
            summarise(&shuffled, 10, &|_, _| None),
            s,
            "input order does not matter"
        );
        assert_eq!(summarise(&c[..5], 10, &|_, _| None).chunks, 1);
    }

    #[test]
    fn chunks_are_kept_by_host_interference_not_by_speed() {
        // 4 chunks of 10 ops: chunks 0 and 1 are slow (50 ms) and ran on a
        // quiet host; chunks 2 and 3 are fast (10 ms) but were stolen from.
        let mut c = Vec::new();
        let mut t = 0.0;
        for i in 0..40 {
            let ms = if i < 20 { 50.0 } else { 10.0 };
            t += ms / 1e3;
            c.push(Completion { at_s: t, ms });
        }
        let noise = |from: f64, _to: f64| Some(if from < 0.99 { 0.01 } else { 0.3 });
        let s = summarise(&c, 10, &noise);
        assert_eq!((s.chunks, s.kept, s.samples), (4, 2, 20));
        assert_eq!(
            s.p50_ms, 50.0,
            "the quiet chunks are kept even though they are slower"
        );
        assert!((s.ops_per_s - 20.0).abs() < 1e-9, "{}", s.ops_per_s);
        assert_eq!(s.noise_cut, Some(0.01));
        let unknown = |from: f64, _to: f64| if from < 0.5 { None } else { Some(0.1) };
        assert_eq!(
            summarise(&c, 10, &unknown).kept,
            4,
            "partial noise data: keep every chunk"
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }
}
