//! The result a run prints: human-readable lines naming every metric with
//! its unit, then one JSON object as the last line of standard output.

use crate::context::StealLog;
use crate::stats::{self, Completion};
use crate::verify::Tally;

/// Named metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, String, f64)>);

impl Metrics {
    /// Adds a metric; names must be unique.
    pub fn push(&mut self, name: &str, unit: &str, value: f64) {
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.into(), unit.into(), value));
    }

    /// The unit of metric `name`, if reported.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|m| m.1.as_str())
    }

    /// Metric names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }
}

/// What one measured phase produced.
pub struct Phase {
    /// Every operation's finish time and latency.
    pub completions: Vec<Completion>,
    /// Verdicts of those operations.
    pub tally: Tally,
    /// Wall seconds of the phase.
    pub seconds: f64,
    /// Host steal over the phase.
    pub steal: StealLog,
}

impl Phase {
    /// Rate and latency over the chunks of `chunk_len` completions that
    /// saw the least host steal.
    pub fn summary(&self, chunk_len: usize) -> stats::Summary {
        stats::summarise(&self.completions, chunk_len, &|a, b| self.steal.share(a, b))
    }
}

/// The end-to-end metrics of a measured phase (all but `peak_rss_mb`,
/// which is read when the run ends), with context lines on how they were
/// summarised.
pub fn end_to_end(setup_s: f64, phase: &Phase, chunk_len: usize, ctx: &mut Vec<String>) -> Metrics {
    let s = phase.summary(chunk_len);
    let pct = |v: Option<f64>| v.map_or("unknown".to_string(), |v| format!("{:.1}%", 100.0 * v));
    ctx.push(format!(
        "measured: {} operations in {:.3} s, {} chunks of {chunk_len} consecutive completions; \
         host steal {} overall; {} chunks with steal <= {} kept, {} operations",
        phase.completions.len(),
        phase.seconds,
        s.chunks,
        pct(phase.steal.overall()),
        s.kept,
        pct(s.noise_cut),
        s.samples
    ));
    ctx.push(format!(
        "latency_p90_ms: {} samples beyond p90 (supported: {})",
        stats::beyond(s.samples, 90.0),
        stats::supported(s.samples, 90.0)
    ));
    let mut m = Metrics::default();
    m.push("setup_s", "s", setup_s);
    m.push("ops_per_s", "1/s", s.ops_per_s);
    m.push("latency_p50_ms", "ms", s.p50_ms);
    m.push("latency_p90_ms", "ms", s.p90_ms);
    m.push(
        "verified_ratio",
        "ratio",
        phase.tally.verified as f64 / phase.tally.attempted.max(1) as f64,
    );
    m
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    // `{:?}` prints the shortest string that round-trips, always with a
    // decimal point or exponent.
    format!("{v:?}")
}

/// Prints every metric by name and unit, then the final JSON line.
pub fn print(tally: &Tally, metrics: &Metrics) {
    for (name, unit, value) in &metrics.0 {
        println!("# metric {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed(),
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_refused() {
        let mut m = Metrics::default();
        m.push("a", "ms", 1.0);
        m.push("a", "ms", 2.0);
    }
}
