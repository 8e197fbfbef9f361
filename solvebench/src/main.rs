//! `solvebench`: the end-to-end and per-layer benchmark of the solve
//! fleet (daemon + clients) and the million-row library solve.
//!
//! ```text
//! cargo run --release --offline --manifest-path solvebench/Cargo.toml -- \
//!     --workload fleet_csr --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Prints the run context and every metric by name and unit, then one
//! JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. See README.md
//! for the workloads, the metrics and which layer each should move.

mod context;
mod fleet;
mod layers;
mod library;
mod report;
mod rng;
mod spans;
mod stats;
mod verify;

use report::Metrics;
use std::io::{self, BufWriter};
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("verified_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 31] = [
    ("sparse.plan_compile_ms", "ms"),
    ("sparse.block_update_ns", "ns"),
    ("sparse.bytes_per_update", "bytes"),
    ("sparse.from_raw_ms", "ms"),
    ("sparse.gen_ms", "ms"),
    ("core.iterations", "count"),
    ("core.overshoot_decades", "decades"),
    ("core.fingerprint_ms", "ms"),
    ("core.exact_check_ms", "ms"),
    ("gpu.run_ms", "ms"),
    ("gpu.block_updates", "count"),
    ("gpu.useful_update_ratio", "ratio"),
    ("gpu.polls", "count"),
    ("gpu.exact_check_share", "ratio"),
    ("gpu.steal_share", "ratio"),
    ("gpu.max_skew", "rounds"),
    ("gpu.speedup_2w", "x"),
    ("gpu.lease_wait_ms", "ms"),
    ("service.request_bytes", "bytes"),
    ("service.response_bytes", "bytes"),
    ("service.request_render_ms", "ms"),
    ("service.request_parse_ms", "ms"),
    ("service.response_render_ms", "ms"),
    ("service.response_parse_ms", "ms"),
    ("service.cache_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.shed", "count"),
    ("service.failed", "count"),
    ("service.unaccounted_ms", "ms"),
    ("trace.client_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Requests per second the fleet streams are sized for, several times the
/// observed rates, so a faster program does not run out of requests.
const FLEET_GEN_MAX_RATE: f64 = 400.0;
const FLEET_CSR_MAX_RATE: f64 = 200.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks that a run reported exactly the metrics (and units) its mode
/// promises.
fn check_names(m: &Metrics, expected: &[(&str, &str)]) -> Result<(), String> {
    let mut got: Vec<&str> = m.names().collect();
    let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "metric set mismatch: got {got:?}, expected {want:?}"
        ));
    }
    for (name, unit) in expected {
        if m.unit(name) != Some(*unit) {
            return Err(format!(
                "metric {name} reported in {:?}, expected {unit}",
                m.unit(name)
            ));
        }
    }
    Ok(())
}

fn write_spans(workload: &str, seed: u64, spans: &[spans::Span]) -> io::Result<String> {
    // Next to the benchmark binary, i.e. inside the build directory.
    let path = std::env::current_exe()?.with_file_name(format!("spans-{workload}-{seed}.jsonl"));
    let mut w = BufWriter::new(std::fs::File::create(&path)?);
    spans::write_jsonl(&mut w, spans)?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Result<(verify::Tally, Metrics), String> {
    let mut ctx = context::host_lines();
    ctx.push(format!(
        "run: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    let err = |e: io::Error| e.to_string();
    let (tally, mut m, spans) = match args.workload.as_str() {
        "fleet_gen" | "fleet_csr" => {
            let fleet = if args.workload == "fleet_gen" {
                fleet::fleet_gen(
                    args.seed,
                    (args.seconds * FLEET_GEN_MAX_RATE).ceil() as usize,
                )
            } else {
                fleet::fleet_csr(
                    args.seed,
                    (args.seconds * FLEET_CSR_MAX_RATE).ceil() as usize,
                )
            };
            ctx.extend(fleet.context_lines());
            if args.trace {
                let (t, m, s) =
                    fleet::run_traced(&fleet, args.seed, args.seconds, &mut ctx).map_err(err)?;
                (t, m, Some(s))
            } else {
                let (t, m) = fleet::run(&fleet, args.seed, args.seconds, &mut ctx).map_err(err)?;
                (t, m, None)
            }
        }
        "lib_fv1m" => {
            let (inputs, setup_s) = library::setup(args.seed);
            ctx.extend(library::context_lines(&inputs));
            if args.trace {
                let (t, m, s) =
                    library::run_traced(&inputs, args.seed, args.seconds, &mut ctx).map_err(err)?;
                (t, m, Some(s))
            } else {
                let (t, m) = library::run(&inputs, setup_s, args.seed, args.seconds, &mut ctx)
                    .map_err(err)?;
                (t, m, None)
            }
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (fleet_gen, fleet_csr, lib_fv1m)"
            ))
        }
    };
    if let Some(spans) = spans {
        let path = write_spans(&args.workload, args.seed, &spans).map_err(err)?;
        ctx.push(format!("{} spans written to {path}", spans.len()));
    } else {
        let rss = context::peak_rss_bytes().ok_or("VmHWM unavailable in /proc/self/status")?;
        m.push("peak_rss_mb", "MB", rss as f64 / 1e6);
    }
    ctx.push(format!(
        "operations: {} attempted, {} failed (fail_ratio {}), failures by kind: {}",
        tally.attempted,
        tally.failed(),
        tally.fail_ratio(),
        tally.describe()
    ));
    for line in ctx {
        println!("# {line}");
    }
    check_names(&m, if args.trace { &PER_LAYER } else { &END_TO_END })?;
    Ok((tally, m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("solvebench: {e}");
            eprintln!("usage: solvebench --workload <fleet_gen|fleet_csr|lib_fv1m> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, m)) if tally.attempted > 0 => {
            report::print(&tally, &m);
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("solvebench: no operation completed in the measured phase");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("solvebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared: Vec<(&str, &str)> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|piece| {
                let name = &piece[..piece.find('"')?];
                let unit = piece.split("\"unit\": \"").nth(1)?;
                Some((name, &unit[..unit.find('"')?]))
            })
            .collect();
        let ours: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn name_check_rejects_missing_and_mislabelled_metrics() {
        let mut m = Metrics::default();
        for (n, u) in END_TO_END {
            m.push(n, u, 1.0);
        }
        assert!(check_names(&m, &END_TO_END).is_ok());
        assert!(check_names(&m, &PER_LAYER).is_err());
        let mut wrong = Metrics::default();
        for (n, _) in END_TO_END {
            wrong.push(n, "s", 1.0);
        }
        assert!(check_names(&wrong, &END_TO_END).is_err());
    }
}
