//! End-to-end and per-layer benchmark of the ALP workspace.
//!
//! ```text
//! alp-perfbench --workload <roundtrip|scan|serve|recover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the library only ever sees the
//! generated values and the bytes it wrote itself. A run sets up its inputs
//! several times (reporting the median set-up time), then repeats
//! whole passes over a fixed operation list until `--seconds` have elapsed.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced passes with traced passes that re-compose each
//! operation from the layers' public functions, wrapping every call in a
//! span, and reports the per-layer metrics. Clean-path outputs are checked
//! on every pass; any mismatch aborts the run with `"correct": false`.
//!
//! Stdout carries one `{"detail": ...}` line (medians with quartiles, the
//! base of every ratio, the tail percentile and its sample count) and then,
//! last, the result line. See `NOTES.md` for the metric
//! definitions and which layer metric should move which end-to-end metric.

mod query;
mod recover;
mod roundtrip;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up runs per benchmark run, at least: `setup_s` is their median.
const SETUP_MIN_REPEATS: usize = 3;

/// Short set-ups repeat until this much set-up time has accumulated (at most
/// [`SETUP_MAX_REPEATS`] times), so that their median is as steady as a
/// long one's.
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPEATS: usize = 10;

/// Fewest measured passes per run, however long a pass takes.
pub const MIN_PASSES: usize = 3;

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_mbps", "MB/s"),
    ("bits_per_value", "bits/value"),
    ("recovered_fraction", "ratio"),
];

/// Per-layer metrics of the traced run; a layer a workload leaves idle
/// reports 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("sampler.first_level_ns_per_value", "ns/value"),
    ("sampler.second_level_ns_per_value", "ns/value"),
    ("sampler.combinations_tried_mean", "count"),
    ("encode.vector_ns_per_value", "ns/value"),
    ("encode.exception_rate", "ratio"),
    ("rd.choose_cut_ns_per_value", "ns/value"),
    ("rd.encode_ns_per_value", "ns/value"),
    ("rowgroup.rd_share", "ratio"),
    ("format.write_ns_per_value", "ns/value"),
    ("hash.xxh64_ns_per_byte", "ns/byte"),
    ("format.read_ns_per_value", "ns/value"),
    ("decode.alp_ns_per_value", "ns/value"),
    ("decode.rd_ns_per_value", "ns/value"),
    ("pipeline.push_ns_per_value", "ns/value"),
    ("pipeline.finish_ms", "ms"),
    ("decode.scan_fused_ns_per_value", "ns/value"),
    ("service.pages_fused_share", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions_per_query", "count"),
    ("cache.bytes_peak_mb", "MB"),
    ("decode.materialize_ns_per_value", "ns/value"),
    ("zonemap.vectors_pruned_share", "ratio"),
    ("format.salvage_ns_per_byte", "ns/byte"),
    ("stream.salvage_ns_per_byte", "ns/byte"),
    ("salvage.repaired_rowgroups", "count"),
    ("salvage.lost_rowgroups", "count"),
    ("salvage.unaccounted_rowgroups", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.unaccounted_share", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// Where a traced run writes its spans, relative to the working directory.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("spans-{}.tsv", self.workload))
    }

    /// When the measured passes may stop (after at least [`MIN_PASSES`]).
    pub fn deadline(&self) -> Instant {
        Instant::now() + std::time::Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first clean-path check that failed; the run stopped there.
    pub error: Option<String>,
    pub setup_s: Vec<f64>,
    /// Latency of every measured operation, pooled over passes.
    pub op_ms: Vec<f64>,
    /// How many of the first `op_ms` samples the tail is read from, so that
    /// every run reads it at the same percentile whatever its pass count.
    pub tail_window: usize,
    /// Workload throughput of each measured pass.
    pub pass_mbps: Vec<f64>,
    pub bits_per_value: f64,
    pub recovered_fraction: f64,
    /// Per-layer values the workload measured (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra `"name": json` members of the detail line.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a per-pass series to the detail line as median and quartiles.
    pub fn series(&mut self, name: &str, unit: &str, values: &[f64]) {
        self.detail.push((name.to_string(), series_json(unit, values)));
    }

    /// Records a per-layer ratio, with its part and base in the detail line.
    pub fn layer_ratio(&mut self, name: &'static str, part: f64, base: f64, base_name: &str) {
        self.layers.insert(name, if base > 0.0 { part / base } else { 0.0 });
        self.ratio(name, part, base, base_name);
    }

    /// Adds a ratio to the detail line together with its base.
    pub fn ratio(&mut self, name: &str, part: f64, base: f64, base_name: &str) {
        let value = if base > 0.0 { part / base } else { 0.0 };
        self.detail.push((
            name.to_string(),
            format!(
                "{{\"value\": {}, \"part\": {}, \"base\": {}, \"base_is\": \"{base_name}\"}}",
                num(value),
                num(part),
                num(base)
            ),
        ));
    }
}

/// Runs `build` at least [`SETUP_MIN_REPEATS`] times and until
/// [`SETUP_MIN_SECONDS`] have accumulated, dropping each result before the
/// next build, and returns the last result with every set-up time. The
/// peak-RSS mark is reset before each build, so `peak_rss_mb` covers one
/// set-up and the measured passes, as a user running the workload once
/// would see it.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        drop(last.take());
        // "5" resets VmHWM to the current RSS (proc(5), clear_refs); where
        // that is refused, the peak also covers the earlier set-ups.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Records the two tracing figures every workload reports: the overhead,
/// `(traced − untraced) / untraced` of the median pass times, and the share
/// of the `root` operation spans' time that no layer span covers.
pub fn record_trace_shares(
    out: &mut Outcome,
    summary: &BTreeMap<&'static str, trace::Agg>,
    root: &str,
    untraced_pass_s: &[f64],
    traced_pass_s: &[f64],
) {
    let base = stats::median(untraced_pass_s);
    let overhead = (stats::median(traced_pass_s) - base) / base;
    let op = summary.get(root).copied().unwrap_or_default();
    out.layers.insert("trace.overhead_share", overhead);
    let (unaccounted, total) = (op.self_ns as f64, op.total_ns as f64);
    out.layer_ratio("trace.unaccounted_share", unaccounted, total, "traced operation ns");
    out.series("traced_pass_s", "s", traced_pass_s);
    out.series("untraced_pass_s", "s", untraced_pass_s);
}

/// JSON number text; non-finite values (no samples) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn series_json(unit: &str, values: &[f64]) -> String {
    let (p25, p75) = stats::quartiles(values);
    format!(
        "{{\"median\": {}, \"p25\": {}, \"p75\": {}, \"n\": {}, \"unit\": \"{unit}\"}}",
        num(stats::median(values)),
        num(p25),
        num(p75),
        values.len()
    )
}

/// Peak resident set size (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn metric_json(name: &str, value: f64, unit: &str) -> Result<String, String> {
    if !value.is_finite() {
        return Err(format!("metric {name} has no value"));
    }
    Ok(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(value)))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("alp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "roundtrip" => roundtrip::run(&args),
        "scan" => query::run(&args, query::Mode::Scan),
        "serve" => query::run(&args, query::Mode::Serve),
        "recover" => recover::run(&args),
        other => {
            eprintln!("alp-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let rss = peak_rss_mb();

    let mut metrics = Vec::new();
    let mut problems = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            metrics.push(metric_json(name, value, unit));
        }
        for name in out.layers.keys() {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                problems.push(format!("workload reported unlisted layer metric {name}"));
            }
        }
    } else {
        let window = &out.op_ms[..out.tail_window.min(out.op_ms.len())];
        let tail = stats::tail(window);
        let rss_mb = rss.clone().unwrap_or(f64::NAN);
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => stats::median(&out.setup_s),
                "peak_rss_mb" => rss_mb,
                "op_p50_ms" => stats::median(&out.op_ms),
                "op_tail_ms" => tail.map_or(f64::NAN, |(_, v)| v),
                "throughput_mbps" => stats::median(&out.pass_mbps),
                "bits_per_value" => out.bits_per_value,
                "recovered_fraction" => out.recovered_fraction,
                _ => unreachable!("END_TO_END lists {name}"),
            };
            metrics.push(metric_json(name, value, unit));
        }
        let tail_json = match tail {
            Some((p, v)) => format!(
                "{{\"percentile\": {}, \"value\": {}, \"samples\": {}, \"unit\": \"ms\"}}",
                num(p),
                num(v),
                window.len()
            ),
            None => "null".into(),
        };
        out.detail.push(("op_tail_ms".into(), tail_json));
    }
    if let Err(e) = &rss {
        problems.push(e.clone());
    }
    let mut lines = Vec::new();
    for m in metrics {
        match m {
            Ok(line) => lines.push(line),
            Err(e) => problems.push(e),
        }
    }
    if let Some(e) = &out.error {
        problems.insert(0, e.clone());
    }

    let mut detail = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"setup_s\": {}", series_json("s", &out.setup_s)),
        format!("\"op_ms\": {}", series_json("ms", &out.op_ms)),
        format!("\"throughput_mbps\": {}", series_json("MB/s", &out.pass_mbps)),
        format!(
            "\"throughput_mbps_per_pass\": [{}]",
            out.pass_mbps.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", ")
        ),
        format!(
            "\"error_rate\": {{\"value\": {}, \"failed\": {}, \"attempted\": {}}}",
            num(out.failed as f64 / out.attempted.max(1) as f64),
            out.failed,
            out.attempted
        ),
    ];
    detail.extend(out.detail.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    if !problems.is_empty() {
        let joined = problems.join("; ").replace('\\', "\\\\").replace('"', "'");
        detail.push(format!("\"problems\": \"{joined}\""));
    }
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));

    let correct = problems.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        lines.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
