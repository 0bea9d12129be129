//! End-to-end and per-layer benchmark of the cpsrisk public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <assess|solve|sweep|horizon> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` every iteration sets the workload up and runs its
//! operation with tracing off; the run reports the end-to-end metrics.
//! Operation times are reported relative to a fixed calibration kernel
//! timed next to each unit of the operation (see [`gauge`]), so that the
//! host's speed, which drifts on a shared machine, cancels out.
//! With `--trace 1` the run first measures untraced iterations for half
//! the time, then replays the operation through the same public calls
//! with a span around each, and reports the per-layer metrics. Every run
//! checks the outputs against references that do not share the code under
//! test. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; a readable summary goes
//! to standard error. See `perfbench/README.md` for the workloads and the
//! layer map.

mod assess;
mod gauge;
mod horizon;
mod solve;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gauge::Gauge;
use trace::Tracer;

/// The seed the committed catalog reports of the repository were generated
/// from; used when `--seed` is not given.
const DEFAULT_SEED: u64 = 0xC47A;

/// Untraced iterations: one warm-up plus at least this many measured.
const MIN_MEASURED: usize = 5;
/// Traced iterations, at least.
const MIN_TRACED: usize = 3;
/// Upper bound on iterations of either phase.
const MAX_ITERATIONS: usize = 10_000;

/// `(name, unit)` of the end-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_rel", "x"),
    ("cpu_rel", "x"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, reported with `--trace 1` on
/// every workload (0 where the workload bypasses the layer). A name ending
/// in `_ms` is the total of the spans called by its stem within one traced
/// iteration; `trace.*` are computed by the measurement loop; every other
/// name is a counter the workload records. Each is the median over the
/// traced iterations that recorded it.
const PER_LAYER: [(&str, &str); 43] = [
    ("model.lint_ms", "ms"),
    ("asp.lint_ms", "ms"),
    ("asp.parser_ms", "ms"),
    ("asp.ground_ms", "ms"),
    ("asp.ground_rules", "count"),
    ("asp.ground_atoms", "count"),
    ("asp.wfm_ms", "ms"),
    ("asp.wfm_decided_frac", "frac"),
    ("asp.simplify_rules_after", "count"),
    ("asp.solve_init_ms", "ms"),
    ("asp.solve_search_ms", "ms"),
    ("asp.solve_decisions", "count"),
    ("asp.solve_conflicts", "count"),
    ("asp.solve_propagations", "count"),
    ("asp.solve_restarts", "count"),
    ("asp.solve_learned", "count"),
    ("asp.solve_models", "count"),
    ("asp.solve_us_per_model", "us"),
    ("epa.encode_ms", "ms"),
    ("epa.exhaustive_ground_ms", "ms"),
    ("epa.exhaustive_enumerate_ms", "ms"),
    ("epa.topology_ms", "ms"),
    ("epa.sweep_ms", "ms"),
    ("epa.sweep_steals", "count"),
    ("epa.sweep_util_min", "frac"),
    ("epa.sweep_peak_in_flight", "count"),
    ("epa.query_outcome_p50_us", "us"),
    ("epa.query_outcome_p99_us", "us"),
    ("epa.query_margin_p50_us", "us"),
    ("epa.query_margin_p99_us", "us"),
    ("epa.query_static_frac", "frac"),
    ("epa.horizon_session_ms", "ms"),
    ("epa.horizon_extend_ms", "ms"),
    ("epa.horizon_verdict_ms", "ms"),
    ("epa.horizon_slice_atoms_max", "count"),
    ("epa.horizon_retained_nogoods", "count"),
    ("temporal.unroll_ms", "ms"),
    ("risk.rate_ms", "ms"),
    ("mitigation.optimize_ms", "ms"),
    ("mitigation.candidates", "count"),
    ("core.assess_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.span_coverage", "frac"),
];

/// One workload: set-up (timed as `setup_s`), the user-level operation
/// (timed as `wall_s`), layer probes for the traced run, and an untimed
/// correctness gate.
pub trait Workload {
    /// Resident state the operation runs on.
    type State;
    /// What the operation produces; iterations must agree on it.
    type Output: PartialEq;

    /// Threads the operation keeps busy; the calibration kernel runs on
    /// as many.
    const THREADS: usize = 1;

    /// Generate the inputs and build the resident state.
    fn setup(&self, tr: &mut Tracer) -> Result<Self::State, String>;

    /// The operation, run in one or more [`Tracer::unit`]s. With an
    /// enabled tracer it is replayed step by step through public calls,
    /// with a span around each.
    fn run(&self, state: &mut Self::State, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Layer measurements outside the operation, made once, on the first
    /// traced iteration.
    fn probe(
        &self,
        _state: &mut Self::State,
        _out: &Self::Output,
        _tr: &mut Tracer,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Check `out` against references that do not share its code.
    fn check(&self, state: &Self::State, out: &Self::Output) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: perfbench --workload <assess|solve|sweep|horizon> \
                 [--seed N] [--seconds S] [--trace 0|1]";
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("bad --seed `{value}`: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`\n{usage}")),
        }
    }
    if args.workload.is_empty() {
        return Err(usage.to_owned());
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "assess" => assess::Assess::new(args.seed).and_then(|w| measure(&w, &args)),
        "solve" => measure(&solve::Solve, &args),
        "sweep" => sweep::Sweep::new(args.seed).and_then(|w| measure(&w, &args)),
        "horizon" => measure(&horizon::Horizon::new(args.seed), &args),
        other => Err(format!(
            "unknown workload `{other}` (assess, solve, sweep, horizon)"
        )),
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Run the measurement loop(s) of `w` and return the result line.
fn measure<W: Workload>(w: &W, args: &Args) -> Result<String, String> {
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut failed = 0usize;
    let mut attempted = 0usize;
    let mut errors: Vec<String> = Vec::new();
    let mut off = Tracer::new(false);
    let (mut setup_s, mut wall_s, mut wall_rel) = (Vec::new(), Vec::new(), Vec::new());
    // CPU time is read in 10 ms ticks, so it is totalled over the measured
    // iterations.
    let (mut cpu_total, mut wall_total) = (0.0, 0.0);
    let mut peak_rss_mb = 0.0;
    let mut first: Option<(W::State, W::Output)> = None;
    let start = Instant::now();
    while attempted < MAX_ITERATIONS && (attempted < MIN_MEASURED + 1 || start.elapsed() < budget) {
        attempted += 1;
        let t = Instant::now();
        let mut state = match w.setup(&mut off) {
            Ok(s) => s,
            Err(e) => return Err(format!("set-up failed: {e}")),
        };
        let setup = t.elapsed().as_secs_f64();
        let out = w.run(&mut state, &mut off);
        match (out, &first) {
            (Err(e), _) => {
                failed += 1;
                errors.push(e);
            }
            (Ok(out), None) => first = Some((state, out)),
            (Ok(out), Some((_, reference))) => {
                if out != *reference {
                    failed += 1;
                    errors.push(format!("iteration {attempted} disagrees with the first"));
                }
            }
        }
        // The first iteration warms caches and is not measured.
        if attempted == 1 {
            // Peak memory of one set-up and operation, read before the
            // calibration kernel allocates its own.
            peak_rss_mb = read_peak_rss_mb()?;
            off = Tracer::gauged(Gauge::new(W::THREADS));
        } else {
            let r = off.gauge_mut().map(Gauge::take).unwrap_or_default();
            if r.units == 0 {
                return Err("the operation ran outside any unit".to_owned());
            }
            setup_s.push(setup);
            wall_s.push(r.wall);
            wall_rel.push(r.rel);
            cpu_total += r.cpu;
            wall_total += r.wall;
        }
    }
    let (state0, out0) = first.ok_or_else(|| format!("no iteration succeeded: {errors:?}"))?;

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut tracer = Tracer::new(true);
    if args.trace {
        let start = Instant::now();
        let mut traced = 0;
        while traced < MIN_TRACED || (traced < MAX_ITERATIONS && start.elapsed() < budget) {
            traced += 1;
            attempted += 1;
            tracer.next_iteration();
            let mut state = tracer
                .span("setup", |tr| w.setup(tr))
                .map_err(|e| format!("set-up failed: {e}"))?;
            let out = tracer.span("op", |tr| w.run(&mut state, tr));
            let verdict = out.and_then(|out| {
                if out != out0 {
                    return Err(format!(
                        "traced iteration {traced} diverges from the untraced run"
                    ));
                }
                if traced == 1 {
                    tracer.span("probe", |tr| w.probe(&mut state, &out, tr))?;
                }
                Ok(())
            });
            if let Err(e) = verdict {
                failed += 1;
                errors.push(e);
            }
        }
        let wall_ms = median(&wall_s) * 1e3;
        for &(name, unit) in &PER_LAYER {
            let value = match name {
                "trace.overhead_ms" => median(&tracer.span_totals_ms("op")) - wall_ms,
                "trace.span_coverage" => median(&tracer.child_totals_ms("op")) / wall_ms,
                _ => match name.strip_suffix("_ms") {
                    Some(stem) => median(&tracer.span_totals_ms(stem)),
                    None => median(&tracer.counter_values(name)),
                },
            };
            metrics.push((name, value, unit));
        }
    } else {
        // CPU time in the same units: `wall_rel` scaled by the run's ratio
        // of CPU to wall time.
        let wall_rel = median(&wall_rel);
        let cpu_rel = wall_rel * cpu_total / wall_total;
        let values = [median(&setup_s), wall_rel, cpu_rel, peak_rss_mb];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }

    // Correctness gate, untimed, on the first iteration's output.
    if let Err(e) = w.check(&state0, &out0) {
        errors.push(format!("correctness gate: {e}"));
        failed = attempted;
    }

    let cpu_s = cpu_total / wall_s.len() as f64;
    summarize(args, attempted, failed, &errors, &wall_s, cpu_s, &metrics);
    if args.trace {
        write_trace(args, &tracer)?;
    }
    Ok(result_line(errors.is_empty(), attempted, failed, &metrics))
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn summarize(
    args: &Args,
    attempted: usize,
    failed: usize,
    errors: &[String],
    wall_s: &[f64],
    cpu_s: f64,
    metrics: &[(&str, f64, &str)],
) {
    eprintln!(
        "perfbench {} seed={} trace={}: {attempted} attempted, {failed} failed, \
         error_rate {:.4}, {} measured untraced iterations (wall q1 {:.4} s, \
         median {:.4} s, q3 {:.4} s; cpu {cpu_s:.4} s per operation)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        failed as f64 / attempted as f64,
        wall_s.len(),
        quantile(wall_s, 0.25),
        median(wall_s),
        quantile(wall_s, 0.75),
    );
    for e in errors.iter().take(10) {
        eprintln!("  error: {e}");
    }
    for (name, value, unit) in metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
}

/// Write the Chrome trace of the traced iterations and print the
/// self-time table.
fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    eprintln!(
        "  span self times over {} traced iterations:",
        tracer.iterations()
    );
    eprintln!(
        "  {:<32} {:>7} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, calls, total, own) in tracer.self_times() {
        eprintln!("  {name:<32} {calls:>7} {total:>12.3} {own:>12.3}");
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, tracer.chrome_json(&args.workload))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("  chrome trace: {}", path.display());
    Ok(())
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
fn read_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Catalog seeds to try for a benchmark seed: the seed itself, then the
/// seed mixed with 1, 2, … . A catalog workload takes the first one whose
/// instance has the workload's size, so every benchmark seed gives a
/// different instance of the same size.
pub fn catalog_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0u64..100_000).map(move |k| if k == 0 { seed } else { seed ^ splitmix(k) })
}

/// splitmix64 finalizer.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn catalog_seeds_start_at_the_seed_and_differ_per_seed() {
        let a: Vec<u64> = catalog_seeds(1).take(3).collect();
        let b: Vec<u64> = catalog_seeds(2).take(3).collect();
        assert_eq!(a[0], 1);
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 0, &[("wall_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_names_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
