//! Command line of the benchmark.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one pass of one
//!   workload in this process; the last line of standard output is the
//!   result object the driver reads.
//! * no `--workload` — all four workloads, each pass in a fresh child
//!   process (peak RSS and allocator state are per workload), untraced
//!   then traced; every metric is printed by name with its unit.
//! * `--smoke` — the same at 1/50 scale: schema and checks only.
//! * `calibrate` — repeated untraced runs; measured spreads become the
//!   bounds in `BENCHMARK.json`, the evidence goes to
//!   `benchmark/CALIBRATION.json`. Run it from the repository root.
//! * `manifest` — print `BENCHMARK.json` with the initial bounds.
//!
//! Exit code 0 only if every output check passed.

use serde_json::{Map, Number, Value};
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use upin_benchmark::schema::{
    result_line, MetricDef, Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use upin_benchmark::workloads::{Outcome, Scale};
use upin_benchmark::{calibrate, procstat, run_workload, trace, Pass};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    spans_out: Option<String>,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        spans_out: None,
        sets: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--sets" => {
                args.sets = value("--sets")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .ok_or("--sets must be a whole number >= 2")?
            }
            "--spans-out" => args.spans_out = Some(value("--spans-out")?),
            "--smoke" => args.smoke = true,
            "calibrate" | "manifest" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

impl Args {
    fn scale(&self) -> Scale {
        let full = self.seconds.unwrap_or(RUN_SECONDS);
        Scale {
            seconds: if self.smoke { full / 50.0 } else { full },
            smoke: self.smoke,
        }
    }
}

fn print_values(defs: &[MetricDef], values: &Values) {
    for def in defs {
        let v = values.get(def.name).copied().unwrap_or(0.0);
        println!("  {:<40} {:>16.4} {}", def.name, v, def.unit);
    }
}

fn print_checks(out: &Outcome) {
    for (name, ok) in &out.checks.0 {
        println!("  check {} {name}", if *ok { "ok  " } else { "FAIL" });
    }
}

/// The counters that repeat exactly for the same seed and seconds.
fn print_counters(out: &Outcome) {
    for (name, v) in &out.fingerprint {
        println!("  counter {name} = {v}");
    }
}

/// One pass of one workload in this process.
fn worker(args: &Args, workload: &str) -> Result<bool, String> {
    let scale = args.scale();
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        args.seed, scale.seconds, args.trace as u8
    );
    if !args.trace {
        let mut out = run_workload(workload, args.seed, scale, Pass::Untraced)?;
        out.values.insert("peak_rss_mb", procstat::peak_rss_mb());
        print_checks(&out);
        print_counters(&out);
        print_values(&END_TO_END, &out.values);
        let correct = out.checks.all_ok();
        println!(
            "{}",
            result_line(&END_TO_END, &out.values, correct, out.attempted, out.failed)
        );
        return Ok(correct);
    }

    let reference = run_workload(workload, args.seed, scale, Pass::Reference)?;
    let mut traced = run_workload(workload, args.seed, scale, Pass::Traced)?;
    traced.checks.check(
        "same seed gives the same deterministic counters in both passes",
        reference.fingerprint == traced.fingerprint,
    );
    if reference.fingerprint != traced.fingerprint {
        eprintln!("  reference: {:?}", reference.fingerprint);
        eprintln!("  traced:    {:?}", traced.fingerprint);
    }
    // The two renditions run one after the other on a box whose speed drifts
    // by far more than tracing costs, so the overhead is taken where it
    // arises — spans recorded times the cost of a span — and the two
    // busy times are printed for whoever wants their difference.
    println!(
        "  timed busy: reference {:.3} s, traced {:.3} s, {} spans",
        reference.timed_busy_s, traced.timed_busy_s, traced.timed_spans
    );
    traced.values.insert(
        "bench.trace_overhead_share",
        traced.timed_spans as f64 * trace::span_cost_ns() / 1e9 / traced.timed_busy_s,
    );
    // Layer values only the untraced rendition can see (the opaque
    // entry point's own report) ride along.
    for (name, v) in &reference.values {
        traced.values.entry(name).or_insert(*v);
    }
    if let Some(dir) = &args.spans_out {
        write_spans(dir, workload, &traced)?;
    }
    print_checks(&reference);
    print_checks(&traced);
    print_counters(&traced);
    print_values(PER_LAYER, &traced.values);
    let correct = reference.checks.all_ok() && traced.checks.all_ok();
    println!(
        "{}",
        result_line(
            PER_LAYER,
            &traced.values,
            correct,
            traced.attempted,
            traced.failed + reference.failed
        )
    );
    Ok(correct)
}

/// `thread,id,parent,name,unit,start_ns,end_ns`, one line per span.
fn write_spans(dir: &str, workload: &str, out: &Outcome) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = std::path::Path::new(dir).join(format!("{workload}.spans.csv"));
    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "thread,id,parent,name,unit,start_ns,end_ns").map_err(|e| e.to_string())?;
    for (thread, tracer) in &out.tracers {
        tracer
            .write_csv(&mut w, thread)
            .map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;
    println!("  spans written to {}", path.display());
    Ok(())
}

/// The parsed last line of a child pass.
pub struct ChildResult {
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

/// Run one pass in a fresh child process, relaying what it prints.
fn child_pass(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = &args.spans_out {
        cmd.args(["--spans-out", dir]);
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or_default();
    for line in text.lines() {
        if line != last {
            println!("{line}");
        }
    }
    let parsed: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {:?}", output.status))?;
    let correct = parsed["correct"].as_bool().unwrap_or(false);
    let metrics = parsed["metrics"]
        .as_object()
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v["value"].as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    Ok(ChildResult { correct, metrics })
}

/// All four workloads, untraced then traced.
fn all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        for trace in [false, true] {
            let result = child_pass(args, workload, args.seed, trace)?;
            ok &= result.correct;
        }
    }
    println!(
        "== {}",
        if ok {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn number(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Map>(),
    )
}

/// `BENCHMARK.json` from the schema, with the given end-to-end bounds.
fn manifest(bounds: &dyn Fn(&MetricDef) -> f64) -> String {
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::String(s.to_string())).collect());
    let metric = |d: &MetricDef, bound: Option<f64>| {
        let mut entries = vec![
            ("name", Value::String(d.name.into())),
            ("unit", Value::String(d.unit.into())),
            ("better", Value::String(d.better.as_str().into())),
        ];
        if let Some(b) = bound {
            entries.push(("bound", number(b)));
        }
        object(entries)
    };
    let doc = object(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        (
            "run_seconds",
            Value::Number(Number::Int(RUN_SECONDS as i64)),
        ),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        object(vec![
                            ("name", Value::String(name.to_string())),
                            ("why", Value::String(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|d| metric(d, Some(bounds(d))))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|d| metric(d, None)).collect()),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("manifests always serialize");
    text.push('\n');
    text
}

/// Repeated untraced runs, each workload's back to back on successive
/// seeds (the way the driver takes its spreads); the measured spreads
/// become the bounds.
fn run_calibration(args: &Args) -> Result<bool, String> {
    let mut samples = calibrate::Samples::default();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for set in 0..args.sets {
            let seed = args.seed + set as u64;
            println!("== set {set} {workload} seed {seed}");
            let result = child_pass(args, workload, seed, false)?;
            ok &= result.correct;
            for (name, v) in result.metrics {
                samples.push(workload, &name, v);
            }
        }
    }
    let report = calibrate::summarize(&samples, &END_TO_END);
    for row in &report.rows {
        println!(
            "  {:<18} {:<24} median {:>14.4} iqr/median {:>7.4}{}",
            row.workload,
            row.metric,
            row.median,
            row.iqr_share,
            if row.iqr_share > calibrate::MAX_BOUND {
                "  (wider than any allowed bound: demote)"
            } else {
                ""
            }
        );
    }
    let bounds = report.bounds.clone();
    let text = manifest(&|d: &MetricDef| bounds.get(d.name).copied().unwrap_or(d.bound));
    std::fs::write("BENCHMARK.json", text).map_err(|e| e.to_string())?;
    std::fs::write(
        "benchmark/CALIBRATION.json",
        calibrate::evidence_json(&report, args.sets),
    )
    .map_err(|e| e.to_string())?;
    println!("== wrote BENCHMARK.json and benchmark/CALIBRATION.json");
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("upin-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.command, &args.workload) {
        (Some(c), _) if c == "calibrate" => run_calibration(&args),
        (Some(_), _) => {
            print!("{}", manifest(&|d: &MetricDef| d.bound));
            Ok(true)
        }
        (None, Some(w)) => worker(&args, w),
        (None, None) => all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("upin-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
