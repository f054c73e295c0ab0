//! One repetition of a benchmark workload, or the layer drivers, as a
//! JSON line on standard output. `run.py` runs this program many times
//! per measurement and aggregates the lines.
//!
//! ```text
//! vswap-perfbench rep --workload <suite|anon-swap|file-mapper> --seed <n>
//!                     [--traced] [--trace-out <path>]
//! vswap-perfbench drivers --seed <n>
//! ```

mod drivers;
mod out;
mod trace;
mod workload;

use sim_obs::json::JsonWriter;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

const USAGE: &str = "usage: vswap-perfbench rep --workload <suite|anon-swap|file-mapper> \
                     --seed <n> [--traced] [--trace-out <path>]\n       \
                     vswap-perfbench drivers --seed <n>";

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    traced: bool,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let command = it.next().ok_or("missing command")?.clone();
    let mut parsed = Args { command, workload: None, seed: 0, traced: false, trace_out: None };
    let mut seed = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--traced" => parsed.traced = true,
            "--trace-out" => parsed.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    Ok(parsed)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn rep(args: &Args, start: Instant) -> Result<String, String> {
    let workload = args.workload.ok_or("rep needs --workload")?;
    let r = workload::run(workload, args.seed, args.traced, start);
    let rss = peak_rss_mb();
    if let (Some(path), Some(tracer)) = (&args.trace_out, &r.tracer) {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("workload", workload.name());
    w.field_u64("seed", args.seed);
    w.field_bool("traced", args.traced);
    w.field_f64("setup_s", r.setup.as_secs_f64());
    w.field_f64("wall_s", r.wall.as_secs_f64());
    w.field_u64("pages", r.pages);
    w.field_f64("peak_rss_mb", rss);
    w.field_u64("attempted", r.attempted);
    w.field_u64("failed", r.failed);
    w.key("failures");
    w.begin_array();
    for f in &r.failures {
        w.value_str(f);
    }
    w.end_array();
    w.field_str("digest", &format!("{:016x}", r.digest));
    w.key("counters");
    w.begin_object();
    for (name, value) in &r.counters {
        w.field_u64(name, *value);
    }
    w.end_object();
    w.key("timings");
    w.begin_object();
    for (name, value) in &r.timings {
        w.field_f64(name, *value);
    }
    w.end_object();
    if let Some(tracer) = &r.tracer {
        w.key("step_bins");
        trace::write_step_bins(&mut w, tracer);
    }
    w.end_object();
    Ok(w.finish())
}

fn drivers(args: &Args) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    for d in drivers::run_all(args.seed) {
        w.field_f64(d.name, d.median_ns);
        w.field_f64(&format!("{}.spread", d.name), d.spread);
    }
    w.end_object();
    w.finish()
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "rep" => rep(&args, start),
        "drivers" => Ok(drivers(&args)),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
