//! perfbench — the end-to-end and per-layer benchmark of the Constable
//! reproduction. See README.md.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady [--k 10] [--seconds <s>]
//! perfbench spec [--write]
//! ```

// `experiments::CellFailure` travels by value through the closures the
// tracer wraps around `try_run_figure` and `run_one`; it is that crate's
// error type, passed through unchanged.
#![allow(clippy::result_large_err)]

mod cells;
mod ctx;
mod figures;
mod json;
mod replay;
mod served;
mod spec;
mod stats;
mod steady;
mod trace;

use ctx::Ctx;
use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs keep their scratch files, relative to the checkout root the
/// benchmark runs from.
pub const WORK_DIR: &str = ".bench_work";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench steady [--k <runs>] [--seconds <s>]\n       \
         perfbench spec [--write]",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the subcommand, rejecting anything else.
fn flags(args: &[String], allowed: &[&str]) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--")?;
        if !allowed.contains(&key) {
            return None;
        }
        out.push((key.to_string(), it.next()?.clone()));
    }
    Some(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => {
            let write = match &args[1..] {
                [] => false,
                [w] if w == "--write" => true,
                _ => return usage(),
            };
            let text = spec::render().to_pretty();
            if write {
                if let Err(e) = std::fs::write("BENCHMARK.json", &text) {
                    eprintln!("perfbench: writing BENCHMARK.json: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                print!("{text}");
            }
            ExitCode::SUCCESS
        }
        Some("steady") => {
            let Some(f) = flags(&args[1..], &["k", "seconds"]) else {
                return usage();
            };
            steady::main(&f)
        }
        _ => {
            let Some(f) = flags(&args, &["workload", "seed", "seconds", "trace"]) else {
                return usage();
            };
            let get = |k: &str| f.iter().find(|(key, _)| key == k).map(|(_, v)| v.as_str());
            let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
                get("workload"),
                get("seed").and_then(|s| s.parse::<u64>().ok()),
                get("seconds").and_then(|s| s.parse::<f64>().ok()),
                get("trace"),
            ) else {
                return usage();
            };
            let trace = match trace {
                "0" => false,
                "1" => true,
                _ => return usage(),
            };
            if !(seconds > 0.0 && seconds <= 120.0) {
                return usage();
            }
            run(workload, seed, seconds, trace)
        }
    }
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let run_fn: fn(&mut Ctx) = match workload {
        "figures-quick" => figures::run,
        "served-replay" => served::run,
        _ => return usage(),
    };
    let work = PathBuf::from(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let mut ctx = Ctx::new(seed, seconds, trace, work.clone());
    let started = std::time::Instant::now();
    run_fn(&mut ctx);
    let wall = started.elapsed().as_secs_f64();
    ctx.set("perfbench.peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));

    if trace {
        let spans = ctx.tracer.spans();
        for (layer, s) in trace::self_time_by_layer(&spans) {
            let name = format!("{layer}.self_s");
            if let Some(m) = spec::metric(&name) {
                ctx.set(m.name, s);
            }
        }
        // The benchmark's own time: whatever no top-level span covers.
        let in_layers: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .sum();
        ctx.set("perfbench.self_s", (wall - in_layers).max(0.0));
        ctx.set("perfbench.spans", spans.len() as f64);
        // Per set-up, averaged over every set-up the run made.
        let calls = ctx.setup_calls.max(1) as f64;
        let build_s = trace::total_s(&spans, "sim-workload", "WorkloadSpec::build_arc") / calls;
        let analyze_s = trace::total_s(&spans, "load-inspector", "analyze") / calls;
        ctx.set("sim-workload.build_s", build_s);
        ctx.set("load-inspector.analyze_s", analyze_s);
        let path = PathBuf::from(WORK_DIR).join(format!("trace-{workload}-seed{seed}.tsv"));
        match ctx.tracer.write_tsv(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    eprintln!("perfbench: sim-digest {:016x}", ctx.sim_digest.finish());

    let declared = if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let values = if trace { &ctx.layers } else { &ctx.e2e };
    let mut metrics = Vec::new();
    for m in declared {
        // A layer this workload does not exercise reads 0.
        let v = values.get(m.name).copied().unwrap_or(0.0);
        println!("{:<36} {:>16.6} {}", m.name, v, m.unit);
        metrics.push((
            m.name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
        ));
    }
    let correct = ctx.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(ctx.attempted as f64)),
        ("failed", Json::Num(ctx.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.to_line());
    ExitCode::SUCCESS
}
