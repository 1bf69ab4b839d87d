//! Steadiness mode: two sets of `k` runs per workload, interleaved and in
//! alternating order, with each metric's median and quartiles per set and
//! the comparison the bounds in `BENCHMARK.json` are set from.
//!
//! Run `i` of both sets uses seed `1 + i`, so simulated results must agree
//! pairwise bit for bit (`sim-digest`); a traced run on seed 1 must agree
//! with the untraced ones too. Two spreads are printed per metric: across
//! the seeds of one set (different inputs and host noise together, the
//! quantity the bounds gate) and of the per-seed B/A ratios (the same
//! inputs twice, so host noise alone).

use crate::json::Json;
use crate::spec::{self, END_TO_END};
use crate::stats;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Run `i` of both sets uses seed `SEED + i`.
const SEED: u64 = 1;

struct Run {
    metrics: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
    digest: String,
}

fn run_once(workload: &str, seed: u64, seconds: &str, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            seconds,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: {}\n{stderr}", out.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed}: outputs incorrect\n{stderr}"
        ));
    }
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(kv)) = doc.get("metrics") {
        for (k, v) in kv {
            metrics.insert(
                k.clone(),
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            );
        }
    }
    let digest = stderr
        .lines()
        .find_map(|l| l.strip_prefix("perfbench: sim-digest "))
        .unwrap_or("")
        .to_string();
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok(Run {
        metrics,
        attempted: num("attempted"),
        failed: num("failed"),
        digest,
    })
}

fn summary(xs: &[f64]) -> (f64, f64, f64, f64) {
    let med = stats::median(xs).unwrap_or(f64::NAN);
    let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
    (med, q1, q3, (q3 - q1) / med)
}

pub fn main(flags: &[(String, String)]) -> ExitCode {
    let get = |k: &str| {
        flags
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    let k: usize = get("k").and_then(|v| v.parse().ok()).unwrap_or(10);
    let seconds = get("seconds")
        .map(str::to_string)
        .unwrap_or_else(|| spec::RUN_SECONDS.to_string());
    let workloads: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    let mut ok = true;
    // runs[workload][set] in completion order.
    let mut runs: BTreeMap<&str, [Vec<Run>; 2]> = BTreeMap::new();
    for i in 0..k {
        for (wi, &w) in workloads.iter().enumerate() {
            let order = if (i + wi) % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                match run_once(w, SEED + i as u64, &seconds, false) {
                    Ok(r) => runs.entry(w).or_default()[set].push(r),
                    Err(e) => {
                        eprintln!("steady: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            eprintln!("steady: round {}/{k} of {w} done", i + 1);
        }
    }
    for &w in &workloads {
        let sets = &runs[w];
        println!(
            "\n== {w}: {k} runs per set, seeds {SEED}..{}",
            SEED + k as u64 - 1
        );
        println!(
            "{:<20} {:>12} {:>12} {:>12} {:>8} {:>12} {:>8} {:>8} {:>8} {:>6}",
            "metric",
            "median A",
            "q1 A",
            "q3 A",
            "spread A",
            "median B",
            "spread B",
            "B/A sprd",
            "B vs A",
            "bound"
        );
        for m in END_TO_END {
            let bound = m.bound.unwrap_or(0.0);
            let col =
                |s: usize| -> Vec<f64> { sets[s].iter().map(|r| r.metrics[m.name]).collect() };
            let (ma, q1, q3, sa) = summary(&col(0));
            let (mb, _, _, sb) = summary(&col(1));
            let ratios: Vec<f64> = col(1).iter().zip(col(0)).map(|(b, a)| b / a).collect();
            let (_, _, _, noise) = summary(&ratios);
            let worse = match m.better {
                spec::Better::Lower => (mb - ma) / ma,
                spec::Better::Higher => (ma - mb) / ma,
            };
            let spread_ok = sa <= bound && sb <= bound;
            let flag = if spread_ok && worse <= bound {
                ""
            } else {
                "  <-- OUT"
            };
            ok &= spread_ok && worse <= bound;
            println!(
                "{:<20} {ma:>12.6} {q1:>12.6} {q3:>12.6} {sa:>8.4} {mb:>12.6} {sb:>8.4} {noise:>8.4} {worse:>+8.4} {bound:>6}{flag}",
                m.name
            );
        }
        // Simulated results repeat exactly for the same seed.
        for (a, b) in sets[0].iter().zip(&sets[1]) {
            let same = a.digest == b.digest
                && ["constable_speedup", "constable_power"]
                    .iter()
                    .all(|n| a.metrics[*n].to_bits() == b.metrics[*n].to_bits());
            if !same || a.digest.is_empty() {
                println!(
                    "sim results differ between sets: {} vs {}",
                    a.digest, b.digest
                );
                ok = false;
            }
        }
        let share = |s: usize| -> Vec<(f64, f64)> {
            sets[s].iter().map(|r| (r.failed, r.attempted)).collect()
        };
        println!(
            "failed/attempted A {:?}\nfailed/attempted B {:?}",
            share(0),
            share(1)
        );
        ok &= sets.iter().flatten().all(|r| r.failed == 0.0);
        match run_once(w, SEED, &seconds, true) {
            Ok(t) if t.digest == sets[0][0].digest => {
                println!("traced run on seed {SEED}: same sim-digest {}", t.digest)
            }
            Ok(t) => {
                println!("traced run on seed {SEED}: sim-digest {} differs", t.digest);
                ok = false;
            }
            Err(e) => {
                println!("traced run failed: {e}");
                ok = false;
            }
        }
    }
    if ok {
        println!("\nsteady: every spread and median shift within its bound");
        ExitCode::SUCCESS
    } else {
        println!("\nsteady: some metric is out of bound (marked above)");
        ExitCode::FAILURE
    }
}
