//! The benchmark's definition — command, directories, run length,
//! workloads and metrics — and the `BENCHMARK.json` file rendered from it.

use crate::json::Json;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];
pub const PATHS: &[&str] = &["perfbench"];
pub const RUN_SECONDS: u64 = 45;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "figures-quick",
        why: "every figure over a seeded category-balanced draw, cold and in-process: the researcher's main loop, where the sweep layer, load-inspector, sim-power and Constable work",
    },
    Workload {
        name: "served-replay",
        why: "an in-process sweep-server on a fresh store, one closed-loop client connection: a cold pass writes records and checkpoints, warm passes only read them; no SweepSession",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (see README.md for what a
/// cold and a warm cell are on each workload).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("sim_muops_per_s", "Muops/s", Higher, 0.25),
    e2e("cold_cell_p50_ms", "ms", Lower, 0.25),
    e2e("warm_cell_p50_ms", "ms", Lower, 0.25),
    e2e("constable_speedup", "x", Higher, 0.02),
    e2e("constable_power", "x", Lower, 0.03),
];

/// Reported by traced runs (`--trace 1`) on every workload; a layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("sim-workload.build_s", "s", Lower),
    layer("sim-workload.exec_ns_per_inst", "ns", Lower),
    layer("sim-workload.self_s", "s", Lower),
    layer("load-inspector.analyze_s", "s", Lower),
    layer("load-inspector.self_s", "s", Lower),
    layer("sim-core.run_s", "s", Lower),
    layer("sim-core.ns_per_uop", "ns", Lower),
    layer("sim-core.cycles", "count", Lower),
    layer("sim-core.retired", "count", Higher),
    layer("sim-core.fetched_wrong_path", "count", Lower),
    layer("sim-core.rs_allocs", "count", Lower),
    layer("sim-core.ckpt_encode_ms", "ms", Lower),
    layer("sim-core.ckpt_bytes", "bytes", Lower),
    layer("sim-core.restore_ms", "ms", Lower),
    layer("sim-core.self_s", "s", Lower),
    layer("sim-mem.l1d_accesses", "count", Lower),
    layer("sim-mem.l2_accesses", "count", Lower),
    layer("sim-mem.dram_accesses", "count", Lower),
    layer("sim-mem.ns_per_access", "ns", Lower),
    layer("sim-mem.self_s", "s", Lower),
    layer("sim-predictors.branch_mispredicts", "count", Lower),
    layer("sim-predictors.eves_lookups", "count", Lower),
    layer("sim-predictors.mrn_forwarded", "count", Higher),
    layer("sim-predictors.tage_ns_per_branch", "ns", Lower),
    layer("sim-predictors.eves_ns_per_load", "ns", Lower),
    layer("sim-predictors.mrn_ns_per_mem", "ns", Lower),
    layer("sim-predictors.self_s", "s", Lower),
    layer("constable.loads_eliminated", "count", Higher),
    layer("constable.elim_coverage", "ratio", Higher),
    layer("constable.elim_violations", "count", Lower),
    layer("constable.sld_reads", "count", Lower),
    layer("constable.amt_probes", "count", Lower),
    layer("constable.l1d_saved_pct", "%", Higher),
    layer("constable.rs_saved_pct", "%", Higher),
    layer("constable.rename_ns_per_load", "ns", Lower),
    layer("constable.self_s", "s", Lower),
    layer("sim-power.fe_ratio", "x", Lower),
    layer("sim-power.ooo_rat_ratio", "x", Lower),
    layer("sim-power.ooo_rs_ratio", "x", Lower),
    layer("sim-power.meu_l1d_ratio", "x", Lower),
    layer("sim-power.self_s", "s", Lower),
    layer("experiments.cells_simulated", "count", Lower),
    layer("experiments.cells_memo_hit", "count", Higher),
    layer("experiments.figures_s", "s", Lower),
    layer("experiments.self_s", "s", Lower),
    layer("result-store.put_ms_p50", "ms", Lower),
    layer("result-store.bytes_written", "bytes", Lower),
    layer("result-store.get_ms_p50", "ms", Lower),
    layer("result-store.hits", "count", Higher),
    layer("result-store.ckpt_writes", "count", Lower),
    layer("result-store.self_s", "s", Lower),
    layer("sweep-server.computed", "count", Lower),
    layer("sweep-server.from_store", "count", Higher),
    layer("sweep-server.retry_after", "count", Lower),
    layer("sweep-server.warm_cell_p90_ms", "ms", Lower),
    layer("sweep-server.self_s", "s", Lower),
    layer("perfbench.self_s", "s", Lower),
    layer("perfbench.peak_rss_mb", "MB", Lower),
    layer("perfbench.spans", "count", Lower),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json` as rendered from the constants above.
pub fn render() -> Json {
    let metrics = |ms: &[Metric]| {
        Json::Arr(
            ms.iter()
                .map(|m| {
                    let mut kv = vec![
                        ("name", Json::str(m.name)),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                    ];
                    if let Some(b) = m.bound {
                        kv.push(("bound", Json::Num(b)));
                    }
                    Json::obj(kv)
                })
                .collect(),
        )
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        (
            "paths",
            Json::Arr(PATHS.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(END_TO_END)),
        ("per_layer", metrics(PER_LAYER)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_spec_round_trips() {
        let doc = render();
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn every_end_to_end_bound_is_within_the_limit() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn committed_benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            render(),
            "BENCHMARK.json is stale: run `perfbench spec --write`"
        );
    }
}
