//! `figures-quick`: every figure and table over a seeded,
//! category-balanced draw from the 90-trace suite, at quick run length,
//! cold and in-process with no store — the researcher's main loop.

use crate::ctx::{Ctx, RoundTimes, Rounds};
use crate::stats::{self, SeedStream, Stopwatch};
use constable::IdealOracle;
use experiments::{
    figure_cells, figure_kinds, try_run_figure, MachineKind, RunLength, SweepSession,
};
use experiments::{run_one, RunOutcome, FIGURES, WATCHDOG_BUDGET};
use load_inspector::LoadReport;
use sim_core::{Core, SimScratch};
use sim_workload::{suite, Category, Program, WorkloadSpec};
use std::sync::Arc;

/// Traces drawn per category: 10 of the 90, two from each category.
const PER_CATEGORY: usize = 2;

/// A seeded, category-balanced draw, in round-robin category order.
pub fn draw(seed: u64, per_category: usize) -> Vec<WorkloadSpec> {
    let mut rng = SeedStream::new(seed);
    let full = suite();
    let mut by_cat: Vec<Vec<WorkloadSpec>> = Category::ALL
        .iter()
        .map(|c| {
            let mut v: Vec<WorkloadSpec> =
                full.iter().filter(|w| w.category == *c).cloned().collect();
            rng.shuffle(&mut v);
            v.truncate(per_category);
            v
        })
        .collect();
    let mut out = Vec::new();
    for i in 0..per_category {
        for cat in by_cat.iter_mut() {
            if i < cat.len() {
                out.push(cat[i].clone());
            }
        }
    }
    out
}

/// Every machine kind some figure sweeps as a plain (workload × machine)
/// matrix, in first-use order.
fn swept_kinds() -> Vec<MachineKind> {
    let mut kinds: Vec<MachineKind> = Vec::new();
    for id in FIGURES {
        for &k in figure_kinds(id).unwrap_or(&[]) {
            if !kinds.contains(&k) {
                kinds.push(k);
            }
        }
    }
    kinds
}

pub struct Prepared {
    pub programs: Vec<Arc<Program>>,
    pub reports: Vec<LoadReport>,
}

/// The workloads' set-up: every program of the suite is built and, given a
/// run length, analysed by load-inspector, whatever the draw, so set-up is
/// the same work on every seed (per-trace set-up costs differ up to 3×).
/// The drawn programs are kept, in draw order.
pub fn prepare(
    ctx: &Ctx,
    full: &[WorkloadSpec],
    drawn: &[WorkloadSpec],
    analyze: Option<u64>,
) -> Prepared {
    let t = &ctx.tracer;
    let mut kept: Vec<Option<(Arc<Program>, Option<LoadReport>)>> = vec![None; drawn.len()];
    for spec in full {
        let program = t.span("sim-workload", "WorkloadSpec::build_arc", || {
            spec.build_arc()
        });
        let report = analyze.map(|n| {
            t.span("load-inspector", "analyze", || {
                load_inspector::analyze(&program, n)
            })
        });
        if let Some(i) = drawn.iter().position(|d| d.name == spec.name) {
            kept[i] = Some((program, report));
        }
    }
    let (programs, reports) = kept
        .into_iter()
        .map(|k| k.expect("the draw comes from the suite"))
        .unzip::<_, _, Vec<_>, Vec<_>>();
    Prepared {
        programs,
        reports: reports.into_iter().flatten().collect(),
    }
}

pub fn run(ctx: &mut Ctx) {
    let n = RunLength::quick();
    let specs = draw(ctx.seed, PER_CATEGORY);
    let kinds = swept_kinds();
    // Every Baseline and Constable cell of the draw is recomputed one at a
    // time each round, so the per-cell medians span the whole draw.
    let sample: Vec<(usize, MachineKind)> = [MachineKind::Baseline, MachineKind::Constable]
        .into_iter()
        .flat_map(|k| (0..specs.len()).map(move |i| (i, k)))
        .collect();

    let full = suite();
    let mut setup = |ctx: &mut Ctx| prepare(ctx, &full, &specs, Some(n.0));
    let prep = ctx.setup(&mut setup);

    let mut times = RoundTimes::default();
    let mut figures_s = Vec::new();
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let mut warm_uops = 0;
    // The first round's cells as (kind, result) — every later round must
    // reproduce them bit for bit.
    let mut first: Option<Vec<(MachineKind, RunOutcome)>> = None;
    let mut first_digest = None;
    let mut scratch = SimScratch::new();
    let mut rounds = Rounds::new(ctx.seconds);
    while rounds.another() {
        let round = rounds.index();
        let sw = Stopwatch::start();
        let session = SweepSession::new(&specs, n);
        for id in FIGURES {
            let r = ctx.tracer.span("experiments", "try_run_figure", || {
                try_run_figure(id, &session)
            });
            ctx.check(r.is_ok(), || {
                format!("round {round}: {id}: {:?}", r.as_ref().err())
            });
        }
        let elapsed = sw.read();
        figures_s.push(elapsed.0);

        // Every cell of every swept kind, answered from the session memo.
        let mut digest = sim_core::TraceDigest::new();
        let mut uops = 0;
        let mut round_cells = Vec::new();
        for &kind in &kinds {
            let cells = ctx
                .tracer
                .span("experiments", "SweepSession::suite_cells", || {
                    session.suite_cells(kind)
                });
            for (spec, cell) in specs.iter().zip(cells) {
                let label = format!("{} on {}", spec.name, kind.slug());
                let Ok(out) = cell else {
                    ctx.check(false, || format!("{label}: quarantined"));
                    continue;
                };
                ctx.check_cell(&label, &out.result, n.0);
                digest.update(out.result.stats_digest());
                uops += out.result.stats.retired;
                round_cells.push((kind, out));
            }
        }
        drop(session);
        times.push(elapsed, uops);
        let digest = digest.finish();
        let same = *first_digest.get_or_insert(digest) == digest;
        ctx.check(same, || {
            format!("round {round}: cell digests differ from round 0")
        });

        // Recompute the sample one cell at a time: cold through the direct
        // single-cell path (build, analysis, fresh scratch), warm on the
        // set-up program and analysis with a recycled scratch. Both must
        // reproduce the session's result bit for bit.
        for &(i, kind) in &sample {
            let want = round_cells
                .iter()
                .find(|(k, o)| *k == kind && o.workload == specs[i].name)
                .map_or(0, |(_, o)| o.result.stats_digest());
            let label = format!("{} on {}", specs[i].name, kind.slug());

            let sw = Stopwatch::start();
            let cold = ctx.tracer.span("experiments", "run_one", || {
                run_one(&specs[i], n, kind.needs_oracle(), &|_, o| kind.config(o))
            });
            cold_ms.push(sw.read().0 * 1e3);
            let ok = cold.as_ref().is_ok_and(|c| c.result.stats_digest() == want);
            ctx.check(ok, || {
                format!("{label}: run_one disagrees with the session")
            });

            let sw = Stopwatch::start();
            let oracle = if kind.needs_oracle() {
                IdealOracle::new(prep.reports[i].stable_pcs.iter().copied())
            } else {
                IdealOracle::default()
            };
            let mut cfg = kind.config(oracle);
            cfg.watchdog_no_retire.get_or_insert(WATCHDOG_BUDGET);
            let mut core = Core::new_multi_with_scratch(
                vec![prep.programs[i].as_ref()],
                cfg,
                std::mem::take(&mut scratch),
            );
            let warm = ctx.tracer.span("sim-core", "Core::run", || core.run(n.0));
            scratch = core.into_scratch();
            warm_ms.push(sw.read().0 * 1e3);
            warm_uops += warm.stats.retired;
            ctx.check_cell(&label, &warm, n.0);
            ctx.check(warm.stats_digest() == want, || {
                format!("{label}: warm recompute disagrees with the session")
            });
        }
        if first.is_none() {
            for (_, o) in &round_cells {
                ctx.record(&o.result);
            }
            first = Some(round_cells);
        }
        ctx.resetup(&mut setup);
    }

    times.report(ctx);
    ctx.set("setup_s", ctx.setup_median());
    ctx.set("cold_cell_p50_ms", stats::median(&cold_ms).unwrap_or(0.0));
    ctx.set("warm_cell_p50_ms", stats::median(&warm_ms).unwrap_or(0.0));
    let cells = first.expect("at least one round");
    let of = |want: MachineKind| -> Vec<&sim_core::SimResult> {
        cells
            .iter()
            .filter(|(k, _)| *k == want)
            .map(|(_, o)| &o.result)
            .collect()
    };
    let all: Vec<&sim_core::SimResult> = cells.iter().map(|(_, o)| &o.result).collect();
    crate::cells::report(
        ctx,
        &all,
        &of(MachineKind::Baseline),
        &of(MachineKind::Constable),
    );

    if ctx.tracer.enabled() {
        let requested: usize = FIGURES
            .iter()
            .filter_map(|id| figure_cells(id, &specs))
            .map(|c| c.len())
            .sum();
        let unique = kinds.len() * specs.len();
        ctx.set("experiments.cells_simulated", unique as f64);
        ctx.set("experiments.cells_memo_hit", (requested - unique) as f64);
        ctx.set(
            "experiments.figures_s",
            stats::median(&figures_s).unwrap_or(0.0),
        );
        // The warm recomputes are the cells this workload runs straight
        // through `Core::run`.
        let run_s = crate::trace::total_s(&ctx.tracer.spans(), "sim-core", "Core::run");
        ctx.set("sim-core.run_s", run_s / figures_s.len() as f64);
        ctx.set("sim-core.ns_per_uop", run_s * 1e9 / warm_uops.max(1) as f64);
        let programs: Vec<&Program> = prep.programs.iter().map(|p| p.as_ref()).collect();
        crate::replay::replay(ctx, &programs, n.0);
    }
}
