//! Metrics every workload derives from its simulated cells.

use crate::ctx::Ctx;
use crate::stats;
use sim_core::SimResult;

/// Reports `constable_speedup` and `constable_power` from Baseline and
/// Constable cells paired by workload, and the per-layer counts: sim-core,
/// sim-mem and predictor counters summed over `all` cells of one round,
/// Constable's over its own cells, and sim-power's components as
/// Constable-over-Baseline ratios.
pub fn report(ctx: &mut Ctx, all: &[&SimResult], base: &[&SimResult], cons: &[&SimResult]) {
    assert_eq!(base.len(), cons.len(), "cells pair up by workload");
    let ratios: Vec<f64> = base
        .iter()
        .zip(cons)
        .map(|(b, c)| c.ipc() / b.ipc())
        .collect();
    let speedup = stats::geomean(&ratios).unwrap_or(0.0);
    ctx.set("constable_speedup", speedup);

    let mut eb = sim_power::PowerBreakdown::default();
    let mut ec = sim_power::PowerBreakdown::default();
    for (b, c) in base.iter().zip(cons) {
        add(&mut eb, &ctx.energy("baseline cell", b, false));
        add(&mut ec, &ctx.energy("constable cell", c, true));
    }
    ctx.set("constable_power", ec.total() / eb.total());
    let ratio = |c: f64, b: f64| if b > 0.0 { c / b } else { 0.0 };
    ctx.set("sim-power.fe_ratio", ratio(ec.fe, eb.fe));
    ctx.set("sim-power.ooo_rat_ratio", ratio(ec.ooo_rat, eb.ooo_rat));
    ctx.set("sim-power.ooo_rs_ratio", ratio(ec.ooo_rs, eb.ooo_rs));
    ctx.set("sim-power.meu_l1d_ratio", ratio(ec.meu_l1d, eb.meu_l1d));

    let sum = |cells: &[&SimResult], f: fn(&SimResult) -> u64| -> f64 {
        cells.iter().map(|r| f(r) as f64).sum()
    };
    type Count = fn(&SimResult) -> u64;
    let counts: [(&'static str, Count); 10] = [
        ("sim-core.cycles", |r| r.stats.cycles),
        ("sim-core.retired", |r| r.stats.retired),
        ("sim-core.fetched_wrong_path", |r| {
            r.stats.fetched_wrong_path
        }),
        ("sim-core.rs_allocs", |r| r.stats.rs_allocs),
        ("sim-mem.l1d_accesses", |r| r.stats.l1d_accesses),
        ("sim-mem.l2_accesses", |r| r.stats.l2_accesses),
        ("sim-mem.dram_accesses", |r| r.stats.dram_accesses),
        ("sim-predictors.branch_mispredicts", |r| {
            r.stats.branch_mispredicts
        }),
        ("sim-predictors.eves_lookups", |r| r.stats.eves_lookups),
        ("sim-predictors.mrn_forwarded", |r| r.stats.mrn_forwarded),
    ];
    for (name, f) in counts {
        ctx.set(name, sum(all, f));
    }
    let elim = sum(cons, |r| r.stats.loads_eliminated);
    ctx.set("constable.loads_eliminated", elim);
    ctx.set(
        "constable.elim_coverage",
        ratio(elim, sum(cons, |r| r.stats.retired_loads)),
    );
    ctx.set(
        "constable.elim_violations",
        sum(cons, |r| r.stats.elim_violations),
    );
    ctx.set("constable.sld_reads", sum(cons, |r| r.stats.sld_reads));
    ctx.set("constable.amt_probes", sum(cons, |r| r.stats.amt_probes));
    let saved = |f: fn(&SimResult) -> u64| {
        let b = sum(base, f);
        if b > 0.0 {
            (1.0 - sum(cons, f) / b) * 100.0
        } else {
            0.0
        }
    };
    ctx.set("constable.l1d_saved_pct", saved(|r| r.stats.l1d_accesses));
    ctx.set("constable.rs_saved_pct", saved(|r| r.stats.rs_allocs));
}

fn add(acc: &mut sim_power::PowerBreakdown, e: &sim_power::PowerBreakdown) {
    acc.fe += e.fe;
    acc.ooo_rs += e.ooo_rs;
    acc.ooo_rat += e.ooo_rat;
    acc.ooo_rob += e.ooo_rob;
    acc.eu += e.eu;
    acc.meu_l1d += e.meu_l1d;
    acc.meu_dtlb += e.meu_dtlb;
    acc.others += e.others;
}
