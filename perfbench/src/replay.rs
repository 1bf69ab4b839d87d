//! Layer replay for the traced run: the layers only `sim-core` calls
//! (sim-mem, the predictors, Constable) are fed a workload's own functional
//! stream (`Machine::step`) through their public APIs, one layer per pass,
//! so each pass's span time divided by its operation count is that
//! layer's cost per operation.

use crate::ctx::Ctx;
use constable::{Constable, ConstableConfig, LoadRename, StackState};
use sim_isa::{DynInst, OpKind};
use sim_mem::{EvictionSink, MemConfig, MemoryHierarchy};
use sim_predictors::{Eves, Mrn, Tage};
use sim_workload::{Machine, Program};
use std::hint::black_box;

#[derive(Default)]
struct Ops {
    insts: u64,
    mem: u64,
    branches: u64,
    loads: u64,
}

/// Replays `n` instructions of each program and records the per-operation
/// costs as per-layer metrics.
pub fn replay(ctx: &mut Ctx, programs: &[&Program], n: u64) {
    let t = &ctx.tracer;
    let mut ops = Ops::default();
    for &p in programs {
        let recs: Vec<DynInst> = t.span("sim-workload", "Machine::step", || {
            let mut m = Machine::new(p);
            (0..n).map(|_| m.step()).collect()
        });
        ops.insts += recs.len() as u64;

        t.span("sim-mem", "load/store_commit", || {
            let mut h = MemoryHierarchy::new(MemConfig::default());
            let mut sink = EvictionSink::new(false);
            for (now, r) in recs.iter().enumerate() {
                match (&p.inst(r.sidx).kind, r.mem) {
                    (OpKind::Load { .. }, Some(m)) => {
                        black_box(h.load(r.pc.0, m.addr, now as u64, &mut sink));
                        ops.mem += 1;
                    }
                    (OpKind::Store { .. }, Some(m)) => {
                        black_box(h.store_commit(m.addr, now as u64, &mut sink));
                        ops.mem += 1;
                    }
                    _ => {}
                }
            }
        });

        t.span("sim-predictors", "Tage::predict/update", || {
            let mut tage = Tage::new();
            for r in &recs {
                if let OpKind::Branch(_) = p.inst(r.sidx).kind {
                    black_box(tage.predict(r.pc.0));
                    tage.update(r.pc.0, r.taken);
                    ops.branches += 1;
                }
            }
        });

        t.span("sim-predictors", "Eves::predict/train", || {
            let mut eves = Eves::new();
            let mut history = 0u64;
            for r in &recs {
                match (&p.inst(r.sidx).kind, r.mem) {
                    (OpKind::Branch(_), _) => history = (history << 1) | u64::from(r.taken),
                    (OpKind::Load { .. }, Some(m)) => {
                        black_box(eves.predict(r.pc.0, history, 0));
                        eves.train(r.pc.0, history, m.value);
                        ops.loads += 1;
                    }
                    _ => {}
                }
            }
        });

        t.span("sim-predictors", "Mrn::on_load/on_store", || {
            let mut mrn = Mrn::new();
            for r in &recs {
                match (&p.inst(r.sidx).kind, r.mem) {
                    (OpKind::Load { .. }, Some(m)) => mrn.on_load(r.pc.0, m.addr),
                    (OpKind::Store { .. }, Some(m)) => mrn.on_store(r.pc.0, m.addr),
                    _ => {}
                }
            }
            black_box(&mrn);
        });

        t.span(
            "constable",
            "rename_load/on_load_writeback/on_store_addr",
            || {
                let mut c = Constable::new(ConstableConfig::paper());
                let st = StackState::default();
                for r in &recs {
                    let inst = p.inst(r.sidx);
                    match (&inst.kind, r.mem) {
                        (OpKind::Load { mem, .. }, Some(m)) => match c.rename_load(r.pc.0, mem, st)
                        {
                            LoadRename::Eliminated { slot, .. } => c.free_xprf(slot),
                            rename => {
                                let likely = rename == LoadRename::LikelyStable;
                                black_box(
                                    c.on_load_writeback(r.pc.0, mem, m.addr, m.value, likely, st),
                                );
                            }
                        },
                        (OpKind::Store { .. }, Some(m)) => c.on_store_addr(m.addr),
                        _ => {}
                    }
                    if let Some(dst) = inst.dst {
                        c.on_dest_write(dst, false);
                    }
                }
                black_box(c.stats().eliminated);
            },
        );
    }

    let spans = t.spans();
    let per = |layer: &str, name: &str, count: u64| {
        crate::trace::total_s(&spans, layer, name) * 1e9 / count.max(1) as f64
    };
    let loads_mem = ops.mem.max(1);
    let v = [
        (
            "sim-workload.exec_ns_per_inst",
            per("sim-workload", "Machine::step", ops.insts),
        ),
        (
            "sim-mem.ns_per_access",
            per("sim-mem", "load/store_commit", loads_mem),
        ),
        (
            "sim-predictors.tage_ns_per_branch",
            per("sim-predictors", "Tage::predict/update", ops.branches),
        ),
        (
            "sim-predictors.eves_ns_per_load",
            per("sim-predictors", "Eves::predict/train", ops.loads),
        ),
        (
            "sim-predictors.mrn_ns_per_mem",
            per("sim-predictors", "Mrn::on_load/on_store", loads_mem),
        ),
        (
            "constable.rename_ns_per_load",
            per(
                "constable",
                "rename_load/on_load_writeback/on_store_addr",
                ops.loads,
            ),
        ),
    ];
    for (name, value) in v {
        ctx.set(name, value);
    }
}
