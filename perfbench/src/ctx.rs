//! State shared by every workload of one run: its arguments, the tracer,
//! the output checks and the metrics it reports.

use crate::stats::{self, Stopwatch};
use crate::trace::Tracer;
use sim_core::{SimResult, TraceDigest};
use sim_power::cacti::{TABLE3_AMT, TABLE3_RMT, TABLE3_SLD};
use sim_power::{core_energy, ActiveUnits, EnergyParams, PowerBreakdown};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is timed for [`SETUP_TIMED_S`], and at least [`SETUP_MIN_REPS`]
/// times, before the first round, then again for [`SETUP_ROUND_S`] after
/// every round; `setup_s` is the median of them all. Spread over the run,
/// the set-ups see the host speed the rounds see, and no one slow
/// file-system call or page-fault burst sets the median.
pub const SETUP_TIMED_S: f64 = 1.0;
pub const SETUP_ROUND_S: f64 = 0.1;
pub const SETUP_MIN_REPS: usize = 9;

/// Set-up runs untimed this long first: the first milliseconds of a
/// process run up to four times slower on the reference host (cold caches,
/// page faults, the vCPU coming up to speed), which users of a long run
/// never see again.
pub const SETUP_WARMUP_S: f64 = 0.25;

/// Every run measures at least this many rounds, however long a round is.
pub const MIN_ROUNDS: usize = 2;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Operations (checked outputs) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Fold of every simulated count the run produced: equal across runs,
    /// seeds aside, and between traced and untraced runs.
    pub sim_digest: TraceDigest,
    /// Scratch directory for this run inside the checkout.
    pub work: PathBuf,
    /// How many times [`Ctx::setup`] ran its closure, warm-up included.
    pub setup_calls: usize,
    /// Wall seconds of every timed set-up.
    setup_times: Vec<f64>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, work: PathBuf) -> Self {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            sim_digest: TraceDigest::new(),
            work,
            setup_calls: 0,
            setup_times: Vec::new(),
        }
    }

    /// Counts one checked operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// The output checks every simulated cell must pass: the functional
    /// oracle (`SimResult::verify`), the requested run length reached by
    /// every thread, and no more loads eliminated than retired.
    ///
    /// The core retires whole cycles and stops at the end of the first
    /// cycle in which every thread has reached the target, so the last
    /// thread to get there overshoots by less than one retire width, and
    /// in SMT2 the faster thread runs on until then: each thread retires
    /// at least `per_thread`, and the slowest fewer than `per_thread` plus
    /// the retire width.
    pub fn check_cell(&mut self, label: &str, r: &SimResult, per_thread: u64) {
        let v = r.verify();
        self.check(v.is_ok(), || format!("{label}: verify: {v:?}"));
        let width = u64::from(sim_core::CoreConfig::golden_cove_like().retire_width);
        let slowest = r.retired_per_thread.iter().copied().min().unwrap_or(0);
        self.check(
            slowest >= per_thread && slowest < per_thread + width,
            || {
                format!(
                    "{label}: retired {:?}, want {per_thread} per thread",
                    r.retired_per_thread
                )
            },
        );
        let s = &r.stats;
        self.check(s.loads_eliminated <= s.retired_loads, || {
            format!(
                "{label}: {} loads eliminated of {} retired",
                s.loads_eliminated, s.retired_loads
            )
        });
    }

    /// Folds a cell into the run's `sim-digest`. Workloads record their
    /// first round's cells only, so the digest does not depend on how many
    /// rounds the host managed.
    pub fn record(&mut self, r: &SimResult) {
        self.sim_digest.update(r.stats_digest());
    }

    /// `core_energy` of a cell. A Constable cell is checked against the
    /// paper's accounting (§8.2, Table 3), recomputed here from the cell's
    /// counts: SLD reads and writes and RMT accesses land in the RAT
    /// component, AMT probes in L1-D, and every unit but these and Others
    /// costs what the same counts cost without Constable. Others must grow
    /// by the structures' leakage; its amount is not pinned, because the
    /// model adds it 1000× too small (CHANGES.md, FOUND).
    pub fn energy(&mut self, label: &str, r: &SimResult, constable: bool) -> PowerBreakdown {
        let p = EnergyParams::default();
        let units = |constable| ActiveUnits {
            constable,
            eves: false,
        };
        let e = self.tracer.span("sim-power", "core_energy", || {
            core_energy(&r.stats, units(constable), &p)
        });
        if !constable {
            return e;
        }
        let plain = core_energy(&r.stats, units(false), &p);
        let s = &r.stats;
        let f = |c: u64| c as f64;
        // Every load that executes writes its value to the SLD; the core
        // counts the SLD's other updates (arming and resets) itself.
        let sld_writes = s.sld_writes + s.retired_loads - s.loads_eliminated;
        let rat_nj = (f(s.sld_reads) * TABLE3_SLD.read_pj
            + f(sld_writes) * TABLE3_SLD.write_pj
            + f(s.sld_writes) * TABLE3_RMT.read_pj)
            / 1e3;
        let l1d_nj = f(s.amt_probes) * (TABLE3_AMT.read_pj + TABLE3_AMT.write_pj) / 2.0 / 1e3;
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * e.total();
        let ok = e.fe == plain.fe
            && e.ooo_rs == plain.ooo_rs
            && e.ooo_rob == plain.ooo_rob
            && e.eu == plain.eu
            && e.meu_dtlb == plain.meu_dtlb
            && close(e.ooo_rat - plain.ooo_rat, rat_nj)
            && close(e.meu_l1d - plain.meu_l1d, l1d_nj)
            && e.others > plain.others;
        self.check(ok, || {
            format!(
                "{label}: Constable energy {e:?} over {plain:?}, \
                 want RAT +{rat_nj} L1-D +{l1d_nj} nJ and some leakage"
            )
        });
        e
    }

    /// Runs `setup` untimed for [`SETUP_WARMUP_S`], then timed for
    /// [`SETUP_TIMED_S`] and at least [`SETUP_MIN_REPS`] times, and returns
    /// the last result.
    pub fn setup<T>(&mut self, setup: &mut impl FnMut(&mut Ctx) -> T) -> T {
        let warm = Instant::now();
        let mut out = self.timed_setup(setup).0;
        while warm.elapsed().as_secs_f64() < SETUP_WARMUP_S {
            drop(out);
            out = self.timed_setup(setup).0;
        }
        let timed = Instant::now();
        while self.setup_times.len() < SETUP_MIN_REPS
            || timed.elapsed().as_secs_f64() < SETUP_TIMED_S
        {
            drop(out);
            let (o, s) = self.timed_setup(setup);
            self.setup_times.push(s);
            out = o;
        }
        out
    }

    /// Times set-up again for [`SETUP_ROUND_S`] (at least once) after a
    /// round, dropping what it builds.
    pub fn resetup<T>(&mut self, setup: &mut impl FnMut(&mut Ctx) -> T) {
        let start = Instant::now();
        loop {
            let s = self.timed_setup(setup).1;
            self.setup_times.push(s);
            if start.elapsed().as_secs_f64() >= SETUP_ROUND_S {
                break;
            }
        }
    }

    fn timed_setup<T>(&mut self, setup: &mut impl FnMut(&mut Ctx) -> T) -> (T, f64) {
        self.setup_calls += 1;
        let sw = Stopwatch::start();
        let out = setup(self);
        (out, sw.read().0)
    }

    /// Median of the timed set-ups.
    pub fn setup_median(&self) -> f64 {
        stats::median(&self.setup_times).unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        // An empty f64 sum is -0.0; report it as 0.
        let v = v + 0.0;
        debug_assert!(
            crate::spec::metric(name).is_some(),
            "undeclared metric {name}"
        );
        if crate::spec::END_TO_END.iter().any(|m| m.name == name) {
            self.e2e.insert(name, v);
        } else {
            self.layers.insert(name, v);
        }
    }
}

/// Decides when a run has measured enough: at least [`MIN_ROUNDS`] whole
/// rounds, then no new round once `seconds` have passed.
pub struct Rounds {
    start: Instant,
    seconds: f64,
    done: usize,
}

impl Rounds {
    pub fn new(seconds: f64) -> Self {
        Rounds {
            start: Instant::now(),
            seconds,
            done: 0,
        }
    }

    /// Whether to start another round; counts the round it allows.
    pub fn another(&mut self) -> bool {
        let go = self.done < MIN_ROUNDS || self.start.elapsed().as_secs_f64() < self.seconds;
        if go {
            self.done += 1;
        }
        go
    }

    pub fn index(&self) -> usize {
        self.done - 1
    }
}

/// Wall and CPU seconds of each round, plus retired µops of the cells
/// simulated in it; reported as medians and a rate.
#[derive(Default)]
pub struct RoundTimes {
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    pub uops: u64,
}

impl RoundTimes {
    pub fn push(&mut self, (wall, cpu): (f64, f64), uops: u64) {
        self.wall.push(wall);
        self.cpu.push(cpu);
        self.uops += uops;
    }

    pub fn report(&self, ctx: &mut Ctx) {
        ctx.set("run_s", stats::median(&self.wall).unwrap_or(0.0));
        ctx.set("cpu_s", stats::median(&self.cpu).unwrap_or(0.0));
        let wall: f64 = self.wall.iter().sum();
        ctx.set("sim_muops_per_s", self.uops as f64 / wall.max(1e-9) / 1e6);
    }
}
