//! `served-replay`: an in-process `sweep-server` on a fresh store with
//! interval checkpointing, driven by one closed-loop client connection.
//! Each round starts a server on an empty store, asks for every cell once
//! (cold: the server simulates, writes records, journal entries and
//! checkpoints), then asks again for every cell [`WARM_PASSES`] times
//! (warm: answered from the store).
//!
//! The client speaks the wire protocol (`wire::write_frame`/`read_frame`)
//! over one connection for the whole round. `wire::run_request` opens a
//! connection per request, and each new connection waits for the server's
//! accept loop, which sleeps 25 ms whenever it finds none waiting: a warm
//! cell through it takes ~25 ms whatever the store does (README.md,
//! Findings).

use crate::ctx::{Ctx, RoundTimes, Rounds};
use crate::stats::{self, SeedStream, Stopwatch};
use constable::IdealOracle;
use experiments::wire::{read_frame, write_frame, CellReply, CellStatus, Frame, PROTO_VERSION};
use experiments::{decode_outcome, store_key, MachineKind, RunLength, WATCHDOG_BUDGET};
use result_store::{GetOutcome, ResultStore};
use sim_core::{Core, SimResult, SimScratch};
use sim_workload::{Program, WorkloadSpec};
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;
use sweep_server::{Server, ServerConfig};

/// Suite traces served per run: two per category, drawn by seed.
const PER_CATEGORY: usize = 2;
/// Machines asked for on every served trace (Fig 19's matrix).
const KINDS: [MachineKind; 2] = [MachineKind::Baseline, MachineKind::Constable];
/// Warm passes per round over every cell.
const WARM_PASSES: usize = 4;
/// Server checkpoint interval in core loop iterations: a full-length cell
/// snapshots a few times.
const CKPT_INTERVAL: u64 = 50_000;

/// One closed-loop client connection.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_nodelay(true)?;
        write_frame(
            &mut stream,
            &Frame::Hello {
                proto: PROTO_VERSION,
            },
        )?;
        match read_frame(&mut stream)? {
            Frame::HelloAck { proto } if proto == PROTO_VERSION => Ok(Client { stream }),
            other => Err(io::Error::other(format!(
                "expected HELLO_ACK, got {other:?}"
            ))),
        }
    }

    /// Sends one request and reads its cells up to the `Done` frame.
    fn request(&mut self, req: &Frame) -> io::Result<(Vec<CellReply>, Frame)> {
        write_frame(&mut self.stream, req)?;
        let mut cells = Vec::new();
        loop {
            match read_frame(&mut self.stream)? {
                Frame::Cell(c) => cells.push(c),
                done @ Frame::Done { .. } => return Ok((cells, done)),
                other => return Err(io::Error::other(format!("unexpected {other:?}"))),
            }
        }
    }
}

/// One request for one cell, timed, with the `Done` frame's totals checked.
fn ask(
    ctx: &mut Ctx,
    client: &mut Client,
    spec: &WorkloadSpec,
    kind: MachineKind,
) -> (f64, Option<CellReply>) {
    let job = Frame::Job {
        workload: spec.name.clone(),
        slug: kind.slug().to_string(),
        deadline_ms: 0,
    };
    let sw = Stopwatch::start();
    let r = ctx
        .tracer
        .span("experiments", "wire::write_frame/read_frame", || {
            client.request(&job)
        });
    let ms = sw.read().0 * 1e3;
    let label = format!("{} on {}", spec.name, kind.slug());
    let (cells, done) = match r {
        Ok(r) => r,
        Err(e) => {
            ctx.check(false, || format!("{label}: request failed: {e}"));
            return (ms, None);
        }
    };
    let totals_ok = matches!(done, Frame::Done { total, computed, from_store, failed }
        if total == computed + from_store + failed && total == 1);
    ctx.check(totals_ok, || format!("{label}: {done:?}"));
    let cell = cells.into_iter().next();
    ctx.check(
        cell.as_ref()
            .is_some_and(|c| c.status != CellStatus::Failed),
        || format!("{label}: no clean cell in the reply"),
    );
    (ms, cell)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn run(ctx: &mut Ctx) {
    let n = RunLength::full();
    let specs = crate::figures::draw(ctx.seed ^ 0x5e7e, PER_CATEGORY);
    let cells: Vec<(usize, MachineKind)> = (0..specs.len())
        .flat_map(|i| KINDS.iter().map(move |&k| (i, k)))
        .collect();
    // The cell recomputed in-process each round, through checkpoint and
    // restore, against the server's digest.
    let sample = cells[SeedStream::new(ctx.seed ^ 0xc4).below(cells.len())];

    // Set-up is building the suite's programs (repeated, median) plus, per
    // round, starting a server on an empty store (median over rounds);
    // connecting to it is not.
    let full = sim_workload::suite();
    let mut setup = |ctx: &mut Ctx| crate::figures::prepare(ctx, &full, &specs, None).programs;
    let programs = ctx.setup(&mut setup);

    let mut times = RoundTimes::default();
    let mut setups = Vec::new();
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<CellReply>> = None;
    let mut outcomes: Vec<SimResult> = Vec::new();
    let (mut encode_ms, mut restore_ms) = (Vec::new(), Vec::new());
    let (mut get_ms, mut put_ms) = (Vec::new(), Vec::new());
    let mut rounds = Rounds::new(ctx.seconds);
    while rounds.another() {
        let round = rounds.index();
        let dir = ctx.work.join(format!("round{round}"));
        let store_dir = dir.join("store");

        // Per-round set-up: a fresh store directory and a server on it.
        let sw = Stopwatch::start();
        let _ = std::fs::remove_dir_all(&dir);
        let handle = ctx.tracer.span("sweep-server", "Server::spawn", || {
            Server::spawn(ServerConfig {
                shards: 1,
                run_length: n,
                store_dir: Some(store_dir.clone()),
                ckpt_interval: Some(CKPT_INTERVAL),
                ..ServerConfig::default()
            })
        });
        let handle = match handle {
            Ok(h) => h,
            Err(e) => {
                ctx.check(false, || {
                    format!("round {round}: server did not start: {e}")
                });
                continue;
            }
        };
        // Connecting is left out of set-up: the first HELLO waits on the
        // accept loop's poll sleep, which is not set-up work.
        setups.push(sw.read().0);
        let client = ctx
            .tracer
            .span("experiments", "wire: connect and HELLO", || {
                Client::connect(&handle.addr())
            });
        let mut client = match client {
            Ok(c) => c,
            Err(e) => {
                ctx.check(false, || format!("round {round}: connecting: {e}"));
                handle.drain();
                handle.join();
                continue;
            }
        };

        let sw = Stopwatch::start();
        let mut uops = 0;
        let mut cold = Vec::new();
        for &(i, kind) in &cells {
            let (ms, reply) = ask(ctx, &mut client, &specs[i], kind);
            cold_ms.push(ms);
            let computed = reply
                .as_ref()
                .is_some_and(|c| c.status == CellStatus::Computed);
            ctx.check(computed, || {
                format!("round {round}: cold cell not computed: {reply:?}")
            });
            uops += reply.as_ref().map_or(0, |c| c.retired);
            cold.push(reply);
        }
        for _ in 0..WARM_PASSES {
            for (c, &(i, kind)) in cells.iter().enumerate() {
                let (ms, reply) = ask(ctx, &mut client, &specs[i], kind);
                warm_ms.push(ms);
                let same = match (&reply, &cold[c]) {
                    (Some(w), Some(c)) => {
                        w.status == CellStatus::FromStore && w.stats_digest == c.stats_digest
                    }
                    _ => false,
                };
                ctx.check(same, || format!("warm {reply:?} vs cold {:?}", cold[c]));
            }
        }
        times.push(sw.read(), uops);

        // Close the connection first: the drain waits for open ones.
        drop(client);
        let store_stats = handle
            .shared()
            .store
            .lock()
            .ok()
            .and_then(|s| s.as_ref().map(|s| s.stats()));
        handle.drain();
        let exit = ctx
            .tracer
            .span("sweep-server", "ServerHandle::join", || handle.join());
        ctx.check(exit.exit_code == 0 && exit.failed == 0, || {
            format!("server exit {exit:?}")
        });
        let cold: Vec<CellReply> = cold.into_iter().flatten().collect();
        match &first {
            Some(f) => ctx.check(*f == cold, || {
                format!("round {round}: cold replies differ from round 0")
            }),
            None => ctx.check(cold.len() == cells.len(), || {
                "a cold cell is missing".into()
            }),
        };

        // The records the server wrote: read back directly, checked against
        // the replies, and the payloads written again into a second store.
        let mut store = ResultStore::open_shared(&store_dir, None).ok();
        let mut copy = ResultStore::open(&dir.join("copy"), None).ok();
        ctx.check(store.is_some() && copy.is_some(), || {
            "opening the stores".into()
        });
        for (c, &(i, kind)) in cells.iter().enumerate() {
            let (Some(store), Some(copy)) = (store.as_mut(), copy.as_mut()) else {
                break;
            };
            let key = store_key(&[&specs[i]], &kind.config(IdealOracle::default()), n);
            let sw = Stopwatch::start();
            let got = ctx
                .tracer
                .span("result-store", "ResultStore::get", || store.get(&key));
            get_ms.push(sw.read().0 * 1e3);
            let GetOutcome::Hit {
                payload,
                stats_digest,
            } = got
            else {
                ctx.check(false, || format!("record for cell {c} missing: {got:?}"));
                continue;
            };
            let sw = Stopwatch::start();
            let put = ctx.tracer.span("result-store", "ResultStore::put", || {
                copy.put(&key, &payload, stats_digest)
            });
            put_ms.push(sw.read().0 * 1e3);
            ctx.check(put.is_ok(), || format!("put: {put:?}"));
            let decoded = decode_outcome(&payload);
            let ok = decoded.as_ref().is_ok_and(|o| {
                o.result.stats_digest() == stats_digest
                    && cold.get(c).is_some_and(|r| r.stats_digest == stats_digest)
            });
            ctx.check(ok, || {
                format!("record for cell {c} disagrees with its reply")
            });
            if let (Ok(o), true) = (decoded, first.is_none()) {
                ctx.check_cell(&o.workload, &o.result, n.0);
                ctx.record(&o.result);
                outcomes.push(o.result);
            }
        }
        if first.is_none() {
            let s = store_stats.unwrap_or_default();
            ctx.set("sweep-server.computed", exit.computed as f64);
            ctx.set("sweep-server.from_store", exit.store_hits as f64);
            ctx.set("sweep-server.retry_after", exit.sheds as f64);
            ctx.set("result-store.hits", s.hits as f64);
            ctx.set("result-store.ckpt_writes", s.ckpt_writes as f64);
            ctx.set("result-store.bytes_written", dir_bytes(&store_dir) as f64);
        }
        drop((store, copy));
        let _ = std::fs::remove_dir_all(&dir);

        // In-process recompute of the sample: run to the middle, checkpoint,
        // restore into a fresh core, finish; must match the served digest.
        let (i, kind) = sample;
        let mut cfg = kind.config(IdealOracle::default());
        cfg.watchdog_no_retire.get_or_insert(WATCHDOG_BUDGET);
        let mut core = Core::new(&programs[i], cfg.clone());
        let t = &ctx.tracer;
        t.span("sim-core", "Core::run_slice", || {
            core.run_slice(n.0, 40_000)
        });
        let sw = Stopwatch::start();
        let bytes = t.span("sim-core", "Core::checkpoint", || core.checkpoint());
        encode_ms.push(sw.read().0 * 1e3);
        drop(core);
        let sw = Stopwatch::start();
        let restored = t.span("sim-core", "Core::restore", || {
            Core::restore(vec![programs[i].as_ref()], cfg, SimScratch::new(), &bytes)
        });
        restore_ms.push(sw.read().0 * 1e3);
        ctx.set("sim-core.ckpt_bytes", bytes.len() as f64);
        let label = format!("{} on {} (restored)", specs[i].name, kind.slug());
        match restored {
            Ok(mut core) => {
                let r = ctx.tracer.span("sim-core", "Core::run", || core.run(n.0));
                ctx.check_cell(&label, &r, n.0);
                let c = cells
                    .iter()
                    .position(|&x| x == sample)
                    .expect("sample is a cell");
                let want = cold.get(c).map(|r| r.stats_digest);
                ctx.check(want == Some(r.stats_digest()), || {
                    format!("{label}: digest differs from the server's")
                });
            }
            Err(e) => {
                ctx.check(false, || format!("{label}: {e:?}"));
            }
        }
        first.get_or_insert(cold);
        ctx.resetup(&mut setup);
    }

    times.report(ctx);
    ctx.set(
        "setup_s",
        ctx.setup_median() + stats::median(&setups).unwrap_or(0.0),
    );
    ctx.set("cold_cell_p50_ms", stats::median(&cold_ms).unwrap_or(0.0));
    ctx.set("warm_cell_p50_ms", stats::median(&warm_ms).unwrap_or(0.0));
    ctx.set(
        "sweep-server.warm_cell_p90_ms",
        stats::tail(&warm_ms, 90.0).unwrap_or(0.0),
    );
    let pick = |kind: MachineKind| -> Vec<&SimResult> {
        cells
            .iter()
            .zip(&outcomes)
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, r)| r)
            .collect()
    };
    let all: Vec<&SimResult> = outcomes.iter().collect();
    if all.len() == cells.len() {
        crate::cells::report(
            ctx,
            &all,
            &pick(MachineKind::Baseline),
            &pick(MachineKind::Constable),
        );
    }

    ctx.set(
        "sim-core.ckpt_encode_ms",
        stats::median(&encode_ms).unwrap_or(0.0),
    );
    ctx.set(
        "sim-core.restore_ms",
        stats::median(&restore_ms).unwrap_or(0.0),
    );
    ctx.set(
        "result-store.get_ms_p50",
        stats::median(&get_ms).unwrap_or(0.0),
    );
    ctx.set(
        "result-store.put_ms_p50",
        stats::median(&put_ms).unwrap_or(0.0),
    );

    if ctx.tracer.enabled() {
        let progs: Vec<&Program> = programs.iter().map(|p| p.as_ref()).collect();
        crate::replay::replay(ctx, &progs, n.0);
    }
}
