//! Simulated-latency measurement helpers shared by every figure.
//!
//! Each helper dispatches on the process-wide [`Engine`] selector: the
//! thread-per-rank engine (`run_team`/`SimComm`) or the thread-free
//! polled engine (`run_polled_team`/`PolledComm`). Their rank bodies are
//! written once over [`kacc_comm::AsyncComm`] and driven by `block_on` on the
//! threads engine, so both engines run the same code and produce
//! bitwise-identical virtual latencies (pinned by the engine-equivalence
//! suite); the selector only changes wall-clock cost. Helpers whose bodies
//! are legacy blocking closures generic over `Comm` — the library
//! personas ([`library_ns`]), [`pairs_read_ns`], [`breakdown`] — always
//! run on the threads engine regardless of the selector.

use kacc_collectives::{
    allgather_async, alltoall_async, bcast_async, gatherv_async, scatterv_async, AllgatherAlgo,
    AlltoallAlgo, BcastAlgo, GatherAlgo, ScatterAlgo, Tuner,
};
use kacc_comm::{block_on, smcoll, Comm, CommExt, RemoteToken, Tag};
use kacc_machine::{run_polled_team_phantom, run_team_phantom, PolledComm, RankStats, SimComm};
use kacc_model::ArchProfile;
use kacc_mpi::baseline::{self, Library};
use kacc_numerics::stats;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which DES engine executes the simulated teams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One OS thread per simulated rank, condvar hand-offs (the
    /// original engine; required for legacy blocking closure bodies).
    Threads,
    /// Single-threaded kernel polling resumable rank tasks — no
    /// hand-off cost on wake-tied (0% fast-path) workloads.
    Polled,
}

impl Engine {
    /// Parse a `--engine` argument.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "threads" => Some(Engine::Threads),
            "polled" => Some(Engine::Polled),
            _ => None,
        }
    }

    /// Display name (matches the `--engine` argument spelling).
    pub fn label(self) -> &'static str {
        match self {
            Engine::Threads => "threads",
            Engine::Polled => "polled",
        }
    }
}

static ENGINE: AtomicU8 = AtomicU8::new(0);

/// Select the engine for all subsequent measurements (process-wide).
pub fn set_engine(e: Engine) {
    ENGINE.store(e as u8, Ordering::Relaxed);
}

/// The currently selected engine.
pub fn engine() -> Engine {
    match ENGINE.load(Ordering::Relaxed) {
        0 => Engine::Threads,
        _ => Engine::Polled,
    }
}

/// Run `f` on a simulated team and return the collective latency in
/// nanoseconds: ranks synchronize, run `f`, and the slowest rank's
/// elapsed virtual time is reported (the standard `MPI_Barrier` +
/// max-time measurement loop of collective benchmarks).
pub fn timed_team<F>(arch: &ArchProfile, p: usize, f: F) -> f64
where
    F: Fn(&mut SimComm) + Send + Sync + 'static,
{
    let (_, durs) = run_team_phantom(arch, p, move |comm| {
        smcoll::sm_barrier(comm).expect("barrier");
        let t0 = comm.time_ns();
        f(comm);
        comm.time_ns() - t0
    });
    durs.into_iter().max().expect("nonempty team") as f64
}

/// The collectives behind the engine-dispatched latency helpers.
#[derive(Debug, Clone, Copy)]
enum Timed {
    Scatter(ScatterAlgo),
    Gather(GatherAlgo),
    Allgather(AllgatherAlgo),
    Alltoall(AlltoallAlgo),
    Bcast(BcastAlgo),
}

/// One rank of [`timed`]: synchronize, run the collective (root 0),
/// and return this rank's elapsed virtual ns. Written once over
/// [`kacc_comm::AsyncComm`], so both engines run the same body.
async fn timed_body<C: kacc_comm::AsyncComm + ?Sized>(
    comm: &mut C,
    p: usize,
    eta: usize,
    coll: Timed,
) -> u64 {
    smcoll::sm_barrier_async(comm).await.expect("barrier");
    let t0 = comm.time_ns();
    let me = comm.rank();
    let run = match coll {
        Timed::Scatter(algo) => {
            let sb = (me == 0).then(|| comm.alloc(p * eta));
            let rb = comm.alloc(eta);
            scatterv_async(comm, algo, sb, Some(rb), &vec![eta; p], None, 0).await
        }
        Timed::Gather(algo) => {
            let sb = comm.alloc(eta);
            let rb = (me == 0).then(|| comm.alloc(p * eta));
            gatherv_async(comm, algo, Some(sb), rb, &vec![eta; p], None, 0).await
        }
        Timed::Allgather(algo) => {
            let sb = comm.alloc(eta);
            let rb = comm.alloc(p * eta);
            allgather_async(comm, algo, Some(sb), rb, eta).await
        }
        Timed::Alltoall(algo) => {
            let sb = comm.alloc(p * eta);
            let rb = comm.alloc(p * eta);
            alltoall_async(comm, algo, Some(sb), rb, eta).await
        }
        Timed::Bcast(algo) => {
            let buf = comm.alloc(eta);
            bcast_async(comm, algo, buf, eta, 0).await
        }
    };
    run.unwrap_or_else(|e| panic!("{coll:?}: {e}"));
    comm.time_ns() - t0
}

/// Latency of `coll` on the selected engine: the slowest rank's
/// [`timed_body`] time, ns.
fn timed(arch: &ArchProfile, p: usize, eta: usize, coll: Timed) -> f64 {
    let durs = match engine() {
        Engine::Threads => {
            run_team_phantom(arch, p, move |comm| {
                block_on(timed_body(comm, p, eta, coll))
            })
            .1
        }
        Engine::Polled => {
            run_polled_team_phantom(arch, p, move |rank| async move {
                timed_body(&mut PolledComm::new(rank), p, eta, coll).await
            })
            .1
        }
    };
    durs.into_iter().max().expect("nonempty team") as f64
}

/// Scatter latency (root 0), ns.
pub fn scatter_ns(arch: &ArchProfile, p: usize, eta: usize, algo: ScatterAlgo) -> f64 {
    timed(arch, p, eta, Timed::Scatter(algo))
}

/// Gather latency (root 0), ns.
pub fn gather_ns(arch: &ArchProfile, p: usize, eta: usize, algo: GatherAlgo) -> f64 {
    timed(arch, p, eta, Timed::Gather(algo))
}

/// Allgather latency, ns.
pub fn allgather_ns(arch: &ArchProfile, p: usize, eta: usize, algo: AllgatherAlgo) -> f64 {
    timed(arch, p, eta, Timed::Allgather(algo))
}

/// Alltoall latency, ns.
pub fn alltoall_ns(arch: &ArchProfile, p: usize, eta: usize, algo: AlltoallAlgo) -> f64 {
    timed(arch, p, eta, Timed::Alltoall(algo))
}

/// Bcast latency (root 0), ns.
pub fn bcast_ns(arch: &ArchProfile, p: usize, eta: usize, algo: BcastAlgo) -> f64 {
    timed(arch, p, eta, Timed::Bcast(algo))
}

/// Which collective a library persona runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coll {
    /// MPI_Bcast.
    Bcast,
    /// MPI_Scatter.
    Scatter,
    /// MPI_Gather.
    Gather,
    /// MPI_Allgather.
    Allgather,
    /// MPI_Alltoall.
    Alltoall,
}

impl Coll {
    /// All five evaluated collectives, in Table VI order.
    pub fn all() -> [Coll; 5] {
        [
            Coll::Bcast,
            Coll::Scatter,
            Coll::Gather,
            Coll::Allgather,
            Coll::Alltoall,
        ]
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Coll::Bcast => "Bcast",
            Coll::Scatter => "Scatter",
            Coll::Gather => "Gather",
            Coll::Allgather => "Allgather",
            Coll::Alltoall => "Alltoall",
        }
    }
}

/// Latency of `coll` under a library persona, ns.
pub fn library_ns(arch: &ArchProfile, p: usize, eta: usize, coll: Coll, lib: Library) -> f64 {
    let tuner_arch = arch.clone();
    timed_team(arch, p, move |comm| {
        let tuner = Tuner::new(&tuner_arch);
        let me = comm.rank();
        match coll {
            Coll::Bcast => {
                let buf = comm.alloc(eta);
                baseline::bcast(comm, lib, &tuner, buf, eta, 0).expect("bcast");
            }
            Coll::Scatter => {
                let sb = (me == 0).then(|| comm.alloc(p * eta));
                let rb = comm.alloc(eta);
                baseline::scatter(comm, lib, &tuner, sb, Some(rb), eta, 0).expect("scatter");
            }
            Coll::Gather => {
                let sb = comm.alloc(eta);
                let rb = (me == 0).then(|| comm.alloc(p * eta));
                baseline::gather(comm, lib, &tuner, Some(sb), rb, eta, 0).expect("gather");
            }
            Coll::Allgather => {
                let sb = comm.alloc(eta);
                let rb = comm.alloc(p * eta);
                baseline::allgather(comm, lib, &tuner, Some(sb), rb, eta).expect("allgather");
            }
            Coll::Alltoall => {
                let sb = comm.alloc(p * eta);
                let rb = comm.alloc(p * eta);
                baseline::alltoall(comm, lib, &tuner, Some(sb), rb, eta).expect("alltoall");
            }
        }
    })
}

/// Per-reader latency of the One-to-all access pattern: `readers` ranks
/// concurrently read `eta` bytes from rank 0 (same buffer region or
/// per-reader regions), ns (mean over readers). The Fig 2(b)/(c) and
/// Fig 3 microbenchmark.
pub fn one_to_all_read_ns(
    arch: &ArchProfile,
    readers: usize,
    eta: usize,
    same_region: bool,
) -> f64 {
    let lats = one_to_all_read_lats(arch, readers, eta, same_region);
    stats::mean(&lats).expect("nonempty reader set")
}

/// Per-reader latencies behind [`one_to_all_read_ns`], one entry per
/// reader in rank order, ns. Exposed so summaries can report percentile
/// spread (p50/p95/p99) on top of the mean.
pub fn one_to_all_read_lats(
    arch: &ArchProfile,
    readers: usize,
    eta: usize,
    same_region: bool,
) -> Vec<f64> {
    let durs = match engine() {
        Engine::Threads => {
            run_team_phantom(arch, readers + 1, move |comm| {
                block_on(one_to_all_body(comm, readers, eta, same_region))
            })
            .1
        }
        Engine::Polled => {
            run_polled_team_phantom(arch, readers + 1, move |rank| async move {
                one_to_all_body(&mut PolledComm::new(rank), readers, eta, same_region).await
            })
            .1
        }
    };
    durs.iter().skip(1).map(|&d| d as f64).collect()
}

/// One rank of [`one_to_all_read_lats`]: rank 0 exposes its buffer and
/// waits for every reader; reader `r` returns its read latency.
async fn one_to_all_body<C: kacc_comm::AsyncComm + ?Sized>(
    comm: &mut C,
    readers: usize,
    eta: usize,
    same_region: bool,
) -> u64 {
    let me = comm.rank();
    if me == 0 {
        let len = if same_region { eta } else { eta * readers };
        let buf = comm.alloc(len);
        let tok = comm.expose(buf).await.expect("expose");
        for r in 1..=readers {
            comm.ctrl_send(r, Tag::user(1), &tok.to_bytes())
                .await
                .expect("send");
        }
        for r in 1..=readers {
            comm.ctrl_recv(r, Tag::user(2)).await.expect("done");
        }
        0
    } else {
        let raw = comm.ctrl_recv(0, Tag::user(1)).await.expect("token");
        let tok = RemoteToken::from_bytes(&raw).expect("token bytes");
        let dst = comm.alloc(eta);
        let off = if same_region { 0 } else { (me - 1) * eta };
        let t0 = comm.time_ns();
        comm.cma_read(tok, off, dst, 0, eta).await.expect("read");
        let d = comm.time_ns() - t0;
        comm.ctrl_send(0, Tag::user(2), &[]).await.expect("notify");
        d
    }
}

/// Per-reader latency of the All-to-all access pattern: `pairs`
/// disjoint (reader, source) pairs, ns (mean). Fig 2(a).
pub fn pairs_read_ns(arch: &ArchProfile, pairs: usize, eta: usize) -> f64 {
    let (_, durs) = run_team_phantom(arch, 2 * pairs, move |comm| {
        let me = comm.rank();
        if me % 2 == 0 {
            let buf = comm.alloc(eta);
            let tok = comm.expose(buf).expect("expose");
            comm.ctrl_send(me + 1, Tag::user(1), &tok.to_bytes())
                .expect("send");
            comm.wait_notify(me + 1, Tag::user(2)).expect("done");
            0u64
        } else {
            let raw = comm.ctrl_recv(me - 1, Tag::user(1)).expect("token");
            let tok = RemoteToken::from_bytes(&raw).expect("token bytes");
            let dst = comm.alloc(eta);
            let t0 = comm.time_ns();
            comm.cma_read(tok, 0, dst, 0, eta).expect("read");
            let d = comm.time_ns() - t0;
            comm.notify(me - 1, Tag::user(2)).expect("notify");
            d
        }
    });
    let lats: Vec<f64> = durs.iter().skip(1).step_by(2).map(|&d| d as f64).collect();
    stats::mean(&lats).expect("nonempty pair set")
}

/// Wake-storm diagnostics from one instrumented barrier+allgather run —
/// the broadcast-wake pressure the coalescing work in PR 6 targets. All
/// fields are virtual-time/count quantities, so a probe is bitwise
/// identical on both engines (pinned by [`tests::wake_storm_engine_invariant`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WakeStorm {
    /// Engine the probe ran on (`threads` / `polled`).
    pub engine: &'static str,
    /// Barrier+allgather iterations executed.
    pub iterations: u64,
    /// Kernel events dispatched by the run.
    pub events: u64,
    /// `events / iterations`: DES cost of one barrier+allgather round.
    pub events_per_barrier: f64,
    /// Event-queue length high-water mark.
    pub peak_queue_len: u64,
    /// Largest single `wake_at` flush fan-out (threads woken at once).
    pub wake_fanout_max: u64,
    /// Mean `wake_at` flush fan-out.
    pub wake_fanout_mean: f64,
    /// Wake requests before coalescing.
    pub wakes_raw: u64,
    /// Wake requests dropped as already-pending duplicates.
    pub wakes_coalesced: u64,
}

/// Run `iters` rounds of dissemination barrier + Bruck allgather on a
/// `p`-rank team (`eta` bytes per rank) and report the wake-storm
/// diagnostics carried back on the `TeamRun`.
pub fn wake_storm_probe(
    arch: &ArchProfile,
    p: usize,
    eta: usize,
    iters: usize,
    engine: Engine,
) -> WakeStorm {
    // Written once over `AsyncComm`, so both engines run the same body.
    async fn body<C: kacc_comm::AsyncComm + ?Sized>(
        comm: &mut C,
        p: usize,
        eta: usize,
        iters: usize,
    ) {
        let sb = comm.alloc(eta);
        let rb = comm.alloc(p * eta);
        for _ in 0..iters {
            smcoll::sm_barrier_async(comm).await.expect("barrier");
            allgather_async(comm, AllgatherAlgo::Bruck, Some(sb), rb, eta)
                .await
                .expect("allgather");
        }
    }
    let run = match engine {
        Engine::Threads => {
            run_team_phantom(arch, p, move |comm| block_on(body(comm, p, eta, iters))).0
        }
        Engine::Polled => {
            run_polled_team_phantom(arch, p, move |rank| async move {
                body(&mut PolledComm::new(rank), p, eta, iters).await
            })
            .0
        }
    };
    let fanout = &run.sim.wake_fanout;
    WakeStorm {
        engine: engine.label(),
        iterations: iters as u64,
        events: run.events,
        events_per_barrier: run.events as f64 / (iters as f64).max(1.0),
        peak_queue_len: run.sim.queue_len_hwm,
        wake_fanout_max: fanout.max(),
        wake_fanout_mean: fanout.mean().unwrap_or(0.0),
        wakes_raw: run.sim.wakes_raw,
        wakes_coalesced: run.sim.wakes_coalesced,
    }
}

/// Aggregate step breakdown of `readers` concurrent reads of `pages`
/// pages each from rank 0 (per-reader mean), the Fig 4 experiment.
pub fn breakdown(arch: &ArchProfile, readers: usize, pages: usize) -> RankStats {
    let eta = pages * arch.page_size;
    let (run, _) = run_team_phantom(arch, readers + 1, move |comm| {
        if comm.rank() == 0 {
            let buf = comm.alloc(eta * readers);
            let tok = comm.expose(buf).expect("expose");
            for r in 1..=readers {
                comm.ctrl_send(r, Tag::user(1), &tok.to_bytes())
                    .expect("send");
            }
            for r in 1..=readers {
                comm.wait_notify(r, Tag::user(2)).expect("done");
            }
        } else {
            let raw = comm.ctrl_recv(0, Tag::user(1)).expect("token");
            let tok = RemoteToken::from_bytes(&raw).expect("token bytes");
            let dst = comm.alloc(eta);
            comm.cma_read(tok, (comm.rank() - 1) * eta, dst, 0, eta)
                .expect("read");
            comm.notify(0, Tag::user(2)).expect("notify");
        }
    });
    let mut total = RankStats::default();
    for s in run.stats.iter().skip(1) {
        total.merge(s);
    }
    RankStats {
        syscall_ns: total.syscall_ns / readers as f64,
        check_ns: total.check_ns / readers as f64,
        lock_ns: total.lock_ns / readers as f64,
        pin_ns: total.pin_ns / readers as f64,
        copy_ns: total.copy_ns / readers as f64,
        cma_ops: total.cma_ops / readers as u64,
        bytes_read: total.bytes_read / readers as u64,
        bytes_written: total.bytes_written / readers as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_team_reports_positive_latency() {
        let arch = ArchProfile::broadwell();
        let t = scatter_ns(&arch, 8, 64 << 10, ScatterAlgo::SequentialWrite);
        assert!(t > 0.0);
    }

    /// Every engine-dispatched helper reports the identical virtual
    /// latency on both engines (the measurement-level face of the
    /// engine-equivalence suite). Serialized via explicit set_engine
    /// calls around each probe; the selector is process-wide, so this
    /// test restores Threads before returning.
    #[test]
    fn measurements_identical_on_both_engines() {
        let arch = ArchProfile::broadwell();
        let eta = 32 << 10;
        type Probe = (&'static str, Box<dyn Fn() -> f64>);
        let probes: Vec<Probe> = vec![
            (
                "scatter",
                Box::new(move || {
                    scatter_ns(
                        &ArchProfile::broadwell(),
                        6,
                        eta,
                        ScatterAlgo::ThrottledRead { k: 2 },
                    )
                }),
            ),
            (
                "gather",
                Box::new(move || {
                    gather_ns(&ArchProfile::broadwell(), 6, eta, GatherAlgo::ParallelWrite)
                }),
            ),
            (
                "allgather",
                Box::new(move || {
                    allgather_ns(&ArchProfile::broadwell(), 6, eta, AllgatherAlgo::Bruck)
                }),
            ),
            (
                "alltoall",
                Box::new(move || {
                    alltoall_ns(&ArchProfile::broadwell(), 6, eta, AlltoallAlgo::Pairwise)
                }),
            ),
            (
                "bcast",
                Box::new(move || {
                    bcast_ns(
                        &ArchProfile::broadwell(),
                        6,
                        eta,
                        BcastAlgo::KNomial { radix: 2 },
                    )
                }),
            ),
            (
                "one_to_all",
                Box::new(move || one_to_all_read_ns(&ArchProfile::broadwell(), 6, eta, false)),
            ),
        ];
        let _ = arch;
        for (name, probe) in &probes {
            set_engine(Engine::Threads);
            let t = probe();
            set_engine(Engine::Polled);
            let q = probe();
            set_engine(Engine::Threads);
            assert_eq!(t, q, "{name}: engines disagree (threads {t} vs polled {q})");
        }
    }

    /// The wake-storm probe carries only virtual-time/count diagnostics,
    /// so both engines must report the identical storm.
    #[test]
    fn wake_storm_engine_invariant() {
        let arch = ArchProfile::broadwell();
        let t = wake_storm_probe(&arch, 6, 4 << 10, 3, Engine::Threads);
        let p = wake_storm_probe(&arch, 6, 4 << 10, 3, Engine::Polled);
        assert_eq!(t.events, p.events);
        assert_eq!(t.peak_queue_len, p.peak_queue_len);
        assert_eq!(t.wake_fanout_max, p.wake_fanout_max);
        assert_eq!(t.wake_fanout_mean, p.wake_fanout_mean);
        assert_eq!(t.wakes_raw, p.wakes_raw);
        assert_eq!(t.wakes_coalesced, p.wakes_coalesced);
        assert!(t.events > 0, "probe dispatched no events");
        assert!(t.peak_queue_len > 0, "queue high-water never moved");
        assert!(t.wake_fanout_max >= 1, "no wake flushes observed");
    }

    #[test]
    fn one_to_all_contention_visible() {
        let arch = ArchProfile::knl();
        let t1 = one_to_all_read_ns(&arch, 1, 256 << 10, false);
        let t16 = one_to_all_read_ns(&arch, 16, 256 << 10, false);
        assert!(t16 > 3.0 * t1, "t16 {t16} vs t1 {t1}");
        // Same-region reads contend at least as much.
        let t16s = one_to_all_read_ns(&arch, 16, 256 << 10, true);
        assert!(t16s > 3.0 * t1);
    }

    #[test]
    fn pairs_scale_flat() {
        let arch = ArchProfile::knl();
        let t1 = pairs_read_ns(&arch, 1, 64 << 10);
        let t8 = pairs_read_ns(&arch, 8, 64 << 10);
        assert!(t8 < 2.5 * t1, "t8 {t8} vs t1 {t1}");
    }

    #[test]
    fn breakdown_is_lock_dominated_under_contention() {
        // Fig 4's message: with concurrency, lock time dominates.
        let arch = ArchProfile::broadwell();
        let solo = breakdown(&arch, 1, 128);
        let packed = breakdown(&arch, 27, 128);
        assert!(packed.lock_ns > solo.lock_ns * 5.0);
        assert!(
            packed.lock_ns > packed.copy_ns,
            "lock {} should dominate copy {}",
            packed.lock_ns,
            packed.copy_ns
        );
    }

    #[test]
    fn library_dispatch_runs_all_collectives() {
        let arch = ArchProfile::broadwell();
        for coll in Coll::all() {
            let t = library_ns(&arch, 6, 32 << 10, coll, Library::Kacc);
            assert!(t > 0.0, "{coll:?}");
        }
        let t = library_ns(&arch, 6, 32 << 10, Coll::Gather, Library::IntelMpi);
        assert!(t > 0.0);
    }
}
