//! `native-cma`: all six compiled collectives on `NativeComm` with real
//! `process_vm_readv`/`writev`, at p=2 forked ranks (never more than the
//! cores), tuner-picked algorithms, 4 KiB – 1 MiB, on one persistent team
//! per run.
//!
//! The parent process is the load generator's home: it sets up, forks the
//! team and reads results back from a shared mapping. Rank 0 drives the
//! closed loop: every collective starts after the previous one returned
//! on both ranks and was checked.

use crate::check::{self, Kind};
use crate::common::{self, Calib, Cfg, Outcome};
use crate::contended::{sim_figures, SIZES};
use crate::probes::{self, PlanCost};
use crate::simrun::{self, Algo, Shape};
use crate::survivable;
use crate::trace;
use crate::util::{median, peak_rss_bytes, quantile, tail_q, Rng};
use kacc_collectives::{
    allgather, alltoall, bcast, gather, reduce, scatter, Dtype, PlanCache, ReduceOp, Tuner,
};
use kacc_comm::{BufId, Comm, CommError, CommExt, RemoteToken, Tag};
use kacc_model::ArchProfile;
use kacc_native::shm::ShmRegion;
use kacc_native::team::run_forked_collect;
use kacc_native::NativeComm;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Forked ranks.
pub const P: usize = 2;
const TAG_LAT: u32 = 71;
const TAG_GO: u32 = 72;
const TAG_PROBE: u32 = 73;

// Shared result words.
const N_SAMPLES: usize = 0;
const ROUNDS: usize = 1;
const VERIFY_ERRS: usize = 2;
const COLL_ERRS: usize = 3;
const RSS0: usize = 4;
const RING_NS: usize = 6;
const BARRIER_NS: usize = 7;
const CMA_READ_NS: usize = 8;
const PHASE0: usize = 9; // barrier, collective, verify, exchange (traced rounds)
const SCALE_BITS: usize = 13; // the run's calibration factor, f64 bits
const HEADER: usize = 16;
const ROUND_CAP: usize = 1 << 14;
const SAMPLE_CAP: usize = 1 << 19;
const SAMPLE_WORDS: usize = 3; // shape, latency ns, loop-iteration ns
const TRACED_BIT: u64 = 1 << 63;

struct Results(ShmRegion);

impl Results {
    fn new() -> Result<Results, String> {
        let words = HEADER + ROUND_CAP + SAMPLE_CAP * SAMPLE_WORDS;
        ShmRegion::new(words * 8)
            .map(Results)
            .map_err(|e| format!("shm: {e}"))
    }

    fn word(&self, i: usize) -> &AtomicU64 {
        // SAFETY: in-bounds (checked by `at`), 8-aligned within a
        // page-aligned mapping, shared between parent and children.
        unsafe { &*(self.0.at(i * 8, 8) as *const AtomicU64) }
    }

    fn get(&self, i: usize) -> u64 {
        self.word(i).load(Ordering::SeqCst)
    }

    fn set(&self, i: usize, v: u64) {
        self.word(i).store(v, Ordering::SeqCst);
    }

    fn add(&self, i: usize, v: u64) {
        self.word(i).fetch_add(v, Ordering::SeqCst);
    }

    fn round(&self, i: usize) -> u64 {
        self.get(HEADER + i)
    }

    fn sample(&self, i: usize) -> (usize, u64, u64) {
        let b = HEADER + ROUND_CAP + i * SAMPLE_WORDS;
        (self.get(b) as usize, self.get(b + 1), self.get(b + 2))
    }

    fn push_sample(&self, shape: usize, lat: u64, iter: u64) -> bool {
        let n = self.get(N_SAMPLES) as usize;
        if n >= SAMPLE_CAP {
            return false;
        }
        let b = HEADER + ROUND_CAP + n * SAMPLE_WORDS;
        self.set(b, shape as u64);
        self.set(b + 1, lat);
        self.set(b + 2, iter);
        self.set(N_SAMPLES, n as u64 + 1);
        true
    }
}

/// The mix: six collectives × five sizes with tuner-picked algorithms,
/// rooted ones from both roots. Sizes move by at most 1/256 with the
/// seed; the order is reshuffled every round.
pub fn mix(seed: u64, t: &Tuner) -> Vec<Shape> {
    let mut rng = Rng::new(seed, 0x4E);
    let mut shapes = Vec::new();
    for base in SIZES {
        let count = base + 64 * rng.below((base / 16384) as u64 + 1) as usize;
        for kind in Kind::ALL {
            let algo = match kind {
                Kind::Scatter => Algo::Scatter(t.scatter(P, count)),
                Kind::Gather => Algo::Gather(t.gather(P, count)),
                Kind::Bcast => Algo::Bcast(t.bcast(P, count)),
                Kind::Allgather => Algo::Allgather(t.allgather(P, count)),
                Kind::Alltoall => Algo::Alltoall(t.alltoall(P, count)),
                Kind::Reduce => Algo::Reduce(t.reduce(P, count)),
            };
            let roots = if kind.rooted() { 0..P } else { 0..1 };
            for root in roots {
                shapes.push(Shape {
                    arch: 0,
                    p: P,
                    algo,
                    count,
                    root,
                });
            }
        }
    }
    shapes
}

/// One rank's buffers and expected output for one shape.
struct Bufs {
    send: Option<BufId>,
    recv: Option<BufId>,
    want: Option<Vec<u8>>,
}

fn alloc_shape(comm: &mut NativeComm, s: &Shape, seed: u64) -> Bufs {
    let me = comm.rank();
    let kind = s.algo.kind();
    let send = check::send_input(kind, seed, me, s.p, s.count, s.root).map(|d| comm.alloc_with(&d));
    let rlen = kind.recv_len(s.p, s.count, me, s.root);
    let recv = (rlen > 0).then(|| comm.alloc(rlen));
    let members: Vec<usize> = (0..s.p).collect();
    let want = check::expected(kind, seed, &members, me, s.count, s.root);
    Bufs { send, recv, want }
}

fn out_buf(s: &Shape, b: &Bufs) -> Option<BufId> {
    if s.algo.kind() == Kind::Bcast {
        b.send
    } else {
        b.recv
    }
}

fn run_coll(comm: &mut NativeComm, s: &Shape, b: &Bufs) -> kacc_comm::Result<()> {
    let need = |x: Option<BufId>| x.ok_or(CommError::Protocol("missing buffer".into()));
    match s.algo {
        Algo::Scatter(a) => scatter(comm, a, b.send, b.recv, s.count, s.root),
        Algo::Gather(a) => gather(comm, a, b.send, b.recv, s.count, s.root),
        Algo::Bcast(a) => bcast(comm, a, need(b.send)?, s.count, s.root),
        Algo::Allgather(a) => allgather(comm, a, b.send, need(b.recv)?, s.count),
        Algo::Alltoall(a) => alltoall(comm, a, b.send, need(b.recv)?, s.count),
        Algo::Reduce(a) => reduce(
            comm,
            a,
            need(b.send)?,
            b.recv,
            s.count,
            Dtype::U64,
            ReduceOp::Sum,
            s.root,
        ),
    }
}

/// The rank body of the persistent team: the closed loop, then (traced
/// runs) the transport probes.
fn rank_main(
    comm: &mut NativeComm,
    shapes: &[Shape],
    cfg: &Cfg,
    res: &Results,
) -> kacc_comm::Result<()> {
    let me = comm.rank();
    let bufs: Vec<Bufs> = shapes
        .iter()
        .map(|s| alloc_shape(comm, s, cfg.seed))
        .collect();
    let zeros = vec![0u8; shapes.iter().map(|s| s.p * s.count).max().unwrap_or(0)];
    // Rank 0 calibrates between calls (outside every timed window, while
    // rank 1 waits in the barrier) and reports latencies at the
    // reference speed, like the simulated workloads' host times.
    let mut cal = (me == 0).then(Calib::new);
    let start = Instant::now();
    let mut round = 0usize;
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    loop {
        let traced = cfg.trace && round % 2 == 1;
        // A fresh seeded order each round (the same on both ranks), so no
        // one sequence of neighbouring sizes decides the figures.
        Rng::new(cfg.seed, 0x0D3 ^ ((round as u64) << 16)).shuffle(&mut order);
        let r0 = Instant::now();
        let mut phase = [0u64; 4];
        for &i in &order {
            let s = &shapes[i];
            let b = &bufs[i];
            let out = out_buf(s, b);
            if let (Some(o), true) = (out, b.want.is_some()) {
                let len = comm.buf_len(o)?;
                if !(s.algo.kind() == Kind::Bcast && me == s.root) {
                    comm.write_local(o, 0, &zeros[..len])?;
                }
            }
            if let Some(c) = cal.as_mut() {
                c.tick();
            }
            let it0 = Instant::now();
            comm.barrier_wait();
            let t0 = Instant::now();
            let r = run_coll(comm, s, b);
            let dt = t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            let ok = match (&r, &b.want, out) {
                (Err(_), _, _) => {
                    res.add(COLL_ERRS, 1);
                    false
                }
                (Ok(()), Some(want), Some(o)) => {
                    let got = comm.read_all(o)?;
                    check::compare(&got, want).is_ok()
                }
                _ => true,
            };
            if !ok && r.is_ok() {
                res.add(VERIFY_ERRS, 1);
            }
            let t2 = Instant::now();
            if me == 1 {
                comm.ctrl_send(0, Tag::user(TAG_LAT), &dt.to_le_bytes())?;
            } else {
                let raw = comm.ctrl_recv(1, Tag::user(TAG_LAT))?;
                let other = u64::from_le_bytes(raw[..8].try_into().expect("8-byte latency"));
                let iter = it0.elapsed().as_nanos() as u64;
                let k = cal.as_ref().map_or(1.0, Calib::scale_now);
                let scaled = |ns: u64| (ns as f64 * k) as u64;
                res.push_sample(i, scaled(dt.max(other)), scaled(iter));
            }
            if traced {
                phase[0] += (t0 - it0).as_nanos() as u64;
                phase[1] += dt;
                phase[2] += (t2 - t1).as_nanos() as u64;
                phase[3] += t2.elapsed().as_nanos() as u64;
            }
        }
        if me == 0 {
            let rn = r0.elapsed().as_nanos() as u64;
            if round < ROUND_CAP {
                res.set(HEADER + round, rn | if traced { TRACED_BIT } else { 0 });
            }
            for (k, v) in phase.iter().enumerate() {
                res.add(PHASE0 + k, *v);
            }
        }
        round += 1;
        let go = if me == 0 {
            let full =
                res.get(N_SAMPLES) as usize + shapes.len() > SAMPLE_CAP || round >= ROUND_CAP;
            let go =
                !full && (start.elapsed().as_secs_f64() < cfg.seconds || (cfg.trace && round < 2));
            comm.ctrl_send(1, Tag::user(TAG_GO), &[u8::from(go)])?;
            go
        } else {
            comm.ctrl_recv(0, Tag::user(TAG_GO))?[0] == 1
        };
        if !go {
            break;
        }
    }
    if me == 0 {
        res.set(ROUNDS, round as u64);
        res.set(SCALE_BITS, cal.as_ref().map_or(1.0, Calib::scale).to_bits());
    }
    if cfg.trace {
        transport_probes(comm, res)?;
    }
    comm.barrier_wait();
    res.set(RSS0 + me, peak_rss_bytes());
    Ok(())
}

/// Ring round trip (8-byte control ping-pong), the shared barrier, and
/// one 1 MiB kernel-assisted read — medians written to the results.
fn transport_probes(comm: &mut NativeComm, res: &Results) -> kacc_comm::Result<()> {
    let me = comm.rank();
    let mut rtt = Vec::new();
    for _ in 0..2000 {
        if me == 0 {
            let t0 = Instant::now();
            comm.ctrl_send(1, Tag::user(TAG_PROBE), &[0u8; 8])?;
            comm.ctrl_recv(1, Tag::user(TAG_PROBE))?;
            rtt.push(t0.elapsed().as_nanos() as f64);
        } else {
            let m = comm.ctrl_recv(0, Tag::user(TAG_PROBE))?;
            comm.ctrl_send(0, Tag::user(TAG_PROBE), &m)?;
        }
    }
    let mut bar = Vec::new();
    for _ in 0..2000 {
        let t0 = Instant::now();
        comm.barrier_wait();
        bar.push(t0.elapsed().as_nanos() as f64);
    }
    let len = 1 << 20;
    if me == 0 {
        res.set(RING_NS, median(&rtt).unwrap_or(0.0) as u64);
        res.set(BARRIER_NS, median(&bar).unwrap_or(0.0) as u64);
        let src = comm.alloc_with(&crate::util::payload(0, 0, len));
        let tok = comm.expose(src)?;
        comm.ctrl_send(1, Tag::user(TAG_PROBE), &tok.to_bytes())?;
        comm.ctrl_recv(1, Tag::user(TAG_PROBE))?;
    } else {
        let raw = comm.ctrl_recv(0, Tag::user(TAG_PROBE))?;
        let tok = RemoteToken::from_bytes(&raw).ok_or(CommError::Protocol("token".into()))?;
        let dst = comm.alloc(len);
        let mut reads = Vec::new();
        for _ in 0..64 {
            let t0 = Instant::now();
            comm.cma_read(tok, 0, dst, 0, len)?;
            reads.push(t0.elapsed().as_nanos() as f64);
        }
        if comm.read_all(dst)? != crate::util::payload(0, 0, len) {
            res.add(VERIFY_ERRS, 1);
        }
        res.set(CMA_READ_NS, median(&reads).unwrap_or(0.0) as u64);
        comm.ctrl_send(0, Tag::user(TAG_PROBE), &[1])?;
    }
    Ok(())
}

fn setup(cfg: &Cfg) -> Result<(ArchProfile, Vec<Shape>, PlanCost, f64), String> {
    PlanCache::global().clear();
    let arch = trace::span("model", "ArchProfile", ArchProfile::broadwell);
    let tuner = trace::span("collectives", "Tuner::new", || Tuner::new(&arch));
    let shapes = trace::span("collectives", "Tuner picks", || mix(cfg.seed, &tuner));
    let mut cost = PlanCost::default();
    cost.compile_all(&shapes, std::slice::from_ref(&tuner));
    // Shared memory and a team that allocates and fills its buffers.
    let t0 = Instant::now();
    trace::span("native", "run_forked_collect (set-up team)", || {
        run_forked_collect(P, 0, |comm| {
            for s in &shapes {
                alloc_shape(comm, s, cfg.seed);
            }
            comm.barrier_wait();
            Ok(())
        })
    })
    .map_err(|e| e.to_string())?;
    let fork_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok((arch, shapes, cost, fork_ms))
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut o = Outcome::default();
    let mut fork_ms = Vec::new();
    let (st, setup_s) = common::repeated_setup(common::Clock::Wall, || {
        let r = setup(cfg);
        if let Ok(r) = &r {
            fork_ms.push(r.3);
        }
        r
    });
    let (arch, shapes, cost, _) = match st {
        Ok(s) => s,
        Err(e) => {
            o.attempted = 1;
            o.failed = 1;
            o.fail_check(format!("set-up failed: {e}"));
            return o;
        }
    };
    let res = match Results::new() {
        Ok(r) => r,
        Err(e) => {
            o.attempted = 1;
            o.failed = 1;
            o.fail_check(e);
            return o;
        }
    };
    let team = trace::span("native", "run_forked_collect (timed team)", || {
        run_forked_collect(P, 0, |comm| rank_main(comm, &shapes, cfg, &res))
    });
    let n = res.get(N_SAMPLES) as usize;
    let rounds = res.get(ROUNDS) as usize;
    let scale = f64::from_bits(res.get(SCALE_BITS));
    o.setup(setup_s, if scale > 0.0 { scale } else { 1.0 });
    o.attempted = (rounds * shapes.len()).max(1) as u64;
    o.failed = res.get(COLL_ERRS);
    if let Err(e) = team {
        o.failed = o.failed.max(1);
        o.fail_check(format!("team: {e}"));
    }
    if res.get(VERIFY_ERRS) > 0 {
        o.fail_check(format!(
            "{} collectives returned wrong bytes",
            res.get(VERIFY_ERRS)
        ));
    }
    if n != rounds * shapes.len() {
        o.fail_check(format!(
            "{n} samples for {rounds} rounds of {} collectives",
            shapes.len()
        ));
    }
    let samples: Vec<(usize, u64, u64)> = (0..n).map(|i| res.sample(i)).collect();
    let lat_us: Vec<f64> = samples.iter().map(|s| s.1 as f64 / 1e3).collect();
    // Every figure below starts from each call's median over the run's
    // rounds, so a burst of preemption moves none of them much.
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); shapes.len()];
    let mut iter_ms: Vec<Vec<f64>> = vec![Vec::new(); shapes.len()];
    for &(i, l, it) in &samples {
        lat[i].push(l as f64 / 1e3);
        iter_ms[i].push(it as f64 / 1e6);
    }
    let lat_med: Vec<f64> = lat.iter().map(|v| median(v).unwrap_or(0.0)).collect();
    let typical_round_s: f64 = lat_med.iter().sum::<f64>() / 1e6;
    o.e2e(
        "colls_per_s",
        shapes.len() as f64 / typical_round_s.max(1e-12),
        "1/s",
        format!(
            "{} calls over the sum of their median latencies ({rounds} rounds)",
            shapes.len()
        ),
    );
    o.host_percentiles(&iter_ms);
    o.e2e(
        "cma_us.p50",
        median(&lat_med).unwrap_or(0.0),
        "us",
        format!(
            "median over {} calls of each call's median ({rounds} samples each)",
            shapes.len()
        ),
    );
    let (mut bytes, mut secs) = (0u64, 0.0);
    for (s, us) in shapes.iter().zip(&lat_med) {
        if s.count >= 256 << 10 {
            bytes += s.algo.kind().delivered_bytes(s.p, s.count);
            secs += us / 1e6;
        }
    }
    o.e2e(
        "cma_gbps",
        bytes as f64 / secs.max(1e-12) / 1e9,
        "GB/s",
        "delivered bytes per second of median collective time, calls >= 256 KiB",
    );
    let rss = peak_rss_bytes() + res.get(RSS0) + res.get(RSS0 + 1);
    o.e2e(
        "peak_rss_mb",
        rss as f64 / (1 << 20) as f64,
        "MB",
        "VmHWM of the parent plus both ranks",
    );

    // The same mix on the simulator (Broadwell model, p=2): the model's
    // figure for this workload, checked like the simulated workloads.
    let was = trace::enabled();
    trace::set_enabled(false);
    let mut lat = Vec::new();
    for s in &shapes {
        let ph = simrun::run(&arch, *s, false, cfg.seed);
        let real = simrun::run(&arch, *s, true, cfg.seed);
        match (ph, real) {
            (Ok(ph), Ok(real)) => {
                if let Err(e) = simrun::check_outputs(s, cfg.seed, &real) {
                    o.fail_check(format!("simulated {s:?}: {e}"));
                }
                if ph.sim_ns != real.sim_ns {
                    o.fail_check(format!(
                        "simulated {s:?}: real bytes {} ns, phantom {} ns",
                        real.sim_ns, ph.sim_ns
                    ));
                }
                if let Err(e) =
                    check::check_floor(ph.sim_ns as f64, s.count, arch.beta_ns_per_byte())
                {
                    o.fail_check(format!("simulated {s:?}: {e}"));
                }
                lat.push((*s, ph.sim_ns as f64));
            }
            (Err(e), _) | (_, Err(e)) => o.fail_check(format!("simulated {s:?}: {e}")),
        }
    }
    trace::set_enabled(was);
    let mut sim = Outcome::default();
    sim_figures(
        &mut sim,
        &lat,
        256 << 10,
        "the native mix on the Broadwell model",
    );
    if let Some(m) = sim.e2e.remove("sim_us.geomean") {
        o.e2e.insert("sim_us.geomean", m);
    }
    survivable::failure_probe(cfg, &mut o);

    if cfg.trace {
        let tail = tail_q(n).unwrap_or(0.5);
        o.layer(
            "cma_us.p90",
            quantile(&lat_us, tail).unwrap_or(0.0),
            "us",
            format!("q{tail:.3} of {n} samples"),
        );
        o.layer(
            "fork_ms",
            median(&fork_ms).unwrap_or(0.0),
            "ms",
            format!(
                "median of {} set-up teams (fork, attach, fill, join)",
                fork_ms.len()
            ),
        );
        o.layer(
            "ring_rtt_us",
            res.get(RING_NS) as f64 / 1e3,
            "us",
            "median of 2000 8-byte ping-pongs",
        );
        o.layer(
            "barrier_us",
            res.get(BARRIER_NS) as f64 / 1e3,
            "us",
            "median of 2000 barriers",
        );
        let rd = res.get(CMA_READ_NS) as f64;
        o.layer(
            "cma_read_gbps",
            if rd > 0.0 {
                (1u64 << 20) as f64 / rd
            } else {
                0.0
            },
            "GB/s",
            "median of 64 reads of 1 MiB",
        );
        let mut traced = Vec::new();
        let mut plain = Vec::new();
        for i in 0..rounds.min(ROUND_CAP) {
            let w = res.round(i);
            let s = (w & !TRACED_BIT) as f64 / 1e9;
            if w & TRACED_BIT != 0 {
                traced.push(s);
            } else {
                plain.push(s);
            }
        }
        common::trace_overhead(
            &mut o,
            &common::Timed {
                rounds,
                traced_s: traced,
                plain_s: plain,
                scale: 1.0,
            },
        );
        // Per-layer spans for the children's phases (traced rounds).
        let names = [
            ("native", "barrier_wait"),
            ("collectives", "collectives on NativeComm"),
            ("bench", "verify"),
            ("native", "ring exchange of latencies"),
        ];
        trace::span("bench", "ranks, traced rounds", || {
            for (k, (layer, name)) in names.iter().enumerate() {
                trace::child_total(layer, name, res.get(PHASE0 + k));
            }
        });
        cost.emit(&mut o);
        probes::exec_probe(&mut o);
    }
    o
}
