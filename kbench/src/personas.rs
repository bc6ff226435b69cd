//! `sim-personas`: the MVAPICH2, Intel MPI, Open MPI and kacc library
//! personas × five collectives on Broadwell at p=16, at 1 KiB (eager),
//! 64 KiB and 1 MiB (rendezvous), on the thread-per-rank engine the
//! personas run on (`kacc-mpi` pt2pt stack over `SimComm`).

use crate::check::{self, Kind};
use crate::common::{self, Cfg, Outcome, SimLayers};
use crate::contended::sim_figures;
use crate::probes::PlanCost;
use crate::simrun::{Algo, Shape};
use crate::survivable;
use crate::trace;
use crate::util::{cpu_ns, geomean, median, peak_rss_bytes, Rng};
use kacc_collectives::{PlanCache, Tuner};
use kacc_comm::{smcoll, Comm, CommExt};
use kacc_machine::{run_team, run_team_phantom, SimComm, TeamRun};
use kacc_model::ArchProfile;
use kacc_mpi::baseline::{self, Library};

/// Group size.
pub const P: usize = 16;
/// Message sizes.
pub const SIZES: [usize; 3] = [1 << 10, 64 << 10, 1 << 20];
/// The personas, with their metric suffixes.
pub const LIBS: [(Library, &str); 4] = [
    (Library::Mvapich2, "mvapich2"),
    (Library::IntelMpi, "intelmpi"),
    (Library::OpenMpi, "openmpi"),
    (Library::Kacc, "kacc"),
];
const KINDS: [Kind; 5] = [
    Kind::Bcast,
    Kind::Scatter,
    Kind::Gather,
    Kind::Allgather,
    Kind::Alltoall,
];

/// One persona call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Index into [`LIBS`].
    pub lib: usize,
    /// Collective.
    pub kind: Kind,
    /// Bytes per rank.
    pub count: usize,
    /// Root (rooted collectives).
    pub root: usize,
}

/// The seeded mix: every persona × collective × size once, in a seeded
/// order, with seeded roots.
pub fn mix(seed: u64) -> Vec<Call> {
    let mut rng = Rng::new(seed, 0x9E);
    let mut calls = Vec::new();
    for lib in 0..LIBS.len() {
        for kind in KINDS {
            for count in SIZES {
                calls.push(Call {
                    lib,
                    kind,
                    count,
                    root: rng.below(P as u64) as usize,
                });
            }
        }
    }
    rng.shuffle(&mut calls);
    calls
}

type RankOut = Result<(u64, Option<String>), String>;

fn body(comm: &mut SimComm, c: Call, tuner: &Tuner, real: bool, seed: u64) -> RankOut {
    let me = comm.rank();
    let lib = LIBS[c.lib].0;
    let (p, count, root) = (P, c.count, c.root);
    let slen = c.kind.send_len(p, count, me, root);
    let rlen = c.kind.recv_len(p, count, me, root);
    let sb =
        match (real, slen) {
            (_, 0) => None,
            (true, _) => Some(comm.alloc_with(
                &check::send_input(c.kind, seed, me, p, count, root).expect("send input"),
            )),
            (false, n) => Some(comm.alloc(n)),
        };
    let rb = (rlen > 0).then(|| comm.alloc(rlen));
    let need = |b: Option<kacc_comm::BufId>| b.ok_or_else(|| "missing buffer".to_string());
    smcoll::sm_barrier(comm).map_err(|e| e.to_string())?;
    let t0 = comm.time_ns();
    let r = match c.kind {
        Kind::Bcast => baseline::bcast(comm, lib, tuner, need(sb)?, count, root),
        Kind::Scatter => baseline::scatter(comm, lib, tuner, sb, rb, count, root),
        Kind::Gather => baseline::gather(comm, lib, tuner, sb, rb, count, root),
        Kind::Allgather => baseline::allgather(comm, lib, tuner, sb, need(rb)?, count),
        Kind::Alltoall => baseline::alltoall(comm, lib, tuner, sb, need(rb)?, count),
        Kind::Reduce => return Err("personas have no reduce".into()),
    };
    r.map_err(|e| format!("rank {me}: {e}"))?;
    let dt = comm.time_ns() - t0;
    if !real {
        return Ok((dt, None));
    }
    // Compare here, rank by rank, so no team-sized copy of the outputs
    // is ever held at once.
    let members: Vec<usize> = (0..p).collect();
    let verdict = match check::expected(c.kind, seed, &members, me, count, root) {
        None => None,
        Some(want) => {
            let buf = if c.kind == Kind::Bcast { sb } else { rb };
            let got = comm.read_all(need(buf)?).map_err(|e| e.to_string())?;
            check::compare(&got, &want).err()
        }
    };
    Ok((dt, verdict))
}

/// Run one persona call on the threads engine.
fn run_call(
    arch: &ArchProfile,
    c: Call,
    tuner: &Tuner,
    real: bool,
    seed: u64,
) -> (TeamRun, Vec<RankOut>, u64) {
    let tuner = tuner.clone();
    let f = move |comm: &mut SimComm| body(comm, c, &tuner, real, seed);
    let c0 = cpu_ns();
    let (run, outs) = trace::span("mpi", "baseline via run_team", || {
        if real {
            run_team(arch, P, f)
        } else {
            run_team_phantom(arch, P, f)
        }
    });
    (run, outs, cpu_ns() - c0)
}

fn sim_ns(outs: &[RankOut]) -> Result<u64, String> {
    let mut t = 0;
    for o in outs {
        t = t.max(o.as_ref().map_err(Clone::clone)?.0);
    }
    Ok(t)
}

/// The compiled shape the kacc persona runs for a call (its tuner pick).
fn kacc_shape(c: &Call, t: &Tuner) -> Shape {
    let algo = match c.kind {
        Kind::Scatter => Algo::Scatter(t.scatter(P, c.count)),
        Kind::Gather => Algo::Gather(t.gather(P, c.count)),
        Kind::Bcast => Algo::Bcast(t.bcast(P, c.count)),
        Kind::Allgather => Algo::Allgather(t.allgather(P, c.count)),
        Kind::Alltoall | Kind::Reduce => Algo::Alltoall(t.alltoall(P, c.count)),
    };
    Shape {
        arch: 0,
        p: P,
        algo,
        count: c.count,
        root: c.root,
    }
}

fn setup(seed: u64) -> (ArchProfile, Tuner, Vec<Call>, PlanCost) {
    PlanCache::global().clear();
    let arch = trace::span("model", "ArchProfile", ArchProfile::broadwell);
    let tuner = trace::span("collectives", "Tuner::new", || Tuner::new(&arch));
    let calls = mix(seed);
    let shapes: Vec<Shape> = calls
        .iter()
        .filter(|c| LIBS[c.lib].0 == Library::Kacc)
        .map(|c| kacc_shape(c, &tuner))
        .collect();
    let mut cost = PlanCost::default();
    cost.compile_all(&shapes, std::slice::from_ref(&tuner));
    // Engine pool: one tiny team brings the rank threads up.
    trace::span("machine", "run_team_phantom (pool)", || {
        run_team_phantom(&arch, P, |comm: &mut SimComm| {
            smcoll::sm_barrier(comm).is_ok()
        })
    });
    (arch, tuner, calls, cost)
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut o = Outcome::default();
    let ((arch, tuner, calls, cost), setup_s) =
        common::repeated_setup(common::Clock::Cpu, || setup(cfg.seed));
    let n = calls.len();
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut host_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut lib_host: Vec<Vec<f64>> = vec![Vec::new(); LIBS.len()];
    let mut layers = SimLayers::default();
    let mut drift = 0u64;
    let cache0 = PlanCache::global().stats();
    let timed = common::timed_rounds(cfg, |_, traced, cal| {
        for (i, c) in calls.iter().enumerate() {
            o.attempted += 1;
            cal.tick();
            let (run, outs, host_ns) = run_call(&arch, *c, &tuner, false, cfg.seed);
            match sim_ns(&outs) {
                Ok(t) => {
                    let ms = host_ns as f64 / 1e6 * cal.scale_now();
                    host_ms[i].push(ms);
                    if !cfg.trace || traced {
                        lib_host[c.lib].push(ms);
                        layers.add(&run, host_ns, 0);
                    }
                    match first[i] {
                        None => first[i] = Some(t),
                        Some(f) if f != t => drift += 1,
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    o.failed += 1;
                    eprintln!("failed: {c:?}: {e}");
                }
            }
        }
    });
    let rss = peak_rss_bytes();
    let ops = timed.rounds as u64 * n as u64;
    o.throughput(&host_ms);
    o.setup(setup_s, timed.scale);
    o.host_percentiles(&host_ms);
    o.e2e(
        "peak_rss_mb",
        rss as f64 / (1 << 20) as f64,
        "MB",
        "VmHWM after the timed phase",
    );
    if drift > 0 {
        o.fail_check(format!(
            "{drift} repeats of a call changed its simulated time"
        ));
    }

    // Checks: each distinct call once with real bytes, compared in the
    // rank bodies; same simulated time as phantom; above the β floor.
    let was = trace::enabled();
    trace::set_enabled(false);
    let mut lat = Vec::new();
    let mut lib_sim: Vec<Vec<f64>> = vec![Vec::new(); LIBS.len()];
    let feet: Vec<usize> = calls
        .iter()
        .map(|c| check::footprint(c.kind, P, c.count, c.root))
        .collect();
    let plan = check::real_bytes_plan(cfg.seed, &feet, 1);
    for (i, c) in calls.iter().enumerate() {
        let Some(phantom) = first[i] else { continue };
        if let Err(e) = check::check_floor(phantom as f64, c.count, arch.beta_ns_per_byte()) {
            o.fail_check(format!("{c:?}: {e}"));
        }
        lib_sim[c.lib].push(phantom as f64 / 1e3);
        lat.push((kacc_shape(c, &tuner), phantom as f64));
        if !plan[i] {
            continue;
        }
        let (_, outs, _) = run_call(&arch, *c, &tuner, true, cfg.seed);
        match sim_ns(&outs) {
            Ok(t) if t != phantom => o.fail_check(format!(
                "{c:?}: real-bytes run took {t} ns, phantom {phantom} ns"
            )),
            Ok(_) => {}
            Err(e) => o.fail_check(format!("{c:?} real-bytes run: {e}")),
        }
        for (rank, out) in outs.iter().enumerate() {
            if let Ok((_, Some(e))) = out {
                o.fail_check(format!("{c:?} rank {rank}: {e}"));
            }
        }
    }
    trace::set_enabled(was);
    sim_figures(
        &mut o,
        &lat,
        256 << 10,
        "4 personas x 5 collectives, Broadwell p=16",
    );
    survivable::failure_probe(cfg, &mut o);
    if cfg.trace {
        layers.emit(&mut o, false);
        for (l, (_, name)) in LIBS.iter().enumerate() {
            o.layer(
                format!("host_ms.{name}"),
                median(&lib_host[l]).unwrap_or(0.0),
                "ms",
                format!("median of {} calls", lib_host[l].len()),
            );
            o.layer(
                format!("sim_us.{name}"),
                geomean(&lib_sim[l]).unwrap_or(0.0),
                "us",
                format!("geomean of {} distinct calls", lib_sim[l].len()),
            );
        }
        common::plan_cache_delta(&mut o, cache0, ops);
        cost.emit(&mut o);
        common::trace_overhead(&mut o, &timed);
        crate::probes::exec_probe(&mut o);
    }
    o
}
