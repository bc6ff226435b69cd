//! One simulated collective on the polled engine, as `repro` runs it:
//! barrier, then the compiled collective; the slowest rank's elapsed
//! virtual time is the latency. Phantom buffers for timing, real seeded
//! bytes for checking.

use crate::check::{self, Kind};
use crate::trace::{self, Timed};
use crate::util::cpu_ns;
use kacc_collectives::{
    allgather_polled, alltoall_polled, bcast_polled, gatherv_polled, reduce_polled, scatter_polled,
    AllgatherAlgo, AlltoallAlgo, BcastAlgo, Dtype, GatherAlgo, ReduceAlgo, ReduceOp, ScatterAlgo,
};
use kacc_comm::{BufId, CommError};
use kacc_machine::polled::sm_barrier_polled;
use kacc_machine::{run_polled_team, run_polled_team_phantom, PolledComm, TeamRun};
use kacc_model::ArchProfile;
use std::cell::Cell;
use std::rc::Rc;

/// A collective with its algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Compiled scatter.
    Scatter(ScatterAlgo),
    /// Compiled gather.
    Gather(GatherAlgo),
    /// Compiled broadcast.
    Bcast(BcastAlgo),
    /// Compiled allgather.
    Allgather(AllgatherAlgo),
    /// Compiled alltoall.
    Alltoall(AlltoallAlgo),
    /// Compiled u64-sum reduce.
    Reduce(ReduceAlgo),
}

impl Algo {
    /// The collective this algorithm implements.
    pub fn kind(self) -> Kind {
        match self {
            Algo::Scatter(_) => Kind::Scatter,
            Algo::Gather(_) => Kind::Gather,
            Algo::Bcast(_) => Kind::Bcast,
            Algo::Allgather(_) => Kind::Allgather,
            Algo::Alltoall(_) => Kind::Alltoall,
            Algo::Reduce(_) => Kind::Reduce,
        }
    }
}

/// One simulated collective call: profile index, group size, algorithm,
/// bytes per rank, root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Index into the workload's profile list.
    pub arch: usize,
    /// Ranks.
    pub p: usize,
    /// Algorithm.
    pub algo: Algo,
    /// Bytes per rank (per block).
    pub count: usize,
    /// Root rank (ignored by unrooted collectives).
    pub root: usize,
}

/// What one simulated call produced.
pub struct SimOut {
    /// The engine's run report.
    pub run: TeamRun,
    /// Slowest rank's virtual time from barrier exit to return, ns.
    pub sim_ns: u64,
    /// IR steps executed, summed over ranks.
    pub steps: u64,
    /// Per-rank output buffers (real-bytes runs only).
    pub outputs: Vec<Option<Vec<u8>>>,
    /// Host CPU time of the whole engine call, ns.
    pub host_ns: u64,
}

type RankOut = Result<(u64, u64, Option<Vec<u8>>), CommError>;

async fn rank_body(rank: usize, s: Shape, real: bool, seed: u64) -> RankOut {
    let mut comm = PolledComm::new(rank);
    let kind = s.algo.kind();
    let slen = kind.send_len(s.p, s.count, rank, s.root);
    let rlen = kind.recv_len(s.p, s.count, rank, s.root);
    let sb: Option<BufId> = match (real, slen) {
        (_, 0) => None,
        (true, _) => {
            let data = check::send_input(kind, seed, rank, s.p, s.count, s.root)
                .expect("send buffer has input");
            Some(comm.alloc_with(&data)?)
        }
        (false, n) => Some(comm.alloc(n)),
    };
    let rb = (rlen > 0).then(|| comm.alloc(rlen));
    sm_barrier_polled(&mut comm).await?;
    let t0 = comm.time_ns();
    let (p, count, root) = (s.p, s.count, s.root);
    let need = |b: Option<BufId>| b.ok_or(CommError::Protocol("missing buffer".into()));
    let rep = match s.algo {
        Algo::Scatter(a) => scatter_polled(&mut comm, a, sb, rb, count, root).await?,
        Algo::Gather(a) => {
            gatherv_polled(&mut comm, a, sb, rb, &vec![count; p], None, root).await?
        }
        Algo::Bcast(a) => bcast_polled(&mut comm, a, need(sb)?, count, root).await?,
        Algo::Allgather(a) => allgather_polled(&mut comm, a, sb, need(rb)?, count).await?,
        Algo::Alltoall(a) => alltoall_polled(&mut comm, a, sb, need(rb)?, count).await?,
        Algo::Reduce(a) => {
            reduce_polled(
                &mut comm,
                a,
                need(sb)?,
                rb,
                count,
                Dtype::U64,
                ReduceOp::Sum,
                root,
            )
            .await?
        }
    };
    let dt = comm.time_ns() - t0;
    let steps = rep.map_or(0, |r| r.steps);
    let out_buf = if kind == Kind::Bcast { sb } else { rb };
    let out = match (real, out_buf) {
        (true, Some(b)) => Some(comm.read_all(b)?),
        _ => None,
    };
    Ok((dt, steps, out))
}

/// Run `shape` once on the polled engine. `real` moves seeded bytes
/// (for checking); otherwise buffers are phantom. When tracing, the time
/// spent polling rank bodies is recorded as one `collectives` child span.
pub fn run(arch: &ArchProfile, s: Shape, real: bool, seed: u64) -> Result<SimOut, String> {
    let acc = trace::enabled().then(|| Rc::new(Cell::new(0u64)));
    let acc2 = acc.clone();
    let body = move |rank: usize| Timed::new(rank_body(rank, s, real, seed), acc2.clone());
    let c0 = cpu_ns();
    let (run, outs) = trace::span("machine", "run_polled_team", || {
        let r = if real {
            run_polled_team(arch, s.p, body)
        } else {
            run_polled_team_phantom(arch, s.p, body)
        };
        if let Some(a) = &acc {
            trace::child_total("collectives", "polled rank bodies", a.get());
        }
        r
    });
    let host_ns = cpu_ns() - c0;
    let mut sim_ns = 0;
    let mut steps = 0;
    let mut outputs = Vec::with_capacity(outs.len());
    for (rank, o) in outs.into_iter().enumerate() {
        let (dt, st, out) = o.map_err(|e| format!("rank {rank}: {e}"))?;
        sim_ns = sim_ns.max(dt);
        steps += st;
        outputs.push(out);
    }
    Ok(SimOut {
        run,
        sim_ns,
        steps,
        outputs,
        host_ns,
    })
}

/// Check a real-bytes run's outputs against the expected buffers.
pub fn check_outputs(s: &Shape, seed: u64, out: &SimOut) -> Result<(), String> {
    let kind = s.algo.kind();
    let members: Vec<usize> = (0..s.p).collect();
    // Bcast and allgather expect the same bytes on every rank.
    let shared = matches!(kind, Kind::Bcast | Kind::Allgather)
        .then(|| check::expected(kind, seed, &members, 0, s.count, s.root));
    for (rank, got) in out.outputs.iter().enumerate() {
        let own;
        let want = match &shared {
            Some(w) => w.as_ref(),
            None => {
                own = check::expected(kind, seed, &members, rank, s.count, s.root);
                own.as_ref()
            }
        };
        match (want, got) {
            (None, _) => {}
            (Some(w), Some(g)) => check::compare(g, w).map_err(|e| format!("rank {rank}: {e}"))?,
            (Some(_), None) => return Err(format!("rank {rank}: no output buffer")),
        }
    }
    Ok(())
}
