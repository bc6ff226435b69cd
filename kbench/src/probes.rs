//! Layer probes timed from outside: cold plan compiles, IR costing, and
//! schedule execution on the instant-cost `NullComm`.

use crate::common::Outcome;
use crate::simrun::{Algo, Shape};
use crate::trace;
use crate::util::median;
use kacc_bench::nullcomm::NullComm;
use kacc_collectives::schedule::{
    compile_allgather, compile_alltoall, compile_bcast, compile_gather, compile_reduce,
    compile_scatter, Schedule, Slot, Step, TokenReg,
};
use kacc_collectives::{
    execute, BcastAlgo, Bindings, Dtype, GatherAlgo, ReduceOp, ScatterAlgo, Tuner,
};
use kacc_comm::Comm;
use std::time::Instant;

/// Compile `rank`'s plan of `s` directly (no cache).
pub fn compile(s: &Shape, rank: usize) -> Schedule {
    let layout: Vec<(usize, usize)> = (0..s.p).map(|r| (r * s.count, s.count)).collect();
    match s.algo {
        Algo::Scatter(a) => compile_scatter(a, s.p, rank, &layout, s.root, true),
        Algo::Gather(a) => compile_gather(a, s.p, rank, &layout, s.root, true),
        Algo::Bcast(a) => compile_bcast(a, s.p, rank, s.count, s.root),
        Algo::Allgather(a) => compile_allgather(a, s.p, rank, s.count, true),
        Algo::Alltoall(a) => compile_alltoall(a, s.p, rank, s.count),
        Algo::Reduce(a) => compile_reduce(a, s.p, rank, s.count, Dtype::U64, ReduceOp::Sum, s.root),
    }
}

/// Readers concurrently hitting one source page-table lock under `algo`
/// — the `contention` argument of `Tuner::cost_schedule`.
pub fn contention(algo: Algo, p: usize) -> usize {
    match algo {
        Algo::Scatter(ScatterAlgo::ParallelRead)
        | Algo::Gather(GatherAlgo::ParallelWrite)
        | Algo::Bcast(BcastAlgo::DirectRead) => p - 1,
        Algo::Scatter(ScatterAlgo::ThrottledRead { k })
        | Algo::Gather(GatherAlgo::ThrottledWrite { k }) => k,
        Algo::Bcast(BcastAlgo::KNomial { radix }) => radix - 1,
        _ => 1,
    }
}

/// Cold-compile time and IR-costing time accumulated over set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanCost {
    /// Plans compiled.
    pub compiles: u64,
    /// Host time compiling, ns.
    pub compile_ns: u64,
    /// `cost_schedule` calls.
    pub costs: u64,
    /// Host time costing, ns.
    pub cost_ns: u64,
}

impl PlanCost {
    /// Compile every rank's plan of every shape cold, and cost each with
    /// the shape's tuner (the work a cold cache and adaptive liveness
    /// pay).
    pub fn compile_all(&mut self, shapes: &[Shape], tuners: &[Tuner]) {
        trace::span("collectives", "compile_*", || {
            for s in shapes {
                for rank in 0..s.p {
                    let t0 = Instant::now();
                    let plan = compile(s, rank);
                    self.compile_ns += t0.elapsed().as_nanos() as u64;
                    self.compiles += 1;
                    let t1 = Instant::now();
                    let c = tuners[s.arch].cost_schedule(&plan, contention(s.algo, s.p));
                    self.cost_ns += t1.elapsed().as_nanos() as u64;
                    self.costs += 1;
                    std::hint::black_box((c, plan));
                }
            }
        });
    }

    /// Emit `compile_us` and `cost_schedule_us`.
    pub fn emit(&self, o: &mut Outcome) {
        o.layer(
            "compile_us",
            self.compile_ns as f64 / 1e3 / self.compiles.max(1) as f64,
            "us",
            format!("mean of {} cold compile_* calls", self.compiles),
        );
        o.layer(
            "cost_schedule_us",
            self.cost_ns as f64 / 1e3 / self.costs.max(1) as f64,
            "us",
            format!("mean of {} Tuner::cost_schedule calls", self.costs),
        );
    }
}

/// A step-dense single-rank plan: expose once, then bounce a 64-byte
/// block Send → Temp → Recv `rounds` times, so executing it measures
/// dispatch and recording rather than data movement.
fn dispatch_plan(rounds: usize) -> Schedule {
    let block = 64;
    let mut steps = vec![Step::Expose {
        slot: Slot::Send,
        reg: TokenReg(0),
    }];
    for _ in 0..rounds {
        steps.push(Step::CopyLocal {
            src: Slot::Send,
            src_off: 0,
            dst: Slot::Temp(0),
            dst_off: 0,
            len: block,
        });
        steps.push(Step::CopyLocal {
            src: Slot::Temp(0),
            src_off: 0,
            dst: Slot::Recv,
            dst_off: 0,
            len: block,
        });
    }
    Schedule {
        p: 1,
        rank: 0,
        token_regs: 1,
        temps: vec![block],
        steps,
        class: None,
    }
}

/// `exec_us`: median host time of one `execute` of a 129-step plan on
/// `NullComm`.
pub fn exec_probe(o: &mut Outcome) {
    let plan = dispatch_plan(64);
    let mut comm = NullComm::new();
    let bind = Bindings {
        send: Some(comm.alloc(64)),
        recv: Some(comm.alloc(64)),
    };
    let mut us = Vec::new();
    trace::span("collectives", "execute(NullComm)", || {
        for _ in 0..400 {
            let t0 = Instant::now();
            let rep = execute(&mut comm, &plan, &bind);
            us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if rep.is_err() {
                break;
            }
        }
    });
    o.layer(
        "exec_us",
        median(&us).unwrap_or(0.0),
        "us",
        format!(
            "median of {} executes of a {}-step plan",
            us.len(),
            plan.steps.len()
        ),
    );
}
