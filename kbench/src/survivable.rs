//! `sim-survivable`: all six survivable collectives on KNL at p=64 with
//! real payloads, each with k ∈ {0, 1, 2} seeded silent kills (no victim
//! is a root) — timeouts, agreement rounds, shrink and re-execution.

use crate::check::{self, Kind};
use crate::common::{self, Cfg, Outcome, SimLayers};
use crate::contended::sim_figures;
use crate::probes::PlanCost;
use crate::simrun::{Algo, Shape};
use crate::trace::{self, Timed};
use crate::util::{cpu_ns, median, peak_rss_bytes, Rng};
use kacc_collectives::{
    run_survivable_polled, AllgatherAlgo, AlltoallAlgo, BcastAlgo, Dtype, GatherAlgo,
    MembershipReport, PlanCache, RecoveryPolicy, ReduceAlgo, ReduceOp, ScatterAlgo, SurvivableOp,
    Tuner,
};
use kacc_comm::BufId;
use kacc_fault::FaultPlan;
use kacc_machine::{run_polled_team_faulty, PolledComm, TeamRun};
use kacc_model::ArchProfile;
use std::cell::Cell;
use std::rc::Rc;

/// Group size.
pub const P: usize = 64;
/// Bytes per member.
pub const COUNT: usize = 4 << 10;
/// Victim draws per (collective, k ≥ 1) in one round.
pub const DRAWS: usize = 2;
/// Operations (indices into [`ops`]) that also run with seeded kills.
/// The rooted four are left out: with seeded victims they sometimes
/// exile a live rank (see `README.md`), so their share of failures would
/// depend on the seed.
pub const KILLED_OPS: [usize; 2] = [3, 4];

/// One survivable call with its injected kills.
#[derive(Debug, Clone)]
pub struct Case {
    /// Index of the operation in [`ops`].
    pub op: usize,
    /// The operation.
    pub sop: SurvivableOp,
    /// `(victim, transport ops before it dies)`.
    pub kills: Vec<(usize, u64)>,
}

/// The six survivable operations with the algorithm picks the chaos
/// suites pin.
pub fn ops(count: usize, roots: &[usize; 6]) -> [SurvivableOp; 6] {
    [
        SurvivableOp::Scatter {
            algo: ScatterAlgo::ThrottledRead { k: 2 },
            count,
            root: roots[0],
        },
        SurvivableOp::Gather {
            algo: GatherAlgo::ParallelWrite,
            count,
            root: roots[1],
        },
        SurvivableOp::Bcast {
            algo: BcastAlgo::KNomial { radix: 2 },
            count,
            root: roots[2],
        },
        SurvivableOp::Allgather {
            algo: AllgatherAlgo::Bruck,
            count,
        },
        SurvivableOp::Alltoall {
            algo: AlltoallAlgo::Pairwise,
            count,
        },
        SurvivableOp::Reduce {
            algo: ReduceAlgo::KNomialTree { radix: 2 },
            count,
            dtype: Dtype::U64,
            op: ReduceOp::Sum,
            root: roots[5],
        },
    ]
}

fn kind_of(op: &SurvivableOp) -> Kind {
    match op {
        SurvivableOp::Scatter { .. } => Kind::Scatter,
        SurvivableOp::Gather { .. } => Kind::Gather,
        SurvivableOp::Bcast { .. } => Kind::Bcast,
        SurvivableOp::Allgather { .. } => Kind::Allgather,
        SurvivableOp::Alltoall { .. } => Kind::Alltoall,
        SurvivableOp::Reduce { .. } => Kind::Reduce,
    }
}

/// The compiled-collective shape behind a survivable op (for cold
/// compiles and costing in set-up).
fn shape_of(op: &SurvivableOp) -> Shape {
    let (algo, root) = match *op {
        SurvivableOp::Scatter { algo, root, .. } => (Algo::Scatter(algo), root),
        SurvivableOp::Gather { algo, root, .. } => (Algo::Gather(algo), root),
        SurvivableOp::Bcast { algo, root, .. } => (Algo::Bcast(algo), root),
        SurvivableOp::Allgather { algo, .. } => (Algo::Allgather(algo), 0),
        SurvivableOp::Alltoall { algo, .. } => (Algo::Alltoall(algo), 0),
        SurvivableOp::Reduce { algo, root, .. } => (Algo::Reduce(algo), root),
    };
    Shape {
        arch: 0,
        p: P,
        algo,
        count: op.count(),
        root,
    }
}

/// The seeded mix: per operation one clean call; for [`KILLED_OPS`]
/// also [`DRAWS`] calls each with 1 and 2 kills of distinct non-root
/// victims after 1–4 transport operations.
pub fn mix(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed, 0x5A);
    let roots = [(); 6].map(|_| rng.below(P as u64) as usize);
    let sops = ops(COUNT, &roots);
    let mut cases = Vec::new();
    for (i, sop) in sops.iter().enumerate() {
        cases.push(Case {
            op: i,
            sop: *sop,
            kills: Vec::new(),
        });
        if !KILLED_OPS.contains(&i) {
            continue;
        }
        for k in 1..=2 {
            for _ in 0..DRAWS {
                let mut kills: Vec<(usize, u64)> = Vec::new();
                while kills.len() < k {
                    let v = rng.below(P as u64) as usize;
                    if Some(v) != sop.root() && !kills.iter().any(|&(d, _)| d == v) {
                        kills.push((v, 1 + rng.below(4)));
                    }
                }
                cases.push(Case {
                    op: i,
                    sop: *sop,
                    kills,
                });
            }
        }
    }
    rng.shuffle(&mut cases);
    cases
}

type RankOut = Result<(Vec<usize>, MembershipReport, u64, Option<Vec<u8>>), String>;

async fn rank_body(rank: usize, sop: SurvivableOp, seed: u64) -> RankOut {
    let mut comm = PolledComm::new(rank);
    let kind = kind_of(&sop);
    let root = sop.root().unwrap_or(0);
    let count = sop.count();
    let sb: Option<BufId> = match check::send_input(kind, seed, rank, P, count, root) {
        Some(d) => Some(comm.alloc_with(&d).map_err(|e| e.to_string())?),
        None => None,
    };
    let rlen = kind.recv_len(P, count, rank, root);
    let rb = (rlen > 0).then(|| comm.alloc(rlen));
    let o = run_survivable_polled(&mut comm, &sop, sb, rb, &RecoveryPolicy::survivable())
        .await
        .map_err(|e| format!("{e:?}"))?;
    let out_buf = if kind == Kind::Bcast { sb } else { rb };
    let out = match out_buf {
        Some(b) => Some(comm.read_all(b).map_err(|e| e.to_string())?),
        None => None,
    };
    Ok((o.members, o.membership, o.report.steps, out))
}

/// What one survivable case produced.
pub struct CaseOut {
    /// Engine report.
    pub run: TeamRun,
    /// Host CPU time of the engine call, ns.
    pub host_ns: u64,
    /// Per-rank outcomes.
    pub ranks: Vec<RankOut>,
}

/// Run one case on the polled engine under its silent-kill plan.
pub fn run_case(arch: &ArchProfile, case: &Case, seed: u64) -> CaseOut {
    let mut plan = FaultPlan::new(seed);
    for &(d, after) in &case.kills {
        plan = plan.silent_kill(d, after);
    }
    let sop = case.sop;
    let acc = trace::enabled().then(|| Rc::new(Cell::new(0u64)));
    let acc2 = acc.clone();
    let c0 = cpu_ns();
    let (run, ranks) = trace::span("machine", "run_polled_team_faulty", || {
        let r = run_polled_team_faulty(arch, P, plan.hook(), move |rank| {
            Timed::new(rank_body(rank, sop, seed), acc2.clone())
        });
        if let Some(a) = &acc {
            trace::child_total(
                "collectives.membership",
                "run_survivable_polled bodies",
                a.get(),
            );
        }
        r
    });
    CaseOut {
        run,
        host_ns: cpu_ns() - c0,
        ranks,
    }
}

/// Check a case: victims fail typed, survivors agree on the initial
/// ranks minus the victims, and every survivor holds the expected bytes.
pub fn check_case(case: &Case, seed: u64, out: &CaseOut) -> Result<(), String> {
    let victims: Vec<usize> = case.kills.iter().map(|&(d, _)| d).collect();
    let mut lists = Vec::new();
    for (rank, r) in out.ranks.iter().enumerate() {
        match (victims.contains(&rank), r) {
            (true, Ok(_)) => return Err(format!("victim {rank} completed")),
            (true, Err(_)) => {}
            (false, Err(e)) => return Err(format!("survivor {rank} failed: {e}")),
            (false, Ok((members, ..))) => lists.push(members.clone()),
        }
    }
    check::check_members(&lists, P, &victims)?;
    let members: Vec<usize> = (0..P).filter(|r| !victims.contains(r)).collect();
    let kind = kind_of(&case.sop);
    let root = case.sop.root().unwrap_or(0);
    for (idx, &m) in members.iter().enumerate() {
        let Ok((_, _, _, got)) = &out.ranks[m] else {
            continue;
        };
        if let Some(want) = check::expected(kind, seed, &members, idx, case.sop.count(), root) {
            let got = got.as_deref().ok_or(format!("member {m}: no output"))?;
            check::compare(got, &want).map_err(|e| format!("member {m}: {e}"))?;
        }
    }
    Ok(())
}

/// Worst-rank membership report fields of a case.
fn worst(out: &CaseOut) -> MembershipReport {
    let mut w = MembershipReport::default();
    for (_, m, _, _) in out.ranks.iter().flatten() {
        w.detect_ns = w.detect_ns.max(m.detect_ns);
        w.agree_ns = w.agree_ns.max(m.agree_ns);
        w.reexec_ns = w.reexec_ns.max(m.reexec_ns);
        w.agreements = w.agreements.max(m.agreements);
        w.resumes = w.resumes.max(m.resumes);
    }
    w
}

/// Recovery accounting over the failure cases of one pass of the mix.
#[derive(Debug, Default, Clone, Copy)]
struct Recovery {
    failures: u64,
    runs: u64,
    extra_sim_ns: u64,
    extra_host_ns: f64,
    detect_ns: u64,
    agree_ns: u64,
    reexec_ns: u64,
    agreements: u64,
    resumes: u64,
}

impl Recovery {
    fn add(
        &mut self,
        kills: usize,
        end_ns: u64,
        host_ns: f64,
        w: &MembershipReport,
        clean: (u64, f64),
    ) {
        let k = kills as u64;
        if k == 0 {
            return;
        }
        self.failures += k;
        self.runs += 1;
        self.extra_sim_ns += end_ns.saturating_sub(clean.0);
        self.extra_host_ns += host_ns - clean.1;
        self.detect_ns += w.detect_ns;
        self.agree_ns += w.agree_ns;
        self.reexec_ns += w.reexec_ns;
        self.agreements += u64::from(w.agreements);
        self.resumes += u64::from(w.resumes);
    }

    fn ms_per_failure(&self) -> f64 {
        self.extra_sim_ns as f64 / 1e6 / self.failures.max(1) as f64
    }

    fn emit(&self, o: &mut Outcome) {
        let f = self.failures.max(1) as f64;
        let base = format!(
            "over {} injected kills in {} runs",
            self.failures, self.runs
        );
        o.layer(
            "detect_ms",
            self.detect_ns as f64 / 1e6 / f,
            "ms",
            format!("worst rank, {base}"),
        );
        o.layer(
            "agree_ms",
            self.agree_ns as f64 / 1e6 / f,
            "ms",
            format!("worst rank, {base}"),
        );
        o.layer(
            "reexec_ms",
            self.reexec_ns as f64 / 1e6 / f,
            "ms",
            format!("worst rank, {base}"),
        );
        o.layer(
            "agreements_per_failure",
            self.agreements as f64 / f,
            "count",
            format!("worst rank, {base}"),
        );
        o.layer(
            "resumes_per_run",
            self.resumes as f64 / self.runs.max(1) as f64,
            "count",
            format!("worst rank, {base}"),
        );
        o.layer(
            "host_ms_per_failure",
            self.extra_host_ns / 1e6 / f,
            "ms",
            format!("host time over the clean call, {base}"),
        );
    }
}

/// Profiles, tuner, the mix, and a cold compile + costing of every
/// member plan of the six operations.
fn setup(seed: u64) -> (ArchProfile, Vec<Case>, PlanCost) {
    PlanCache::global().clear();
    let arch = trace::span("model", "ArchProfile", ArchProfile::knl);
    let tuner = trace::span("collectives", "Tuner::new", || Tuner::new(&arch));
    let cases = mix(seed);
    let shapes: Vec<Shape> = cases
        .iter()
        .filter(|c| c.kills.is_empty())
        .map(|c| shape_of(&c.sop))
        .collect();
    let mut cost = PlanCost::default();
    cost.compile_all(&shapes, std::slice::from_ref(&tuner));
    (arch, cases, cost)
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut o = Outcome::default();
    let ((arch, cases, cost), setup_s) =
        common::repeated_setup(common::Clock::Cpu, || setup(cfg.seed));
    let n = cases.len();
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut host: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut layers = SimLayers::default();
    let mut drift = 0u64;
    let mut reports: Vec<Option<MembershipReport>> = vec![None; n];
    let cache0 = PlanCache::global().stats();
    let timed = common::timed_rounds(cfg, |_, traced, cal| {
        for (i, case) in cases.iter().enumerate() {
            o.attempted += 1;
            cal.tick();
            let out = run_case(&arch, case, cfg.seed);
            host[i].push(out.host_ns as f64 / 1e6 * cal.scale_now());
            if !cfg.trace || traced {
                let steps = out.ranks.iter().flatten().map(|r| r.2).sum();
                layers.add(&out.run, out.host_ns, steps);
            }
            let victims = case.kills.len();
            let errs = out.ranks.iter().filter(|r| r.is_err()).count();
            if errs > victims {
                o.failed += 1;
            }
            if reports[i].is_none() {
                reports[i] = Some(worst(&out));
                if let Err(e) = check_case(case, cfg.seed, &out) {
                    o.fail_check(format!("{} kills {:?}: {e}", case.sop.name(), case.kills));
                }
            }
            match first[i] {
                None => first[i] = Some(out.run.end_ns),
                Some(t) if t != out.run.end_ns => drift += 1,
                Some(_) => {}
            }
        }
    });
    let rss = peak_rss_bytes();
    o.throughput(&host);
    o.setup(setup_s, timed.scale);
    o.host_percentiles(&host);
    o.e2e(
        "peak_rss_mb",
        rss as f64 / (1 << 20) as f64,
        "MB",
        "VmHWM after the timed phase",
    );
    if drift > 0 {
        o.fail_check(format!(
            "{drift} repeats of a case changed its simulated end time"
        ));
    }

    let mut clean = [(0u64, 0f64); 6];
    for (i, c) in cases.iter().enumerate() {
        if c.kills.is_empty() {
            clean[c.op] = (first[i].unwrap_or(0), median(&host[i]).unwrap_or(0.0) * 1e6);
        }
    }
    let mut rec = Recovery::default();
    let mut lat = Vec::new();
    for (i, c) in cases.iter().enumerate() {
        let (Some(end), Some(w)) = (first[i], &reports[i]) else {
            continue;
        };
        lat.push((shape_of(&c.sop), end as f64));
        let host_med = median(&host[i]).unwrap_or(0.0) * 1e6;
        rec.add(c.kills.len(), end, host_med, w, clean[c.op]);
    }
    o.e2e(
        "sim_ms_per_failure",
        rec.ms_per_failure(),
        "ms",
        format!(
            "simulated end time over the clean call, {} kills in {} runs",
            rec.failures, rec.runs
        ),
    );
    sim_figures(
        &mut o,
        &lat,
        0,
        "six survivable collectives, end time incl. recovery",
    );
    if cfg.trace {
        layers.emit(&mut o, true);
        rec.emit(&mut o);
        common::plan_cache_delta(&mut o, cache0, (timed.rounds * n) as u64);
        cost.emit(&mut o);
        common::trace_overhead(&mut o, &timed);
        crate::probes::exec_probe(&mut o);
    }
    o
}

/// `sim_ms_per_failure` for workloads that inject no kills: one Bruck
/// Allgather on KNL at p=64, clean and with one seeded kill, checked like
/// the survivable workload's cases. Membership per-layer metrics come
/// from the same pair when tracing.
pub fn failure_probe(cfg: &Cfg, o: &mut Outcome) {
    let was = trace::enabled();
    trace::set_enabled(false);
    let arch = ArchProfile::knl();
    let mut rng = Rng::new(cfg.seed, 0xFA11);
    let sop = ops(COUNT, &[0; 6])[3];
    let clean = Case {
        op: 3,
        sop,
        kills: Vec::new(),
    };
    let killed = Case {
        op: 3,
        sop,
        kills: vec![(1 + rng.below(P as u64 - 1) as usize, 1 + rng.below(4))],
    };
    let c = run_case(&arch, &clean, cfg.seed);
    let k = run_case(&arch, &killed, cfg.seed);
    for (case, out) in [(&clean, &c), (&killed, &k)] {
        if let Err(e) = check_case(case, cfg.seed, out) {
            o.fail_check(format!("failure probe {:?}: {e}", case.kills));
        }
    }
    let mut rec = Recovery::default();
    let clean_at = (c.run.end_ns, c.host_ns as f64);
    rec.add(1, k.run.end_ns, k.host_ns as f64, &worst(&k), clean_at);
    o.e2e(
        "sim_ms_per_failure",
        rec.ms_per_failure(),
        "ms",
        format!(
            "probe: one kill {:?} in a Bruck Allgather, KNL p=64",
            killed.kills
        ),
    );
    if cfg.trace {
        rec.emit(o);
    }
    trace::set_enabled(was);
}
