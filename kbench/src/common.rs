//! What every workload shares: run configuration, the closed-loop timed
//! phase, repeated set-up, per-layer accumulators and the outcome record.

use crate::trace;
use crate::util::{cpu_ns, median, quantile, tail_q};
use kacc_machine::TeamRun;
use kacc_metrics::{bucket_bound, LocalHist};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line configuration of one run.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// One reported value: number, unit, and how it was obtained (sample
/// count or base), printed in the run report.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count / base note.
    pub note: String,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced runs).
    pub e2e: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics (traced runs).
    pub layer: BTreeMap<String, Metric>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Check failures (wrong bytes, broken invariants).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn e2e(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.e2e.insert(
            name,
            Metric {
                value,
                unit,
                note: note.into(),
            },
        );
    }

    /// Record a per-layer metric.
    pub fn layer(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.layer.insert(
            name.into(),
            Metric {
                value,
                unit,
                note: note.into(),
            },
        );
    }

    /// Record a check failure (keeps the first few messages).
    pub fn fail_check(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        } else if self.errors.len() == 20 {
            self.errors.push("further check failures suppressed".into());
        }
    }

    /// `host_ms.p50` and `host_ms.p90` over the mix's distinct operations,
    /// each represented by its median host time across rounds. Taking the
    /// per-operation median first keeps one slow sample from moving a
    /// percentile that falls between two classes of operations.
    pub fn host_percentiles(&mut self, per_op_ms: &[Vec<f64>]) {
        let meds: Vec<f64> = per_op_ms.iter().filter_map(|v| median(v)).collect();
        let n = meds.len();
        let reps = per_op_ms.iter().map(Vec::len).min().unwrap_or(0);
        let base = format!("{n} operations, each the median of >= {reps} samples");
        self.e2e(
            "host_ms.p50",
            median(&meds).unwrap_or(0.0),
            "ms",
            format!("median over {base}"),
        );
        let (q, note) = match tail_q(n) {
            Some(q) => (q, format!("q{q:.3} over {base}")),
            None => (0.5, format!("median only: {base} (< 40)")),
        };
        self.e2e("host_ms.p90", quantile(&meds, q).unwrap_or(0.0), "ms", note);
    }

    /// `colls_per_s`: the operations of one round over the sum of their
    /// median host times.
    pub fn throughput(&mut self, per_op_ms: &[Vec<f64>]) {
        let round_ms: f64 = per_op_ms.iter().filter_map(|v| median(v)).sum();
        self.e2e(
            "colls_per_s",
            per_op_ms.len() as f64 / (round_ms / 1e3),
            "1/s",
            format!(
                "{} operations over the sum of their median host times",
                per_op_ms.len()
            ),
        );
    }

    /// `setup_s` at the reference speed.
    pub fn setup(&mut self, setup_s: f64, scale: f64) {
        self.e2e(
            "setup_s",
            setup_s * scale,
            "s",
            format!("median of {SETUP_REPS} set-ups, x{scale:.4}"),
        );
    }
}

/// Which clock a host-time measurement reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// This process's CPU time (work done in-process).
    Cpu,
    /// Wall time (work that waits on other processes).
    Wall,
}

impl Clock {
    /// A reading in seconds on this clock's own epoch.
    pub fn now_s(self, epoch: Instant) -> f64 {
        match self {
            Clock::Cpu => cpu_ns() as f64 / 1e9,
            Clock::Wall => epoch.elapsed().as_secs_f64(),
        }
    }
}

/// Run `setup` [`SETUP_REPS`] times; return the last result and the
/// median duration in seconds on `clock`.
pub fn repeated_setup<T>(clock: Clock, mut setup: impl FnMut() -> T) -> (T, f64) {
    let epoch = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = clock.now_s(epoch);
        last = Some(trace::span("bench", "setup", &mut setup));
        secs.push(clock.now_s(epoch) - t0);
    }
    (
        last.expect("at least one set-up"),
        median(&secs).expect("set-up durations"),
    )
}

/// Host time of the closed-loop timed phase.
pub struct Timed {
    /// Whole rounds completed.
    pub rounds: usize,
    /// Host CPU time of traced rounds at the reference speed, s (traced
    /// runs only).
    pub traced_s: Vec<f64>,
    /// Host CPU time of untraced rounds at the reference speed, s.
    pub plain_s: Vec<f64>,
    /// Factor from this run's host speed to the reference speed.
    pub scale: f64,
}

/// CPU time of one [`reference_work`] on the machine the bounds were
/// measured on, ms (see `README.md`).
const REF_NOMINAL_MS: f64 = 2.0;

/// Calibration against a fixed CPU reference that runs no kacc code
/// (see [`reference_work`]). On a shared machine the work one CPU-second
/// buys moves by up to 2.5x from one second to the next; host times
/// scaled by the reference measured around them keep the program's own
/// cost.
pub struct Calib {
    table: Vec<u64>,
    last: Instant,
    samples_ms: Vec<f64>,
}

const CALIB_EVERY: Duration = Duration::from_millis(100);
/// Samples behind [`Calib::scale_now`].
const CALIB_WINDOW: usize = 5;

impl Calib {
    /// A calibrator with its table touched and three samples taken.
    pub fn new() -> Calib {
        let mut c = Calib {
            table: vec![0; 1 << 15],
            last: Instant::now(),
            samples_ms: Vec::new(),
        };
        std::hint::black_box(reference_work(&mut c.table));
        for _ in 0..3 {
            c.sample();
        }
        c
    }

    fn sample(&mut self) {
        let c0 = cpu_ns();
        std::hint::black_box(reference_work(&mut self.table));
        self.samples_ms.push((cpu_ns() - c0) as f64 / 1e6);
        self.last = Instant::now();
    }

    /// Take a sample if the last one is more than 100 ms old.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= CALIB_EVERY {
            self.sample();
        }
    }

    /// Factor to the reference speed from the latest few samples: the
    /// host's speed moves by up to 2.5x from one second to the next.
    pub fn scale_now(&self) -> f64 {
        let recent = &self.samples_ms[self.samples_ms.len().saturating_sub(CALIB_WINDOW)..];
        REF_NOMINAL_MS / median(recent).unwrap_or(REF_NOMINAL_MS)
    }

    /// Reference time over this run's median reference time.
    pub fn scale(&self) -> f64 {
        REF_NOMINAL_MS / median(&self.samples_ms).unwrap_or(REF_NOMINAL_MS)
    }
}

/// The calibration workload: a priority queue, a hash map and random
/// reads and writes over a 256 KiB table — the mix of the simulator's
/// event loop — independent of every kacc crate.
fn reference_work(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut rng = crate::util::Rng::new(0xCA11B, 0);
    let mut map = std::collections::HashMap::with_capacity(4096);
    let mut heap = std::collections::BinaryHeap::with_capacity(256);
    let mut acc = 0u64;
    for i in 0..40_000u64 {
        let r = rng.next_u64();
        let a = r as usize & mask;
        table[a] = table[a].wrapping_add(r);
        acc ^= table[(r >> 24) as usize & mask];
        heap.push(std::cmp::Reverse(r >> 8));
        if heap.len() > 128 {
            acc ^= heap.pop().map_or(0, |std::cmp::Reverse(v)| v);
        }
        if i % 4 == 0 {
            map.insert(r & 0x3FFF, i);
        }
    }
    acc ^ map.len() as u64
}

/// Run whole rounds until `cfg.seconds` have passed (at least one). A
/// traced run alternates untraced and traced rounds, so the tracing
/// overhead is measured on the same inputs in the same process; the
/// round callback learns whether it is traced.
pub fn timed_rounds(cfg: &Cfg, mut round: impl FnMut(usize, bool, &mut Calib)) -> Timed {
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut cal = Calib::new();
    let t0 = Instant::now();
    let mut out = Timed {
        rounds: 0,
        traced_s: Vec::new(),
        plain_s: Vec::new(),
        scale: 1.0,
    };
    loop {
        let traced = cfg.trace && out.rounds % 2 == 1;
        trace::set_enabled(traced);
        let r0 = cpu_ns();
        let mut cal_ms = cal.samples_ms.iter().sum::<f64>();
        trace::span("bench", "round", || round(out.rounds, traced, &mut cal));
        cal_ms = cal.samples_ms.iter().sum::<f64>() - cal_ms;
        let dt = ((cpu_ns() - r0) as f64 / 1e9 - cal_ms / 1e3) * cal.scale_now();
        if traced {
            out.traced_s.push(dt);
        } else {
            out.plain_s.push(dt);
        }
        out.rounds += 1;
        let enough = !cfg.trace || (!out.traced_s.is_empty() && !out.plain_s.is_empty());
        if t0.elapsed() >= budget && enough {
            break;
        }
    }
    trace::set_enabled(cfg.trace);
    out.scale = cal.scale();
    out
}

/// `trace_overhead_pct`: median traced round over median untraced round.
pub fn trace_overhead(o: &mut Outcome, t: &Timed) {
    let (Some(tr), Some(pl)) = (median(&t.traced_s), median(&t.plain_s)) else {
        return;
    };
    o.layer(
        "trace_overhead_pct",
        100.0 * (tr - pl) / pl,
        "%",
        format!(
            "base: untraced round {:.1} ms (median of {}), traced {:.1} ms (median of {})",
            pl * 1e3,
            t.plain_s.len(),
            tr * 1e3,
            t.traced_s.len()
        ),
    );
}

/// Engine and machine counters summed over simulated runs.
#[derive(Debug, Default, Clone)]
pub struct SimLayers {
    /// Collectives accounted.
    pub colls: u64,
    /// Host time of the engine calls, ns.
    pub host_ns: u64,
    /// IR steps executed (summed over ranks).
    pub steps: u64,
    /// Kernel events.
    pub events: u64,
    /// Events taking the direct-handoff fast path.
    pub fast_handoffs: u64,
    /// Event-queue high-water mark (max over runs).
    pub queue_hwm: u64,
    /// Raw wake requests.
    pub wakes_raw: u64,
    /// Wake fan-out distribution.
    pub fanout: LocalHist,
    /// Lock-server grant recomputations.
    pub lock_recaches: u64,
    /// Memory-system rate recomputations.
    pub mem_recaches: u64,
    /// Lock queue depth distribution.
    pub lock_depth: LocalHist,
    /// Modelled phases summed over ranks, ns.
    pub syscall_ns: f64,
    /// Lock phase, ns.
    pub lock_ns: f64,
    /// Pin phase, ns.
    pub pin_ns: f64,
    /// Copy phase, ns.
    pub copy_ns: f64,
}

impl SimLayers {
    /// Fold one engine run in.
    pub fn add(&mut self, run: &TeamRun, host_ns: u64, steps: u64) {
        self.colls += 1;
        self.host_ns += host_ns;
        self.steps += steps;
        self.events += run.events;
        self.fast_handoffs += run.sim.fast_handoffs;
        self.queue_hwm = self.queue_hwm.max(run.sim.queue_len_hwm);
        self.wakes_raw += run.sim.wakes_raw;
        self.fanout.merge(&run.sim.wake_fanout);
        self.lock_recaches += run.lock_recaches;
        self.mem_recaches += run.mem_recaches;
        self.lock_depth.merge(&run.lock_depth);
        let t = run.total_stats();
        self.syscall_ns += t.syscall_ns;
        self.lock_ns += t.lock_ns;
        self.pin_ns += t.pin_ns;
        self.copy_ns += t.copy_ns;
    }

    /// Emit the sim-core and machine per-layer metrics.
    pub fn emit(&self, o: &mut Outcome, steps_known: bool) {
        let n = self.colls.max(1) as f64;
        let base = format!("over {} collectives", self.colls);
        o.layer(
            "events_per_coll",
            self.events as f64 / n,
            "count",
            base.clone(),
        );
        o.layer(
            "host_ns_per_event",
            self.host_ns as f64 / self.events.max(1) as f64,
            "ns",
            format!("over {} events", self.events),
        );
        o.layer(
            "queue_len_hwm",
            self.queue_hwm as f64,
            "count",
            "max over runs",
        );
        o.layer(
            "fast_handoff_ratio",
            self.fast_handoffs as f64 / self.events.max(1) as f64,
            "ratio",
            format!(
                "base: {} events, {} fast handoffs",
                self.events, self.fast_handoffs
            ),
        );
        o.layer(
            "wakes_raw_per_coll",
            self.wakes_raw as f64 / n,
            "count",
            base.clone(),
        );
        o.layer(
            "wake_fanout_mean",
            self.fanout.mean().unwrap_or(0.0),
            "count",
            format!("{} flushes", self.fanout.count()),
        );
        o.layer(
            "wake_fanout_max",
            self.fanout.max() as f64,
            "count",
            "max over runs",
        );
        o.layer(
            "lock_recaches_per_coll",
            self.lock_recaches as f64 / n,
            "count",
            base.clone(),
        );
        o.layer(
            "mem_recaches_per_coll",
            self.mem_recaches as f64 / n,
            "count",
            base.clone(),
        );
        o.layer(
            "lock_depth_p90",
            hist_quantile(&self.lock_depth, 0.9) as f64,
            "count",
            format!("log2-bucket bound, {} samples", self.lock_depth.count()),
        );
        for (name, ns) in [
            ("syscall_us", self.syscall_ns),
            ("lock_us", self.lock_ns),
            ("pin_us", self.pin_ns),
            ("copy_us", self.copy_ns),
        ] {
            o.layer(
                name,
                ns / 1e3 / n,
                "us",
                format!("summed over ranks, per collective, {base}"),
            );
        }
        if steps_known {
            o.layer(
                "steps_per_coll",
                self.steps as f64 / n,
                "count",
                format!("summed over ranks, {base}"),
            );
        }
    }
}

/// Upper bound of the log₂ bucket holding quantile `q` of `h`.
pub fn hist_quantile(h: &LocalHist, q: f64) -> u64 {
    let n = h.count();
    if n == 0 {
        return 0;
    }
    let target = (q * n as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &c) in h.buckets().iter().enumerate() {
        seen += c;
        if seen >= target {
            return bucket_bound(i).min(h.max());
        }
    }
    h.max()
}

/// Plan-cache counters over an interval.
pub fn plan_cache_delta(
    o: &mut Outcome,
    before: kacc_collectives::schedule::PlanCacheStats,
    colls: u64,
) {
    let after = kacc_collectives::PlanCache::global().stats();
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    o.layer(
        "plan_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
        format!("base: {lookups} lookups"),
    );
    o.layer(
        "plan_evictions_per_coll",
        (after.evictions - before.evictions) as f64 / colls.max(1) as f64,
        "count",
        format!("over {colls} collectives"),
    );
}
