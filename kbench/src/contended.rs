//! `sim-contended`: the one-to-all and all-to-one compiled collectives
//! (Scatter, Gather, Bcast) on the polled engine with phantom buffers,
//! at full subscription on KNL (p=64), Broadwell (p=28) and Power8
//! (p=64), 4 KiB – 1 MiB, each with the tuner's pick, the unthrottled
//! direct variant and the paper's throttle factors.

use crate::common::{self, Cfg, Outcome, SimLayers};
use crate::probes::{self, PlanCost};
use crate::simrun::{self, Algo, Shape};
use crate::survivable;
use crate::trace;
use crate::util::{geomean, median, peak_rss_bytes, Rng};
use kacc_collectives::{BcastAlgo, GatherAlgo, PlanCache, ScatterAlgo, Tuner};
use kacc_model::ArchProfile;

/// Profiles and group sizes.
pub fn platforms() -> Vec<(ArchProfile, usize)> {
    vec![
        (ArchProfile::knl(), 64),
        (ArchProfile::broadwell(), 28),
        (ArchProfile::power8(), 64),
    ]
}

/// The paper's throttle factors per architecture (Figs 7–8 legends).
pub fn paper_throttles(arch: &ArchProfile) -> &'static [usize] {
    match arch.name.as_str() {
        "KNL" => &[2, 4, 8, 16],
        "Broadwell" => &[2, 4, 7, 14],
        _ => &[2, 4, 10, 20],
    }
}

/// Heavy shapes given a real-bytes run per run (see
/// [`crate::check::real_bytes_plan`]).
pub const HEAVY_PER_RUN: usize = 4;

/// Message sizes.
pub const SIZES: [usize; 5] = [4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20];

/// The seeded mix: every (profile, collective, size) with its variants,
/// in a seeded order with seeded roots. Sizes are fixed, so the tuner's
/// picks (and the host cost of the mix) do not depend on the seed.
pub fn mix(seed: u64, archs: &[(ArchProfile, usize)], tuners: &[Tuner]) -> Vec<Shape> {
    let mut rng = Rng::new(seed, 0xC0);
    let mut shapes = Vec::new();
    for (ai, (arch, p)) in archs.iter().enumerate() {
        let p = *p;
        let t = &tuners[ai];
        for count in SIZES {
            for coll in 0..3 {
                let root = rng.below(p as u64) as usize;
                let mut algos = match coll {
                    0 => vec![
                        Algo::Scatter(t.scatter(p, count)),
                        Algo::Scatter(ScatterAlgo::ParallelRead),
                    ],
                    1 => vec![
                        Algo::Gather(t.gather(p, count)),
                        Algo::Gather(GatherAlgo::ParallelWrite),
                    ],
                    _ => vec![
                        Algo::Bcast(t.bcast(p, count)),
                        Algo::Bcast(BcastAlgo::DirectRead),
                    ],
                };
                for &k in paper_throttles(arch) {
                    algos.push(match coll {
                        0 => Algo::Scatter(ScatterAlgo::ThrottledRead { k }),
                        1 => Algo::Gather(GatherAlgo::ThrottledWrite { k }),
                        _ => Algo::Bcast(BcastAlgo::KNomial { radix: k + 1 }),
                    });
                }
                let mut seen = Vec::new();
                for algo in algos {
                    if !seen.contains(&algo) {
                        seen.push(algo);
                        shapes.push(Shape {
                            arch: ai,
                            p,
                            algo,
                            count,
                            root,
                        });
                    }
                }
            }
        }
    }
    rng.shuffle(&mut shapes);
    shapes
}

/// Everything set-up produces.
pub struct Setup {
    /// Profiles and group sizes.
    pub archs: Vec<(ArchProfile, usize)>,
    /// The seeded mix.
    pub shapes: Vec<Shape>,
    /// Cold compile / costing accounting.
    pub cost: PlanCost,
}

/// Profiles, tuners, the mix, and a cold compile + costing of every
/// per-rank plan, starting from an empty plan cache.
pub fn setup(seed: u64) -> Setup {
    PlanCache::global().clear();
    let archs = trace::span("model", "ArchProfile", platforms);
    let tuners: Vec<Tuner> = trace::span("collectives", "Tuner::new", || {
        archs.iter().map(|(a, _)| Tuner::new(a)).collect()
    });
    let shapes = trace::span("collectives", "Tuner picks", || mix(seed, &archs, &tuners));
    let mut cost = PlanCost::default();
    cost.compile_all(&shapes, &tuners);
    Setup {
        archs,
        shapes,
        cost,
    }
}

/// Simulated end-to-end figures of a set of distinct shapes: geomean and
/// median latency, and delivered bytes per simulated second over the
/// shapes of at least `big` bytes.
pub fn sim_figures(o: &mut Outcome, lat: &[(Shape, f64)], big: usize, what: &str) {
    let us: Vec<f64> = lat.iter().map(|(_, ns)| ns / 1e3).collect();
    o.e2e(
        "sim_us.geomean",
        geomean(&us).unwrap_or(0.0),
        "us",
        format!("{} distinct shapes ({what})", us.len()),
    );
    o.e2e(
        "cma_us.p50",
        median(&us).unwrap_or(0.0),
        "us",
        format!("simulated: median of {} distinct shapes ({what})", us.len()),
    );
    let (mut bytes, mut secs) = (0u64, 0.0);
    for (s, ns) in lat.iter().filter(|(s, _)| s.count >= big) {
        bytes += s.algo.kind().delivered_bytes(s.p, s.count);
        secs += ns / 1e9;
    }
    o.e2e(
        "cma_gbps",
        bytes as f64 / secs.max(1e-12) / 1e9,
        "GB/s",
        format!("simulated: delivered bytes per simulated second, shapes >= {big} B ({what})"),
    );
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut o = Outcome::default();
    let (st, setup_s) = common::repeated_setup(common::Clock::Cpu, || setup(cfg.seed));
    let n = st.shapes.len();
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut host_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut layers = SimLayers::default();
    let mut drift = 0u64;
    let cache0 = PlanCache::global().stats();
    let timed = common::timed_rounds(cfg, |_, traced, cal| {
        for (i, s) in st.shapes.iter().enumerate() {
            o.attempted += 1;
            cal.tick();
            match simrun::run(&st.archs[s.arch].0, *s, false, cfg.seed) {
                Ok(out) => {
                    host_ms[i].push(out.host_ns as f64 / 1e6 * cal.scale_now());
                    if !cfg.trace || traced {
                        layers.add(&out.run, out.host_ns, out.steps);
                    }
                    match first[i] {
                        None => first[i] = Some(out.sim_ns),
                        Some(t) if t != out.sim_ns => drift += 1,
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    o.failed += 1;
                    eprintln!("failed: {s:?}: {e}");
                }
            }
        }
    });
    let rss = peak_rss_bytes();
    let ops = timed.rounds as u64 * n as u64;
    if cfg.trace {
        layers.emit(&mut o, true);
        common::plan_cache_delta(&mut o, cache0, ops);
        st.cost.emit(&mut o);
        common::trace_overhead(&mut o, &timed);
        probes::exec_probe(&mut o);
    }
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
            "{drift} repeats of a shape changed its simulated time"
        ));
    }

    // Checks: distinct shapes with real bytes (all light ones, a seeded
    // few heavy ones); simulated time equal to the phantom run's, and
    // above one η-byte copy.
    let was = trace::enabled();
    trace::set_enabled(false);
    let feet: Vec<usize> = st
        .shapes
        .iter()
        .map(|s| crate::check::footprint(s.algo.kind(), s.p, s.count, s.root))
        .collect();
    let plan = crate::check::real_bytes_plan(cfg.seed, &feet, HEAVY_PER_RUN);
    let mut lat = Vec::new();
    for (i, s) in st.shapes.iter().enumerate() {
        let arch = &st.archs[s.arch].0;
        let Some(phantom) = first[i] else { continue };
        if plan[i] {
            match simrun::run(arch, *s, true, cfg.seed) {
                Ok(out) => {
                    if let Err(e) = simrun::check_outputs(s, cfg.seed, &out) {
                        o.fail_check(format!("{s:?}: {e}"));
                    }
                    if out.sim_ns != phantom {
                        o.fail_check(format!(
                            "{s:?}: real-bytes run took {} ns, phantom {phantom} ns",
                            out.sim_ns
                        ));
                    }
                }
                Err(e) => o.fail_check(format!("{s:?} real-bytes run: {e}")),
            }
        }
        if let Err(e) = crate::check::check_floor(phantom as f64, s.count, arch.beta_ns_per_byte())
        {
            o.fail_check(format!("{s:?}: {e}"));
        }
        lat.push((*s, phantom as f64));
    }
    trace::set_enabled(was);
    sim_figures(&mut o, &lat, 256 << 10, "Scatter/Gather/Bcast, 3 profiles");
    survivable::failure_probe(cfg, &mut o);
    o
}
