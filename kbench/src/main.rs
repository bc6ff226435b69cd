//! kbench — the kacc benchmark: four workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path kbench/Cargo.toml -- \
//!     --workload sim-contended --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the run
//! report. See `kbench/README.md`.

mod check;
mod common;
mod contended;
mod native;
mod personas;
mod probes;
mod simrun;
mod survivable;
mod trace;
mod util;

use common::{Cfg, Metric, Outcome};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Workload names.
const WORKLOADS: [&str; 4] = [
    "sim-contended",
    "sim-survivable",
    "sim-personas",
    "native-cma",
];

/// End-to-end metrics every untraced run reports (`BENCHMARK.json`).
const END_TO_END: [&str; 9] = [
    "setup_s",
    "colls_per_s",
    "host_ms.p50",
    "host_ms.p90",
    "sim_us.geomean",
    "sim_ms_per_failure",
    "cma_us.p50",
    "cma_gbps",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports (`BENCHMARK.json`); a
/// layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("events_per_coll", "count"),
    ("host_ns_per_event", "ns"),
    ("queue_len_hwm", "count"),
    ("fast_handoff_ratio", "ratio"),
    ("wakes_raw_per_coll", "count"),
    ("wake_fanout_mean", "count"),
    ("wake_fanout_max", "count"),
    ("lock_recaches_per_coll", "count"),
    ("mem_recaches_per_coll", "count"),
    ("lock_depth_p90", "count"),
    ("syscall_us", "us"),
    ("lock_us", "us"),
    ("pin_us", "us"),
    ("copy_us", "us"),
    ("compile_us", "us"),
    ("plan_hit_ratio", "ratio"),
    ("plan_evictions_per_coll", "count"),
    ("exec_us", "us"),
    ("steps_per_coll", "count"),
    ("cost_schedule_us", "us"),
    ("detect_ms", "ms"),
    ("agree_ms", "ms"),
    ("reexec_ms", "ms"),
    ("agreements_per_failure", "count"),
    ("resumes_per_run", "count"),
    ("host_ms_per_failure", "ms"),
    ("host_ms.mvapich2", "ms"),
    ("host_ms.intelmpi", "ms"),
    ("host_ms.openmpi", "ms"),
    ("host_ms.kacc", "ms"),
    ("sim_us.mvapich2", "us"),
    ("sim_us.intelmpi", "us"),
    ("sim_us.openmpi", "us"),
    ("sim_us.kacc", "us"),
    ("fork_ms", "ms"),
    ("ring_rtt_us", "us"),
    ("barrier_us", "us"),
    ("cma_read_gbps", "GB/s"),
    ("cma_us.p90", "us"),
    ("trace_overhead_pct", "%"),
    ("self_tests_passed", "count"),
];

fn usage() -> String {
    format!(
        "usage: kbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Cfg), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut cfg = Cfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => cfg.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let w = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&w.as_str()) {
        return Err(format!("unknown workload {w}"));
    }
    Ok((w, cfg))
}

/// The checks' self-tests: each check must pass on good data and fail on
/// one corrupted byte, one dropped survivor, or one impossible latency.
fn self_tests() -> Result<u64, String> {
    use check::Kind;
    use kacc_collectives::Tuner;
    use kacc_model::ArchProfile;
    let arch = ArchProfile::broadwell();
    let t = Tuner::new(&arch);
    let (p, count, seed) = (4, 64, 0x5E1F);
    let mut passed = 0;
    for kind in Kind::ALL {
        let algo = match kind {
            Kind::Scatter => simrun::Algo::Scatter(t.scatter(p, count)),
            Kind::Gather => simrun::Algo::Gather(t.gather(p, count)),
            Kind::Bcast => simrun::Algo::Bcast(t.bcast(p, count)),
            Kind::Allgather => simrun::Algo::Allgather(t.allgather(p, count)),
            Kind::Alltoall => simrun::Algo::Alltoall(t.alltoall(p, count)),
            Kind::Reduce => simrun::Algo::Reduce(t.reduce(p, count)),
        };
        let s = simrun::Shape {
            arch: 0,
            p,
            algo,
            count,
            root: 1,
        };
        let mut out = simrun::run(&arch, s, true, seed)?;
        simrun::check_outputs(&s, seed, &out)
            .map_err(|e| format!("self-test {}: {e}", kind.name()))?;
        let members: Vec<usize> = (0..p).collect();
        let rank = (0..p)
            .find(|&r| check::expected(kind, seed, &members, r, count, 1).is_some())
            .ok_or("self-test: no rank has an output")?;
        let buf = out.outputs[rank]
            .as_mut()
            .ok_or("self-test: no output to corrupt")?;
        buf[count / 2] ^= 0x01;
        if simrun::check_outputs(&s, seed, &out).is_ok() {
            return Err(format!(
                "self-test {}: a corrupted byte passed the check",
                kind.name()
            ));
        }
        passed += 1;
    }
    let good = vec![vec![0, 2, 3], vec![0, 2, 3], vec![0, 2, 3]];
    check::check_members(&good, 4, &[1])?;
    let dropped = vec![vec![0, 2, 3], vec![0, 3], vec![0, 2, 3]];
    if check::check_members(&dropped, 4, &[1]).is_ok() {
        return Err("self-test: a dropped survivor passed the member check".into());
    }
    let beta = arch.beta_ns_per_byte();
    check::check_floor(2.0 * count as f64 * beta, count, beta)?;
    if check::check_floor(0.5 * count as f64 * beta, count, beta).is_ok() {
        return Err("self-test: a sub-copy latency passed the floor check".into());
    }
    Ok(passed + 2)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

extern "C" {
    /// glibc's allocator tuning entry point.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

fn main() -> ExitCode {
    // With one malloc arena per thread, the thread-per-rank engine's
    // resident memory swings by half between identical runs; two arenas
    // make `peak_rss_mb` repeatable.
    // SAFETY: called before any thread exists; only tunes the allocator.
    unsafe { mallopt(M_ARENA_MAX, 2) };
    let (workload, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("kbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let self_test = self_tests();
    if cfg.trace {
        trace::start();
    }
    let mut o: Outcome = match workload.as_str() {
        "sim-contended" => contended::run(&cfg),
        "sim-survivable" => survivable::run(&cfg),
        "sim-personas" => personas::run(&cfg),
        _ => native::run(&cfg),
    };
    match self_test {
        Ok(n) => o.layer(
            "self_tests_passed",
            n as f64,
            "count",
            "checks shown to reject bad data",
        ),
        Err(e) => o.fail_check(e),
    }

    println!(
        "kbench workload={workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!(
        "  operations: attempted {}, failed {}",
        o.attempted, o.failed
    );
    let mut metrics: BTreeMap<String, Metric> = BTreeMap::new();
    if cfg.trace {
        for (name, unit) in PER_LAYER {
            let m = o.layer.remove(name).unwrap_or(Metric {
                value: 0.0,
                unit,
                note: "layer not exercised by this workload".into(),
            });
            if m.unit != unit {
                eprintln!("kbench: {name} reported in {} instead of {unit}", m.unit);
                return ExitCode::from(3);
            }
            metrics.insert(name.to_string(), m);
        }
    } else {
        for name in END_TO_END {
            let Some(m) = o.e2e.remove(name) else {
                eprintln!("kbench: {workload} did not report {name}");
                return ExitCode::from(3);
            };
            metrics.insert(name.to_string(), m);
        }
    }
    for (name, m) in &metrics {
        println!("  {name:<24} {:>14.4} {:<6} {}", m.value, m.unit, m.note);
    }
    if cfg.trace {
        let spans = trace::spans();
        print!("{}", trace::layer_table(&spans));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = format!("{workload}-seed{}", cfg.seed);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| {
                std::fs::write(
                    dir.join(format!("{stem}.trace.json")),
                    trace::chrome_json(&spans),
                )
            })
            .and_then(|_| {
                std::fs::write(
                    dir.join(format!("{stem}.layers.txt")),
                    trace::layer_table(&spans),
                )
            });
        match written {
            Ok(()) => println!(
                "  trace: {} spans written to {}",
                spans.len(),
                dir.join(&stem).display()
            ),
            Err(e) => o.fail_check(format!("writing the trace: {e}")),
        }
    }
    for e in &o.errors {
        println!("  CHECK FAILED: {e}");
    }
    let correct = o.errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, m)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
