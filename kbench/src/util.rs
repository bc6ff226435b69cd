//! Seeded generators, order statistics and process probes shared by the
//! workloads.

/// splitmix64: a tiny, seedable, well-mixed generator. The benchmark
/// derives every input (mix order, sizes, roots, victims, payload bytes)
/// from `(seed, stream)` pairs, so one `--seed` reproduces one input set.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one named stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_F42D_4C95_7F2D))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The splitmix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Quantile by linear interpolation between closest ranks (`q` in
/// `0..=1`). `None` on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median (see [`quantile`]).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p90 — the tail a sample of this size can show. `None` below 40
/// samples, where only the median is meaningful.
pub fn tail_q(n: usize) -> Option<f64> {
    if n < 40 {
        return None;
    }
    Some((1.0 - 10.0 / n as f64).min(0.9))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed so far by this process (all threads, user + system),
/// ns. Host-time metrics of the simulated workloads use it: it counts
/// the work the program does, not the time other tenants of the machine
/// hold its cores.
pub fn cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Bytes `off..off + out.len()` of the seeded payload of `stream`.
/// Word `i` of a payload is `mix(base + (i+1)·φ)`, so any block can be
/// made without the bytes before it, and multi-MiB buffers stay cheap.
pub fn fill_at(seed: u64, stream: u64, off: usize, out: &mut [u8]) {
    let base = Rng::new(seed, stream ^ 0xB0F5_EED5).0;
    let word = |i: usize| {
        mix(base.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))).to_le_bytes()
    };
    // Unaligned head, whole words, tail.
    let head = ((8 - off % 8) % 8).min(out.len());
    if head > 0 {
        out[..head].copy_from_slice(&word(off / 8)[off % 8..off % 8 + head]);
    }
    let first = (off + head) / 8;
    let total = out.len();
    let mut chunks = out[head..].chunks_exact_mut(8);
    for (i, c) in (&mut chunks).enumerate() {
        c.copy_from_slice(&word(first + i));
    }
    let rest = chunks.into_remainder();
    let n = rest.len();
    if n > 0 {
        let last = (off + total - n) / 8;
        rest.copy_from_slice(&word(last)[..n]);
    }
}

/// Bytes `off..off + len` of the seeded payload of `stream`.
pub fn payload_at(seed: u64, stream: u64, off: usize, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_at(seed, stream, off, &mut v);
    v
}

/// The first `len` bytes of the seeded payload of `stream`.
pub fn payload(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    payload_at(seed, stream, 0, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(geomean(&[1.0, 4.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_forty_samples() {
        assert_eq!(tail_q(39), None);
        assert_eq!(tail_q(50), Some(0.8));
        assert_eq!(tail_q(1000), Some(0.9));
    }

    #[test]
    fn payload_is_seeded() {
        assert_eq!(payload(1, 2, 37), payload(1, 2, 37));
        assert_ne!(payload(1, 2, 37), payload(2, 2, 37));
        assert_ne!(payload(1, 2, 37), payload(1, 3, 37));
        let whole = payload(5, 6, 100);
        assert_eq!(payload_at(5, 6, 13, 50), whole[13..63]);
        assert_eq!(payload_at(5, 6, 3, 2), whole[3..5]);
        assert_eq!(payload_at(5, 6, 16, 21), whole[16..37]);
    }
}
