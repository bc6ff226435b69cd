//! Inputs and expected outputs of every collective, computed here from
//! the seed — independently of the program's own `verify` helpers — and
//! the checks that compare them.
//!
//! Group semantics follow the survivable contract, which reduces to the
//! plain MPI one when nobody died: the result is defined over the sorted
//! member list, member `i` holds block `i`, and parent-sized buffers carry
//! the shrunken result in their prefix.

use crate::util::{payload, payload_at};

/// Which collective a shape runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// One root sends block `i` to rank `i`.
    Scatter,
    /// Every rank sends its block to one root.
    Gather,
    /// One root's buffer reaches every rank.
    Bcast,
    /// Every rank receives every rank's block.
    Allgather,
    /// Rank `i` receives block `i` of every rank's send buffer.
    Alltoall,
    /// The root receives the lane-wise u64 wrapping sum.
    Reduce,
}

impl Kind {
    /// All six, in a fixed order.
    pub const ALL: [Kind; 6] = [
        Kind::Scatter,
        Kind::Gather,
        Kind::Bcast,
        Kind::Allgather,
        Kind::Alltoall,
        Kind::Reduce,
    ];

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Scatter => "scatter",
            Kind::Gather => "gather",
            Kind::Bcast => "bcast",
            Kind::Allgather => "allgather",
            Kind::Alltoall => "alltoall",
            Kind::Reduce => "reduce",
        }
    }

    fn stream(self, rank: usize) -> u64 {
        ((self as u64 + 1) << 32) | rank as u64
    }

    /// True when the collective has a root.
    pub fn rooted(self) -> bool {
        matches!(
            self,
            Kind::Scatter | Kind::Gather | Kind::Bcast | Kind::Reduce
        )
    }

    /// Payload bytes one call delivers from one rank to another over a
    /// group of `p` (what `cma_gbps` counts).
    pub fn delivered_bytes(self, p: usize, count: usize) -> u64 {
        let peers = p.saturating_sub(1) as u64;
        let c = count as u64;
        match self {
            Kind::Scatter | Kind::Gather | Kind::Bcast | Kind::Reduce => peers * c,
            Kind::Allgather | Kind::Alltoall => p as u64 * peers * c,
        }
    }

    /// Length of the send buffer on `rank` (parent-sized).
    pub fn send_len(self, p: usize, count: usize, rank: usize, root: usize) -> usize {
        match self {
            Kind::Scatter if rank == root => p * count,
            Kind::Scatter => 0,
            Kind::Alltoall => p * count,
            _ => count,
        }
    }

    /// Length of the receive buffer on `rank` (parent-sized; bcast
    /// receives in its send buffer).
    pub fn recv_len(self, p: usize, count: usize, rank: usize, root: usize) -> usize {
        match self {
            Kind::Scatter => count,
            Kind::Gather | Kind::Reduce if rank != root => 0,
            Kind::Gather | Kind::Allgather | Kind::Alltoall => p * count,
            Kind::Reduce => count,
            Kind::Bcast => 0,
        }
    }
}

/// Team-wide send plus receive buffer bytes of one call.
pub fn footprint(kind: Kind, p: usize, count: usize, root: usize) -> usize {
    (0..p)
        .map(|r| kind.send_len(p, count, r, root) + kind.recv_len(p, count, r, root))
        .sum()
}

/// Calls whose buffers together exceed this are "heavy": a real-bytes
/// run of one costs 0.1–4 s of host time.
const HEAVY_BYTES: usize = 48 << 20;

/// Which calls get a real-bytes run in this run: every call under
/// [`HEAVY_BYTES`], plus `heavy_per_run` heavy ones drawn by the seed, so
/// successive seeds cover all of them while a run stays short.
pub fn real_bytes_plan(seed: u64, footprints: &[usize], heavy_per_run: usize) -> Vec<bool> {
    let mut heavy: Vec<usize> = (0..footprints.len())
        .filter(|&i| footprints[i] > HEAVY_BYTES)
        .collect();
    crate::util::Rng::new(seed, 0x4EA7).shuffle(&mut heavy);
    let mut plan: Vec<bool> = footprints.iter().map(|&f| f <= HEAVY_BYTES).collect();
    for &i in heavy.iter().take(heavy_per_run) {
        plan[i] = true;
    }
    plan
}

/// Initial contents of `rank`'s send buffer (`None` when it has none).
/// A non-root bcast rank's buffer starts zeroed.
pub fn send_input(
    kind: Kind,
    seed: u64,
    rank: usize,
    p: usize,
    count: usize,
    root: usize,
) -> Option<Vec<u8>> {
    let len = kind.send_len(p, count, rank, root);
    if len == 0 {
        return None;
    }
    if kind == Kind::Bcast && rank != root {
        return Some(vec![0u8; len]);
    }
    Some(payload(seed, kind.stream(rank), len))
}

/// What member `members[idx]` must hold in the prefix of its output
/// buffer after the collective over `members` (`None`: no output).
pub fn expected(
    kind: Kind,
    seed: u64,
    members: &[usize],
    idx: usize,
    count: usize,
    root: usize,
) -> Option<Vec<u8>> {
    let me = members[idx];
    let l = members.len();
    let block = |src: usize, at: usize| payload_at(seed, kind.stream(src), at * count, count);
    match kind {
        Kind::Scatter => Some(block(root, idx)),
        Kind::Gather if me == root => Some(
            members
                .iter()
                .flat_map(|&m| payload(seed, kind.stream(m), count))
                .collect(),
        ),
        Kind::Bcast => Some(payload(seed, kind.stream(root), count)),
        Kind::Allgather => Some(
            members
                .iter()
                .flat_map(|&m| payload(seed, kind.stream(m), count))
                .collect(),
        ),
        Kind::Alltoall => Some((0..l).flat_map(|i| block(members[i], idx)).collect()),
        Kind::Reduce if me == root => {
            let mut acc = vec![0u64; count / 8];
            for &m in members {
                let b = payload(seed, kind.stream(m), count);
                for (a, w) in acc.iter_mut().zip(b.chunks_exact(8)) {
                    *a = a.wrapping_add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
                }
            }
            Some(acc.iter().flat_map(|v| v.to_le_bytes()).collect())
        }
        Kind::Gather | Kind::Reduce => None,
    }
}

/// Compare an observed output buffer against its expected prefix.
pub fn compare(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got.len() < want.len() {
        return Err(format!(
            "output has {} bytes, expected at least {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "byte {i} differs: got {:#04x}, expected {:#04x}",
            got[i], want[i]
        )),
    }
}

/// Every survivor reports the same member list, and it equals the
/// initial ranks minus the injected victims.
pub fn check_members(lists: &[Vec<usize>], p: usize, victims: &[usize]) -> Result<(), String> {
    let want: Vec<usize> = (0..p).filter(|r| !victims.contains(r)).collect();
    if lists.len() != want.len() {
        return Err(format!(
            "{} ranks completed, expected {} survivors",
            lists.len(),
            want.len()
        ));
    }
    for l in lists {
        if *l != want {
            return Err(format!("member list {l:?} differs from {want:?}"));
        }
    }
    Ok(())
}

/// A simulated latency below one η-byte copy at the profile's β is
/// impossible for any collective that moves η bytes.
pub fn check_floor(sim_ns: f64, count: usize, beta_ns_per_byte: f64) -> Result<(), String> {
    let floor = count as f64 * beta_ns_per_byte;
    if sim_ns < floor {
        return Err(format!(
            "simulated {sim_ns:.0} ns is below one {count}-byte copy ({floor:.0} ns)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_scatter_is_block_of_root() {
        let seed = 7;
        let p = 4;
        let count = 16;
        let sb = send_input(Kind::Scatter, seed, 1, p, count, 1).expect("root has input");
        let members: Vec<usize> = (0..p).collect();
        for r in 0..p {
            let want = expected(Kind::Scatter, seed, &members, r, count, 1).expect("output");
            assert_eq!(want, sb[r * count..(r + 1) * count]);
        }
    }

    #[test]
    fn reduce_sums_lanes() {
        let members = [0usize, 2];
        let want = expected(Kind::Reduce, 3, &members, 0, 16, 0).expect("root output");
        let a = send_input(Kind::Reduce, 3, 0, 3, 16, 0).expect("input");
        let b = send_input(Kind::Reduce, 3, 2, 3, 16, 0).expect("input");
        let lane = |v: &[u8], i: usize| u64::from_le_bytes(v[i * 8..i * 8 + 8].try_into().unwrap());
        for i in 0..2 {
            assert_eq!(lane(&want, i), lane(&a, i).wrapping_add(lane(&b, i)));
        }
    }

    #[test]
    fn checks_reject_one_bad_byte_and_one_dropped_survivor() {
        let want = vec![1u8, 2, 3];
        assert!(compare(&[1, 2, 3, 9], &want).is_ok());
        assert!(compare(&[1, 2, 4], &want).is_err());
        let lists = vec![vec![0, 2], vec![0, 2]];
        assert!(check_members(&lists, 3, &[1]).is_ok());
        assert!(check_members(&[vec![0], vec![0]], 3, &[1]).is_err());
        assert!(check_floor(10.0, 100, 1.0).is_err());
    }
}
