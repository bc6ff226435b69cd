//! Small-message collectives over the shared-memory control plane.
//!
//! The paper's native CMA collectives bootstrap themselves with tiny
//! shared-memory transfers: buffer addresses are broadcast or gathered
//! (one pointer per process) and completion is signalled with 0-byte
//! messages (§III). These helpers implement those `T^sm_<coll>`
//! primitives over [`Comm::ctrl_send`]/[`Comm::ctrl_recv`] using
//! logarithmic trees so their cost stays negligible next to the data
//! plane, as the model assumes.
//!
//! Every helper takes a `class` so concurrent algorithm phases can use
//! disjoint tag spaces.

use crate::{AsyncComm, Comm, Result, Tag};

/// Tag classes used by the helpers in this module. Public so higher
/// layers can avoid collisions when they hand-roll protocols. These are
/// re-exports from the central [`crate::tagclass`] registry, which owns
/// the uniqueness audit.
pub mod class {
    /// Binomial broadcast.
    pub const BCAST: u32 = crate::tagclass::SM_BCAST;
    /// Binomial gather.
    pub const GATHER: u32 = crate::tagclass::SM_GATHER;
    /// Bruck allgather.
    pub const ALLGATHER: u32 = crate::tagclass::SM_ALLGATHER;
    /// Dissemination barrier.
    pub const BARRIER: u32 = crate::tagclass::SM_BARRIER;
}

fn vrank(rank: usize, root: usize, p: usize) -> usize {
    (rank + p - root) % p
}

fn unvrank(v: usize, root: usize, p: usize) -> usize {
    (v + root) % p
}

/// Binomial-tree broadcast of a small payload. Every rank returns the
/// root's payload. `root` supplies `data`; other ranks' `data` is ignored.
pub fn sm_bcast<C: Comm + ?Sized>(comm: &mut C, root: usize, data: &[u8]) -> Result<Vec<u8>> {
    let p = comm.size();
    let me = comm.rank();
    let tag = Tag::internal(class::BCAST, 0);
    if p == 1 {
        return Ok(data.to_vec());
    }
    let v = vrank(me, root, p);

    let payload = if v == 0 {
        data.to_vec()
    } else {
        // Parent is found by clearing our lowest set bit in virtual space.
        let parent = v & (v - 1);
        comm.ctrl_recv(unvrank(parent, root, p), tag)?
    };

    // Forward down the binomial tree: children are v | bit for each bit
    // above our lowest set bit (all bits for the root).
    let low = if v == 0 {
        usize::MAX
    } else {
        v & v.wrapping_neg()
    };
    let mut bit = 1usize;
    while bit < p {
        if bit < low {
            let child = v | bit;
            if child != v && child < p {
                comm.ctrl_send(unvrank(child, root, p), tag, &payload)?;
            }
        }
        bit <<= 1;
    }
    Ok(payload)
}

/// Binomial-tree gather of small payloads. The root receives
/// `Some(vec_of_payloads)` indexed by rank; non-roots receive `None`.
pub fn sm_gather<C: Comm + ?Sized>(
    comm: &mut C,
    root: usize,
    data: &[u8],
) -> Result<Option<Vec<Vec<u8>>>> {
    let p = comm.size();
    let me = comm.rank();
    let tag = Tag::internal(class::GATHER, 0);
    if p == 1 {
        return Ok(Some(vec![data.to_vec()]));
    }
    let v = vrank(me, root, p);

    // Accumulate payloads from our binomial subtree, keyed by real rank.
    // Wire format per entry: u32 rank, u32 len, bytes.
    let mut acc: Vec<(u32, Vec<u8>)> = vec![(me as u32, data.to_vec())];

    // Receive from children (largest subtree first mirrors the classic
    // recursive formulation; order only matters for determinism).
    let low = if v == 0 {
        usize::MAX
    } else {
        v & v.wrapping_neg()
    };
    let mut bit = 1usize;
    while bit < p {
        if bit < low {
            let child = v | bit;
            if child != v && child < p {
                let blob = comm.ctrl_recv(unvrank(child, root, p), tag)?;
                acc.extend(decode_entries(&blob)?);
            }
        }
        bit <<= 1;
    }

    if v == 0 {
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); p];
        let mut seen = vec![false; p];
        for (r, payload) in acc {
            let r = r as usize;
            if r >= p || seen[r] {
                return Err(crate::CommError::Protocol(format!(
                    "sm_gather saw duplicate or out-of-range rank {r}"
                )));
            }
            seen[r] = true;
            out[r] = payload;
        }
        if seen.iter().all(|&s| s) {
            Ok(Some(out))
        } else {
            Err(crate::CommError::Protocol(
                "sm_gather missing contributions".into(),
            ))
        }
    } else {
        let parent = v & (v - 1);
        comm.ctrl_send(unvrank(parent, root, p), tag, &encode_entries(&acc))?;
        Ok(None)
    }
}

/// Bruck-style allgather of small payloads: every rank returns the vector
/// of all ranks' payloads, indexed by rank. Runs in ⌈log2 p⌉ rounds.
pub fn sm_allgather<C: Comm + ?Sized>(comm: &mut C, data: &[u8]) -> Result<Vec<Vec<u8>>> {
    let p = comm.size();
    let me = comm.rank();
    if p == 1 {
        return Ok(vec![data.to_vec()]);
    }

    // `have[i]` holds the payload of rank (me + i) mod p once filled.
    let mut have: Vec<Option<(u32, Vec<u8>)>> = vec![None; p];
    have[0] = Some((me as u32, data.to_vec()));
    let mut filled = 1usize;

    let mut round = 0u32;
    let mut dist = 1usize;
    while dist < p {
        let tag = Tag::internal(class::ALLGATHER, round);
        let send_to = (me + p - dist) % p;
        let recv_from = (me + dist) % p;
        // Send the first min(dist, p - filled... ) — classic Bruck sends
        // everything accumulated so far, capped so total reaches p.
        let send_count = dist.min(p - filled);
        let chunk: Vec<(u32, Vec<u8>)> = (0..send_count)
            .map(|i| have[i].clone().expect("bruck prefix is filled"))
            .collect();
        comm.ctrl_send(send_to, tag, &encode_entries(&chunk))?;
        let blob = comm.ctrl_recv(recv_from, tag)?;
        let entries = decode_entries(&blob)?;
        for (i, e) in entries.into_iter().enumerate() {
            let slot = dist + i;
            if slot < p && have[slot].is_none() {
                have[slot] = Some(e);
                filled += 1;
            }
        }
        dist <<= 1;
        round += 1;
    }

    let mut out: Vec<Vec<u8>> = vec![Vec::new(); p];
    for slot in have.into_iter().flatten() {
        out[slot.0 as usize] = slot.1;
    }
    Ok(out)
}

/// Dissemination barrier: ⌈log2 p⌉ rounds of 0-byte notifications.
pub fn sm_barrier<C: Comm + ?Sized>(comm: &mut C) -> Result<()> {
    crate::block_on(sm_barrier_async(comm))
}

/// [`sm_barrier`] over any [`AsyncComm`] endpoint.
pub async fn sm_barrier_async<C: AsyncComm + ?Sized>(comm: &mut C) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    let mut round = 0u32;
    let mut dist = 1usize;
    while dist < p {
        let tag = Tag::internal(class::BARRIER, round);
        comm.ctrl_send((me + dist) % p, tag, &[]).await?;
        let from = (me + p - dist) % p;
        crate::check_notification(from, &comm.ctrl_recv(from, tag).await?)?;
        dist <<= 1;
        round += 1;
    }
    Ok(())
}

/// Encode `(rank, payload)` entries in the sm wire format: per entry a
/// `u32` rank (LE), `u32` length (LE), then the payload bytes. Public so
/// the compiled-schedule executor can speak the same format as
/// [`sm_gather`]/[`sm_allgather`].
pub fn encode_entries(entries: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.iter().map(|(_, d)| d.len() + 8).sum());
    for (rank, data) in entries {
        out.extend_from_slice(&rank.to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    }
    out
}

/// Decode the [`encode_entries`] wire format back into `(rank, payload)`
/// entries, rejecting truncated blobs.
pub fn decode_entries(blob: &[u8]) -> Result<Vec<(u32, Vec<u8>)>> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < blob.len() {
        if at + 8 > blob.len() {
            return Err(crate::CommError::Protocol(
                "truncated sm entry header".into(),
            ));
        }
        let rank = u32::from_le_bytes(blob[at..at + 4].try_into().expect("slice length fixed"));
        let len = u32::from_le_bytes(blob[at + 4..at + 8].try_into().expect("slice length fixed"))
            as usize;
        at += 8;
        if at + len > blob.len() {
            return Err(crate::CommError::Protocol("truncated sm entry body".into()));
        }
        out.push((rank, blob[at..at + len].to_vec()));
        at += len;
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn entry_codec_roundtrips() {
        let entries = vec![
            (0u32, b"hello".to_vec()),
            (7u32, Vec::new()),
            (3u32, vec![9u8; 100]),
        ];
        assert_eq!(decode_entries(&encode_entries(&entries)).unwrap(), entries);
    }

    #[test]
    fn entry_codec_rejects_truncation() {
        let blob = encode_entries(&[(1, vec![1, 2, 3, 4])]);
        assert!(decode_entries(&blob[..blob.len() - 1]).is_err());
        assert!(decode_entries(&blob[..5]).is_err());
    }

    #[test]
    fn vrank_roundtrips() {
        for p in 1..20 {
            for root in 0..p {
                for r in 0..p {
                    assert_eq!(unvrank(vrank(r, root, p), root, p), r);
                }
            }
        }
    }
}
