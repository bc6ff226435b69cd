//! [`AsyncComm`]: the future-returning face of a communication endpoint.
//!
//! The schedule executor, the recovery ladder and the membership layer
//! are written once as `async fn`s over this trait. Two kinds of
//! endpoint implement it:
//!
//! * every blocking [`Comm`] (simulator threads, native CMA, threads
//!   transport), through the blanket impl below: each operation runs to
//!   completion on the spot and returns an already-ready future, so
//!   [`block_on`] drives a whole collective in one poll;
//! * the completion-based simulator endpoint (`kacc_machine::PolledComm`),
//!   whose time-charging operations really suspend and are resumed by
//!   its event-driven kernel.
//!
//! Operations that charge communication time return futures; local
//! buffer bookkeeping (`alloc`, `read_local`, …) stays synchronous.
//! Method semantics are exactly those of the same-named [`Comm`] methods.

use std::future::{ready, Future};
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use crate::{BufId, Comm, RemoteToken, Result, Tag, Topology};

/// One rank's endpoint with future-returning data-plane operations. See
/// the module docs; each method mirrors the [`Comm`] method of the same
/// name, whose docs it shares.
#[allow(missing_docs)]
pub trait AsyncComm {
    fn rank(&self) -> usize;
    fn size(&self) -> usize;
    fn topology(&self) -> Topology;
    fn time_ns(&self) -> u64;
    fn tracer(&self) -> kacc_trace::Tracer;
    fn alloc(&mut self, len: usize) -> BufId;
    fn free(&mut self, buf: BufId) -> Result<()>;
    fn buf_len(&self, buf: BufId) -> Result<usize>;
    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()>;
    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()>;

    fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>>;
    fn expose(&mut self, buf: BufId) -> impl Future<Output = Result<RemoteToken>>;
    fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>>;
    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>>;
    fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> impl Future<Output = Result<()>>;
    fn ctrl_recv(&mut self, from: usize, tag: Tag) -> impl Future<Output = Result<Vec<u8>>>;
    fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: u64,
    ) -> impl Future<Output = Result<Option<Vec<u8>>>>;
    fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>>;
    fn shm_recv_data(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>>;
    #[allow(clippy::too_many_arguments)]
    fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: u64,
    ) -> impl Future<Output = Result<bool>>;
    fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>>;
    fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>>;
    fn sleep_ns(&mut self, ns: u64) -> impl Future<Output = ()>;
}

/// Every blocking endpoint is an [`AsyncComm`] whose futures are ready
/// on creation: the operation has already completed when the future is
/// returned.
impl<C: Comm + ?Sized> AsyncComm for C {
    fn rank(&self) -> usize {
        Comm::rank(self)
    }
    fn size(&self) -> usize {
        Comm::size(self)
    }
    fn topology(&self) -> Topology {
        Comm::topology(self)
    }
    fn time_ns(&self) -> u64 {
        Comm::time_ns(self)
    }
    fn tracer(&self) -> kacc_trace::Tracer {
        Comm::tracer(self)
    }
    fn alloc(&mut self, len: usize) -> BufId {
        Comm::alloc(self, len)
    }
    fn free(&mut self, buf: BufId) -> Result<()> {
        Comm::free(self, buf)
    }
    fn buf_len(&self, buf: BufId) -> Result<usize> {
        Comm::buf_len(self, buf)
    }
    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        Comm::write_local(self, buf, off, data)
    }
    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        Comm::read_local(self, buf, off, out)
    }

    fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>> {
        ready(Comm::copy_local(self, src, src_off, dst, dst_off, len))
    }
    fn expose(&mut self, buf: BufId) -> impl Future<Output = Result<RemoteToken>> {
        ready(Comm::expose(self, buf))
    }
    fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>> {
        ready(Comm::cma_read(self, token, remote_off, dst, dst_off, len))
    }
    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>> {
        ready(Comm::cma_write(self, token, remote_off, src, src_off, len))
    }
    fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> impl Future<Output = Result<()>> {
        ready(Comm::ctrl_send(self, to, tag, data))
    }
    fn ctrl_recv(&mut self, from: usize, tag: Tag) -> impl Future<Output = Result<Vec<u8>>> {
        ready(Comm::ctrl_recv(self, from, tag))
    }
    fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: u64,
    ) -> impl Future<Output = Result<Option<Vec<u8>>>> {
        ready(Comm::ctrl_recv_deadline(self, from, tag, timeout_ns))
    }
    fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>> {
        ready(Comm::shm_send_data(self, to, tag, src, off, len))
    }
    fn shm_recv_data(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>> {
        ready(Comm::shm_recv_data(self, from, tag, dst, off, len))
    }
    fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: u64,
    ) -> impl Future<Output = Result<bool>> {
        ready(Comm::shm_recv_deadline(
            self, from, tag, dst, off, len, timeout_ns,
        ))
    }
    fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>> {
        ready(Comm::shm_fallback_read(
            self, token, remote_off, dst, dst_off, len,
        ))
    }
    fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> impl Future<Output = Result<()>> {
        ready(Comm::shm_fallback_write(
            self, token, remote_off, src, src_off, len,
        ))
    }
    fn sleep_ns(&mut self, ns: u64) -> impl Future<Output = ()> {
        Comm::sleep_ns(self, ns);
        ready(())
    }
}

/// Drive a future that never suspends to completion: the bridge from the
/// synchronous entry points onto code written over [`AsyncComm`].
///
/// Over a blocking [`Comm`] every leaf future is ready on creation, so
/// one poll finishes the whole computation. A future that returns
/// `Pending` is waiting on an event loop this call does not run; that is
/// a caller bug, so this panics instead of spinning.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = pin!(fut);
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("block_on: future suspended; it needs an event-driven endpoint"),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::future::pending;

    #[test]
    fn block_on_returns_a_ready_value() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    #[should_panic(expected = "suspended")]
    fn block_on_refuses_to_spin_on_a_pending_future() {
        block_on(pending::<()>());
    }
}
