//! The schedule executor (execute phase) — one for every transport and
//! both simulator engines.
//!
//! [`execute`] replays a compiled [`Schedule`]: it binds the schedule's
//! symbolic [`Slot`]s to caller buffers, allocates the scratch buffers
//! the plan declares, resolves token registers as `Expose`/`CtrlRecv`
//! steps fill them, and runs every step in order under the
//! [`RecoveryPolicy`] ladder while recording per-step-kind time and
//! byte counters into a [`ScheduleReport`].
//!
//! The step loop and the recovery ladder are written once as `async`
//! code over [`AsyncComm`]. Blocking transports (every [`Comm`]) reach
//! it through [`block_on`], which completes it in a single poll because
//! their operations are ready on return; the event-driven simulator
//! endpoint awaits the same code ([`execute_async`],
//! [`execute_with_policy_async`]).
//!
//! On the simulator the timings are deterministic virtual nanoseconds;
//! on the native transports they are monotonic wall-clock nanoseconds —
//! both come from `time_ns`, so the report means "time this rank spent
//! inside each primitive" on every transport.

use std::sync::OnceLock;

use kacc_comm::{block_on, smcoll, AsyncComm, BufId, Comm, CommError, RemoteToken, Result, Tag};
use kacc_trace::{Event, EventKind, Tracer, Track};

use crate::reduce::combine;
use crate::schedule::{Payload, RecvInto, Schedule, Slot, Step};

/// Liveness-watchdog and shrink parameters of the membership layer:
/// turns silent peer death into the typed [`CommError::PeerDead`] and
/// governs the shrink-and-re-execute loop in [`crate::membership`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipPolicy {
    /// Arm the liveness watchdog: blocking receives are bounded by
    /// `liveness_timeout_ns` (unless `step_timeout_ns` already bounds
    /// them), and an expired wait or transport `ESRCH` on a step with an
    /// identifiable peer becomes [`CommError::PeerDead`] naming that
    /// peer.
    pub watch: bool,
    /// Per-attempt liveness deadline for blocking receives, in
    /// nanoseconds (virtual under simulation). Ignored while `watch` is
    /// off or `step_timeout_ns` sets a deadline of its own.
    pub liveness_timeout_ns: u64,
    /// Most shrink-and-re-execute rounds the survivable driver attempts
    /// before surfacing the last typed error. Capped at 15 by the
    /// epoch re-tagging scheme (one hex nibble of the sub-tag).
    pub max_shrinks: u32,
    /// Pause between agreeing on a shrink and re-executing over the
    /// survivors, charged through [`Comm::sleep_ns`] so it is virtual
    /// time under simulation.
    pub restart_backoff_ns: u64,
    /// Record suspicions and *skip* the failing step instead of aborting
    /// on the first suspected peer. Only the agreement collective runs
    /// tolerant: it must complete over the survivors no matter who died.
    pub tolerant: bool,
}

impl MembershipPolicy {
    /// Watchdog off — executions behave exactly as they did before the
    /// membership layer existed. This is the `Default`, so existing
    /// policies are unchanged.
    pub fn disabled() -> MembershipPolicy {
        MembershipPolicy {
            watch: false,
            liveness_timeout_ns: 0,
            max_shrinks: 0,
            restart_backoff_ns: 0,
            tolerant: false,
        }
    }

    /// Watchdog armed with the defaults the survivable drivers use.
    pub fn survivable() -> MembershipPolicy {
        MembershipPolicy {
            watch: true,
            liveness_timeout_ns: 200_000,
            max_shrinks: 8,
            restart_backoff_ns: 10_000,
            tolerant: false,
        }
    }
}

impl Default for MembershipPolicy {
    fn default() -> MembershipPolicy {
        MembershipPolicy::disabled()
    }
}

/// How the executor reacts to faults surfaced by the transport.
///
/// The default policy retries transient errors a few times with
/// exponential backoff and degrades persistently-failing CMA steps to
/// the two-copy shared-memory fallback; it never bounds blocking waits
/// (`step_timeout_ns: None`), so a fault-free execution is identical to
/// the policy-free path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Consecutive failed attempts tolerated per step before giving up
    /// (or falling back). Progress — a short read that moved bytes —
    /// resets the budget.
    pub max_retries: u32,
    /// Base backoff between retries, doubled per consecutive failure
    /// (capped at `base << 5`); charged through [`Comm::sleep_ns`] so it
    /// is virtual time under simulation. `0` disables backoff.
    pub backoff_ns: u64,
    /// Degrade a persistently failing CMA step to the two-copy
    /// [`Comm::shm_fallback_read`]/`write` path instead of failing.
    pub cma_fallback: bool,
    /// Bound every blocking step (control receives, notification waits,
    /// bulk receives) to this many nanoseconds per attempt, turning a
    /// silent hang into a typed [`CommError::Timeout`]. `None` blocks
    /// forever, exactly as the transports do natively.
    pub step_timeout_ns: Option<u64>,
    /// Liveness watchdog and shrink parameters (off by default).
    pub membership: MembershipPolicy,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 3,
            backoff_ns: 1_000,
            cma_fallback: true,
            step_timeout_ns: None,
            membership: MembershipPolicy::disabled(),
        }
    }
}

impl RecoveryPolicy {
    /// A policy that retries nothing and falls back to nothing: every
    /// transport error propagates on first occurrence.
    pub fn none() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 0,
            backoff_ns: 0,
            cma_fallback: false,
            step_timeout_ns: None,
            membership: MembershipPolicy::disabled(),
        }
    }

    /// The default recovery ladder with the liveness watchdog armed
    /// ([`MembershipPolicy::survivable`]).
    pub fn survivable() -> RecoveryPolicy {
        RecoveryPolicy {
            membership: MembershipPolicy::survivable(),
            ..RecoveryPolicy::default()
        }
    }
}

/// What recovery did during one schedule execution. All-zero (its
/// `Default`) on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transient failures (EAGAIN-class) that were retried.
    pub transient_retries: u64,
    /// Time spent inside attempts that failed transiently.
    pub transient_ns: u64,
    /// Short CMA transfers resumed from a partial offset.
    pub short_resumes: u64,
    /// Bytes salvaged by those partial transfers.
    pub short_bytes: u64,
    /// Permission-denied faults routed to the fallback path.
    pub denied: u64,
    /// Time spent inside the denied attempts.
    pub denied_ns: u64,
    /// Bounded waits that expired ([`CommError::Timeout`]).
    pub timeouts: u64,
    /// Time spent waiting in those expired attempts.
    pub timeout_ns: u64,
    /// Backoff sleeps taken between retries.
    pub backoffs: u64,
    /// Total backoff time.
    pub backoff_ns: u64,
    /// CMA steps completed via the two-copy shared-memory fallback.
    pub fallbacks: u64,
    /// Bytes moved by the fallback path.
    pub fallback_bytes: u64,
    /// Time spent inside the fallback transfers.
    pub fallback_ns: u64,
    /// Peers the liveness watchdog suspected dead.
    pub suspects: u64,
    /// Time spent inside the attempts that raised those suspicions.
    pub suspect_ns: u64,
    /// Bitmask of suspected ranks, bit `rank & 63` per suspicion (ranks
    /// are parent-communicator numbers; the executor enforces `p <= 64`
    /// only in the membership driver, so the mask wraps above 64).
    pub suspect_mask: u64,
}

impl RecoveryReport {
    /// True when no recovery action fired (the execution was fault-free).
    pub fn is_clean(&self) -> bool {
        *self == RecoveryReport::default()
    }

    /// Alias of [`RecoveryReport::is_clean`] named for the survivable
    /// API: a fault-free survivable run reports an *empty* recovery.
    pub fn is_empty(&self) -> bool {
        self.is_clean()
    }

    /// Fold one recovery span into the counters; returns false for span
    /// names that are not recovery spans. Shared by the live recorder
    /// and [`ScheduleReport::from_events`] so the two cannot drift.
    fn add_span(&mut self, name: &str, bytes: u64, dt: u64) -> bool {
        match name {
            "fault:transient" => {
                self.transient_retries += 1;
                self.transient_ns += dt;
            }
            "fault:short" => {
                self.short_resumes += 1;
                self.short_bytes += bytes;
            }
            "fault:denied" => {
                self.denied += 1;
                self.denied_ns += dt;
            }
            "fault:timeout" => {
                self.timeouts += 1;
                self.timeout_ns += dt;
            }
            "retry:backoff" => {
                self.backoffs += 1;
                self.backoff_ns += dt;
            }
            "fallback:read" | "fallback:write" => {
                self.fallbacks += 1;
                self.fallback_bytes += bytes;
                self.fallback_ns += dt;
            }
            // The suspected rank travels in the span's bytes field.
            "membership:suspect" => {
                self.suspects += 1;
                self.suspect_ns += dt;
                self.suspect_mask |= 1u64 << (bytes & 63);
            }
            _ => return false,
        }
        true
    }
}

/// Caller buffers a schedule's symbolic slots resolve to.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bindings {
    /// Buffer behind [`Slot::Send`], if the plan references it.
    pub send: Option<BufId>,
    /// Buffer behind [`Slot::Recv`], if the plan references it.
    pub recv: Option<BufId>,
}

/// Accumulated count / bytes / time for one step kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Steps of this kind executed.
    pub count: u64,
    /// Payload bytes they moved (0 for pure synchronization).
    pub bytes: u64,
    /// Time spent inside them, in `Comm::time_ns` units (virtual under
    /// simulation, wall-clock on native transports).
    pub time_ns: u64,
}

impl StepStats {
    fn add(&mut self, bytes: usize, dt: u64) {
        self.count += 1;
        self.bytes += bytes as u64;
        self.time_ns += dt;
    }
}

/// Step kinds the executor records — one per [`ScheduleReport`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepKind {
    Expose,
    CmaRead,
    CmaWrite,
    CopyLocal,
    CtrlSend,
    CtrlRecv,
    Notify,
    WaitNotify,
    ShmSend,
    ShmRecv,
    Reduce,
}

impl StepKind {
    /// Span name in the trace; the `step:` prefix keeps executor spans
    /// distinct from the machine layer's transport spans of similar names.
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            StepKind::Expose => "step:expose",
            StepKind::CmaRead => "step:cma_read",
            StepKind::CmaWrite => "step:cma_write",
            StepKind::CopyLocal => "step:copy_local",
            StepKind::CtrlSend => "step:ctrl_send",
            StepKind::CtrlRecv => "step:ctrl_recv",
            StepKind::Notify => "step:notify",
            StepKind::WaitNotify => "step:wait_notify",
            StepKind::ShmSend => "step:shm_send",
            StepKind::ShmRecv => "step:shm_recv",
            StepKind::Reduce => "step:reduce",
        }
    }

    fn from_span_name(name: &str) -> Option<StepKind> {
        Some(match name {
            "step:expose" => StepKind::Expose,
            "step:cma_read" => StepKind::CmaRead,
            "step:cma_write" => StepKind::CmaWrite,
            "step:copy_local" => StepKind::CopyLocal,
            "step:ctrl_send" => StepKind::CtrlSend,
            "step:ctrl_recv" => StepKind::CtrlRecv,
            "step:notify" => StepKind::Notify,
            "step:wait_notify" => StepKind::WaitNotify,
            "step:shm_send" => StepKind::ShmSend,
            "step:shm_recv" => StepKind::ShmRecv,
            "step:reduce" => StepKind::Reduce,
            _ => return None,
        })
    }

    /// Every kind, in discriminant order — `kind as usize` indexes
    /// tables built from this array (the metrics handle table relies
    /// on that alignment).
    pub(crate) const ALL: [StepKind; 11] = [
        StepKind::Expose,
        StepKind::CmaRead,
        StepKind::CmaWrite,
        StepKind::CopyLocal,
        StepKind::CtrlSend,
        StepKind::CtrlRecv,
        StepKind::Notify,
        StepKind::WaitNotify,
        StepKind::ShmSend,
        StepKind::ShmRecv,
        StepKind::Reduce,
    ];
}

/// Pre-resolved `kacc-metrics` handles for the executor. Registered
/// once per process; recording through a cached handle is a couple of
/// relaxed atomic ops, so the always-on path stays off the lock in the
/// metric registry.
struct CollHandles {
    /// Per-step-kind latency histograms, indexed by `StepKind as usize`.
    steps: [kacc_metrics::Hist; 11],
    /// End-to-end schedule latency across all collective classes.
    exec_ns: kacc_metrics::Hist,
    /// Per-collective-class latency histograms (`coll.bcast.ns`, ...).
    class_ns: Vec<(u32, kacc_metrics::Hist)>,
    transient_retries: kacc_metrics::Counter,
    short_resumes: kacc_metrics::Counter,
    short_bytes: kacc_metrics::Counter,
    denied: kacc_metrics::Counter,
    timeouts: kacc_metrics::Counter,
    backoffs: kacc_metrics::Counter,
    fallbacks: kacc_metrics::Counter,
    fallback_bytes: kacc_metrics::Counter,
    suspects: kacc_metrics::Counter,
}

fn coll_handles() -> &'static CollHandles {
    static HANDLES: OnceLock<CollHandles> = OnceLock::new();
    HANDLES.get_or_init(|| CollHandles {
        steps: StepKind::ALL.map(|k| {
            let short = k.span_name().trim_start_matches("step:");
            kacc_metrics::hist(&format!("coll.step.{short}.ns"))
        }),
        exec_ns: kacc_metrics::hist("coll.exec.ns"),
        class_ns: kacc_comm::tagclass::ALL
            .iter()
            .map(|&(class, name)| {
                let short = name.rsplit("::").next().unwrap_or(name);
                (class, kacc_metrics::hist(&format!("coll.{short}.ns")))
            })
            .collect(),
        transient_retries: kacc_metrics::counter("coll.recovery.transient_retries"),
        short_resumes: kacc_metrics::counter("coll.recovery.short_resumes"),
        short_bytes: kacc_metrics::counter("coll.recovery.short_bytes"),
        denied: kacc_metrics::counter("coll.recovery.denied"),
        timeouts: kacc_metrics::counter("coll.recovery.timeouts"),
        backoffs: kacc_metrics::counter("coll.recovery.backoffs"),
        fallbacks: kacc_metrics::counter("coll.recovery.fallbacks"),
        fallback_bytes: kacc_metrics::counter("coll.recovery.fallback_bytes"),
        suspects: kacc_metrics::counter("coll.recovery.suspects"),
    })
}

/// Quantile (parts-per-million) of the per-step latency distribution
/// reported as [`ScheduleReport::step_p99_ns`].
pub(crate) const P99_PPM: u64 = 990_000;

/// The single recording path: every executed step flows through
/// [`Recorder::add`], which updates the [`ScheduleReport`] *and* emits the
/// trace span from the same measurements — counts and bytes can never
/// drift between the two.
pub(crate) struct Recorder<'t> {
    pub(crate) report: ScheduleReport,
    pub(crate) tracer: &'t Tracer,
    pub(crate) track: Track,
    pub(crate) class: Option<u32>,
    /// Per-step-kind latency samples of this execution, indexed by
    /// `StepKind as usize`; plain-field accumulation keeps the per-step
    /// hot path free of atomics — [`Recorder::finish`] folds them into
    /// the global histograms in one merge per touched kind. Boxed: the
    /// recorder lives in the executor's future, and 11 inline
    /// histograms (~6 KiB) would be copied each time that future moves.
    pub(crate) step_lats: Box<[kacc_metrics::LocalHist]>,
}

impl<'t> Recorder<'t> {
    pub(crate) fn new(tracer: &'t Tracer, track: Track, class: Option<u32>) -> Recorder<'t> {
        Recorder {
            report: ScheduleReport::default(),
            tracer,
            track,
            class,
            step_lats: vec![kacc_metrics::LocalHist::default(); StepKind::ALL.len()].into(),
        }
    }

    pub(crate) fn add(&mut self, kind: StepKind, bytes: usize, t0: u64, t1: u64) {
        let dt = t1.saturating_sub(t0);
        self.report.stat_mut(kind).add(bytes, dt);
        self.report.steps += 1;
        self.step_lats[kind as usize].record(dt);
        self.tracer.span(
            self.track,
            kind.span_name(),
            t0,
            dt as f64,
            bytes as u64,
            self.class,
        );
    }

    /// Record one recovery action (`fault:*` / `retry:*` / `fallback:*`).
    /// Recovery spans do not count as steps and never extend `total_ns`
    /// computation in [`ScheduleReport::from_events`] — they nest inside
    /// the step span that eventually succeeds or fails.
    pub(crate) fn recovery(&mut self, name: &'static str, bytes: usize, t0: u64, t1: u64) {
        let dt = t1.saturating_sub(t0);
        self.report.recovery.add_span(name, bytes as u64, dt);
        self.tracer
            .span(self.track, name, t0, dt as f64, bytes as u64, self.class);
    }

    /// Close out one schedule execution: stamp `total_ns` and the
    /// observed per-step p99, record the end-to-end latency into the
    /// global and per-class histograms, and fold the recovery counters
    /// into the metric registry.
    pub(crate) fn finish(&mut self, total_ns: u64) {
        self.report.total_ns = total_ns;
        let mut all = kacc_metrics::LocalHist::default();
        for local in self.step_lats.iter() {
            all.merge(local);
        }
        self.report.step_p99_ns = all.quantile_bound(P99_PPM);
        let h = coll_handles();
        for (kind, local) in h.steps.iter().zip(self.step_lats.iter()) {
            kind.merge_local(local);
        }
        h.exec_ns.record(total_ns);
        if let Some(class) = self.class {
            if let Some((_, hist)) = h.class_ns.iter().find(|(c, _)| *c == class) {
                hist.record(total_ns);
            }
        }
        let r = &self.report.recovery;
        h.transient_retries.add(r.transient_retries);
        h.short_resumes.add(r.short_resumes);
        h.short_bytes.add(r.short_bytes);
        h.denied.add(r.denied);
        h.timeouts.add(r.timeouts);
        h.backoffs.add(r.backoffs);
        h.fallbacks.add(r.fallbacks);
        h.fallback_bytes.add(r.fallback_bytes);
        h.suspects.add(r.suspects);
    }
}

/// Per-step-kind accounting for one schedule execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// `expose` calls.
    pub expose: StepStats,
    /// Single-copy reads (bytes = payload read).
    pub cma_read: StepStats,
    /// Single-copy writes (bytes = payload written).
    pub cma_write: StepStats,
    /// Local charged copies.
    pub copy_local: StepStats,
    /// Control-plane sends (bytes = wire bytes).
    pub ctrl_send: StepStats,
    /// Control-plane receives (bytes = wire bytes).
    pub ctrl_recv: StepStats,
    /// 0-byte notification sends.
    pub notify: StepStats,
    /// 0-byte notification waits.
    pub wait_notify: StepStats,
    /// Two-copy shared-memory sends.
    pub shm_send: StepStats,
    /// Two-copy shared-memory receives.
    pub shm_recv: StepStats,
    /// Element-wise reductions (bytes = reduced region size).
    pub reduce: StepStats,
    /// Steps executed in total.
    pub steps: u64,
    /// Watermark: index of the first IR step this execution did *not*
    /// complete — equal to the schedule length on success. A torn
    /// execution's watermark tells the membership layer where a resume
    /// attempt may pick up instead of re-running completed exchanges.
    pub completed_steps: u64,
    /// Conservative p99 bound of this execution's per-step latencies
    /// (0 when no step completed). This is the *observed* half of the
    /// membership layer's adaptive liveness deadline; the other half is
    /// the analytic plan-cost estimate.
    pub step_p99_ns: u64,
    /// End-to-end time from first step to last, in `time_ns` units.
    pub total_ns: u64,
    /// What the recovery machinery did (all-zero on a fault-free run).
    pub recovery: RecoveryReport,
}

impl ScheduleReport {
    /// Total bytes moved by kernel-assisted reads.
    pub fn bytes_read(&self) -> u64 {
        self.cma_read.bytes
    }

    /// Total bytes moved by kernel-assisted writes.
    pub fn bytes_written(&self) -> u64 {
        self.cma_write.bytes
    }

    fn stat_mut(&mut self, kind: StepKind) -> &mut StepStats {
        match kind {
            StepKind::Expose => &mut self.expose,
            StepKind::CmaRead => &mut self.cma_read,
            StepKind::CmaWrite => &mut self.cma_write,
            StepKind::CopyLocal => &mut self.copy_local,
            StepKind::CtrlSend => &mut self.ctrl_send,
            StepKind::CtrlRecv => &mut self.ctrl_recv,
            StepKind::Notify => &mut self.notify,
            StepKind::WaitNotify => &mut self.wait_notify,
            StepKind::ShmSend => &mut self.shm_send,
            StepKind::ShmRecv => &mut self.shm_recv,
            StepKind::Reduce => &mut self.reduce,
        }
    }

    /// Rebuild a report from the executor's `step:*` spans (other events
    /// are ignored). Because [`execute_traced`] records report and spans
    /// through one path, `from_events` over one execution's events equals
    /// the returned report exactly. Pass events from a single rank's
    /// execution (filter by [`Track`] first when a trace holds several).
    pub fn from_events(events: &[Event]) -> ScheduleReport {
        let mut report = ScheduleReport::default();
        let mut first_start: Option<u64> = None;
        let mut last_end: u64 = 0;
        let mut lats = kacc_metrics::LocalHist::default();
        for ev in events {
            let EventKind::Span { ts, dur } = ev.kind else {
                continue;
            };
            // Executor spans carry whole-nanosecond durations, so the f64
            // round-trips exactly.
            let dt = dur as u64;
            let Some(kind) = StepKind::from_span_name(ev.name) else {
                // Recovery spans rebuild the RecoveryReport but are not
                // steps and do not bound total_ns (they nest inside their
                // step's span).
                report.recovery.add_span(ev.name, ev.bytes, dt);
                continue;
            };
            report.stat_mut(kind).add(ev.bytes as usize, dt);
            report.steps += 1;
            lats.record(dt);
            first_start = Some(first_start.map_or(ts, |f| f.min(ts)));
            last_end = last_end.max(ts + dt);
        }
        // A span exists exactly for each completed step, so the rebuilt
        // watermark and latency quantile mirror the live recorder's
        // (resume attempts and tolerant skips are internal to the
        // membership layer and never round-trip through events).
        report.completed_steps = report.steps;
        report.step_p99_ns = lats.quantile_bound(P99_PPM);
        report.total_ns = first_start.map_or(0, |f| last_end.saturating_sub(f));
        report
    }
}

pub(crate) fn proto(msg: String) -> CommError {
    CommError::Protocol(msg)
}

pub(crate) struct Ctx<'a> {
    pub(crate) bind: &'a Bindings,
    pub(crate) temps: Vec<BufId>,
    pub(crate) regs: Vec<Option<RemoteToken>>,
}

impl Ctx<'_> {
    pub(crate) fn slot(&self, s: Slot) -> Result<BufId> {
        match s {
            Slot::Send => self.bind.send.ok_or_else(|| {
                proto("schedule references Send but no send buffer is bound".into())
            }),
            Slot::Recv => self.bind.recv.ok_or_else(|| {
                proto("schedule references Recv but no recv buffer is bound".into())
            }),
            Slot::Temp(i) => self
                .temps
                .get(i as usize)
                .copied()
                .ok_or_else(|| proto(format!("schedule references undeclared temp {i}"))),
        }
    }

    pub(crate) fn token(&self, reg: crate::schedule::TokenReg) -> Result<RemoteToken> {
        self.regs
            .get(reg.0 as usize)
            .copied()
            .flatten()
            .ok_or_else(|| {
                proto(format!(
                    "token register {} used before it was filled",
                    reg.0
                ))
            })
    }

    pub(crate) fn set_token(
        &mut self,
        reg: crate::schedule::TokenReg,
        t: RemoteToken,
    ) -> Result<()> {
        let slot = self
            .regs
            .get_mut(reg.0 as usize)
            .ok_or_else(|| proto(format!("token register {} out of range", reg.0)))?;
        *slot = Some(t);
        Ok(())
    }

    pub(crate) fn render_payload(&self, p: &Payload) -> Result<Vec<u8>> {
        match p {
            Payload::Bytes(b) => Ok(b.clone()),
            Payload::Token(reg) => Ok(self.token(*reg)?.to_bytes().to_vec()),
            Payload::Pack(entries) => {
                let mut out = Vec::with_capacity(entries.len());
                for &(rank, reg) in entries {
                    let body = match reg {
                        Some(r) => self.token(r)?.to_bytes().to_vec(),
                        None => Vec::new(),
                    };
                    out.push((rank, body));
                }
                Ok(smcoll::encode_entries(&out))
            }
        }
    }

    pub(crate) fn apply_recv(&mut self, into: &RecvInto, body: Vec<u8>) -> Result<()> {
        match into {
            RecvInto::Discard => Ok(()),
            RecvInto::Verify(expected) => {
                if &body == expected {
                    Ok(())
                } else {
                    Err(proto(format!(
                        "control message mismatch: expected {} bytes, got {}",
                        expected.len(),
                        body.len()
                    )))
                }
            }
            RecvInto::Token(reg) => {
                let t = RemoteToken::from_bytes(&body)
                    .ok_or_else(|| proto("control message is not a remote token".into()))?;
                self.set_token(*reg, t)
            }
            RecvInto::Pack(entries) => {
                let decoded = smcoll::decode_entries(&body)?;
                if decoded.len() != entries.len() {
                    return Err(proto(format!(
                        "entry pack has {} entries, schedule expected {}",
                        decoded.len(),
                        entries.len()
                    )));
                }
                for (&(want_rank, reg), (got_rank, payload)) in entries.iter().zip(decoded) {
                    if want_rank != got_rank {
                        return Err(proto(format!(
                            "entry pack rank mismatch: expected {want_rank}, got {got_rank}"
                        )));
                    }
                    match reg {
                        Some(r) => {
                            let t = RemoteToken::from_bytes(&payload).ok_or_else(|| {
                                proto(format!("entry for rank {got_rank} is not a token"))
                            })?;
                            self.set_token(r, t)?;
                        }
                        None => {
                            if !payload.is_empty() {
                                return Err(proto(format!(
                                    "entry for rank {got_rank} should be empty, got {} bytes",
                                    payload.len()
                                )));
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// Execute a compiled schedule on `comm` with the given bindings.
///
/// Scratch buffers declared by the plan are allocated up front and freed
/// on success. The schedule must have been compiled for this rank and
/// communicator size. Step spans go to the transport's own tracer
/// ([`Comm::tracer`]), so a traced simulator run carries the executor's
/// events without extra plumbing.
pub fn execute<C: Comm + ?Sized>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
) -> Result<ScheduleReport> {
    let tracer = Comm::tracer(comm);
    execute_traced(comm, sched, bind, &tracer)
}

/// [`execute`] with per-step trace spans: every IR step emits one
/// `step:<kind>` span on this rank's track, attributed to the schedule's
/// collective class, through the same recording path that feeds the
/// returned [`ScheduleReport`] (see [`ScheduleReport::from_events`]).
///
/// Runs under [`RecoveryPolicy::default`]: a fault-free execution takes
/// exactly the same transport calls (and, under simulation, the same
/// virtual time) as it did before recovery existed, while injected or
/// real transient faults are retried instead of aborting the collective.
pub fn execute_traced<C: Comm + ?Sized>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
    tracer: &Tracer,
) -> Result<ScheduleReport> {
    execute_with_policy(comm, sched, bind, tracer, &RecoveryPolicy::default())
}

/// [`execute_traced`] with an explicit [`RecoveryPolicy`].
///
/// Every fallible step runs through a bounded retry loop:
///
/// * transient errors (EAGAIN-class `Os`, [`CommError::Timeout`]) retry
///   up to `max_retries` times with exponential backoff charged via
///   [`Comm::sleep_ns`];
/// * short CMA transfers ([`CommError::Truncated`]) resume from the
///   partial offset — forward progress resets the retry budget;
/// * persistently failing CMA steps degrade to the two-copy
///   [`Comm::shm_fallback_read`]/`write` path when `cma_fallback` is on
///   (peer death, `Os(ESRCH)`, is never degraded — a dead peer cannot
///   serve the fallback either);
/// * with `step_timeout_ns` set, blocking receives use the transports'
///   deadline variants so a lost message or dead peer surfaces as
///   [`CommError::Timeout`] instead of a hang.
///
/// Every action is recorded in [`ScheduleReport::recovery`] and emitted
/// as a `fault:*` / `retry:*` / `fallback:*` span nested inside the
/// step's own span.
pub fn execute_with_policy<C: Comm + ?Sized>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
    tracer: &Tracer,
    policy: &RecoveryPolicy,
) -> Result<ScheduleReport> {
    block_on(execute_with_policy_async(comm, sched, bind, tracer, policy))
}

/// [`execute`] over any [`AsyncComm`] endpoint: the transport's own
/// tracer and the default recovery policy.
pub async fn execute_async<C: AsyncComm + ?Sized>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
) -> Result<ScheduleReport> {
    let tracer = comm.tracer();
    execute_with_policy_async(comm, sched, bind, &tracer, &RecoveryPolicy::default()).await
}

/// The one executor behind every entry point: [`execute_with_policy`]
/// over any [`AsyncComm`] endpoint. Blocking transports drive it with
/// [`block_on`]; the event-driven simulator endpoint awaits it.
pub async fn execute_with_policy_async<C: AsyncComm + ?Sized>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
    tracer: &Tracer,
    policy: &RecoveryPolicy,
) -> Result<ScheduleReport> {
    let mut resume = None;
    let (result, report) = execute_resumable(comm, sched, bind, tracer, policy, &mut resume).await;
    // Public entry points never resume: abandon any torn-execution
    // state so scratch is freed exactly as it always was.
    if let Some(state) = resume {
        state.abandon(comm);
    }
    result.map(|()| report)
}

/// Execution state that survives a torn schedule run so a later attempt
/// can resume from the watermark instead of starting over: scratch
/// buffers hold staged data (e.g. Bruck rotations), token registers hold
/// the peers' exposures already collected by completed control steps.
pub(crate) struct ResumeState {
    temps: Vec<BufId>,
    regs: Vec<Option<RemoteToken>>,
    /// Index of the first IR step the next attempt must run.
    next_step: usize,
}

impl ResumeState {
    /// Give up on resuming: free the preserved scratch buffers.
    pub(crate) fn abandon<C: AsyncComm + ?Sized>(self, comm: &mut C) {
        for t in self.temps {
            let _ = comm.free(t);
        }
    }
}

/// [`execute_with_policy_async`] with partial-progress resume: the membership
/// layer's crate-internal entry point.
///
/// Always returns the execution's [`ScheduleReport`], even when a step
/// failed — a torn run's report carries the watermark
/// ([`ScheduleReport::completed_steps`]) and the observed step-latency
/// p99 the adaptive liveness deadline feeds on.
///
/// On entry, `resume` carries the state of a previous torn attempt of
/// the *same* schedule (or `None` for a fresh run). On a torn exit the
/// state is stored back with an updated watermark and scratch is *not*
/// freed; on success the state is consumed and scratch is freed. A
/// caller that decides not to resume must call [`ResumeState::abandon`].
pub(crate) async fn execute_resumable<C: AsyncComm + ?Sized>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
    tracer: &Tracer,
    policy: &RecoveryPolicy,
    resume: &mut Option<ResumeState>,
) -> (Result<()>, ScheduleReport) {
    if sched.rank != comm.rank() || sched.p != comm.size() {
        let e = proto(format!(
            "schedule compiled for rank {}/{} executed on rank {}/{}",
            sched.rank,
            sched.p,
            comm.rank(),
            comm.size()
        ));
        return (Err(e), ScheduleReport::default());
    }

    let (mut ctx, start) = match resume.take() {
        // Resume only into the same plan shape; anything else would
        // corrupt state, so start over.
        Some(st) if st.temps.len() == sched.temps.len() && st.regs.len() == sched.token_regs => {
            let start = st.next_step.min(sched.steps.len());
            let (temps, regs) = (st.temps, st.regs);
            (Ctx { bind, temps, regs }, start)
        }
        stale => {
            if let Some(st) = stale {
                st.abandon(comm);
            }
            let temps = sched.temps.iter().map(|&len| comm.alloc(len)).collect();
            let regs = vec![None; sched.token_regs];
            (Ctx { bind, temps, regs }, 0)
        }
    };
    let mut rec = Recorder::new(tracer, Track::Rank(comm.rank()), sched.class);

    let t_start = comm.time_ns();
    let result = run_steps(comm, sched, &mut ctx, &mut rec, policy, start).await;
    rec.finish(comm.time_ns().saturating_sub(t_start));

    match result {
        Ok(()) => {
            for t in ctx.temps.drain(..) {
                let _ = comm.free(t);
            }
            (Ok(()), rec.report)
        }
        Err(e) => {
            *resume = Some(ResumeState {
                temps: std::mem::take(&mut ctx.temps),
                regs: std::mem::take(&mut ctx.regs),
                next_step: rec.report.completed_steps as usize,
            });
            (Err(e), rec.report)
        }
    }
}

/// `errno` for "no such process": the peer died. Named locally to keep
/// this crate libc-free.
pub(crate) const ESRCH: i32 = 3;

/// True for errors worth retrying in place: the operation may succeed on
/// a later attempt with no change of data path. `Os(ESRCH)` — peer died —
/// is permanent; so is `PermissionDenied`, which recovery routes to the
/// fallback path instead of the retry loop.
pub(crate) fn is_transient(e: &CommError) -> bool {
    match e {
        CommError::Os(code) => *code != ESRCH,
        CommError::Timeout { .. } => true,
        _ => false,
    }
}

/// True for errors the liveness watchdog attributes to peer death: an
/// expired bounded wait, the transport's `ESRCH`, or an already-typed
/// peer-death report.
fn is_suspect_error(e: &CommError) -> bool {
    matches!(
        e,
        CommError::Timeout { .. } | CommError::Os(ESRCH) | CommError::PeerDead(_)
    )
}

/// The deadline a blocking receive runs under: the explicit step timeout
/// when set, else the membership liveness deadline when the watchdog is
/// armed, else unbounded.
fn recv_deadline_ns(policy: &RecoveryPolicy) -> Option<u64> {
    policy.step_timeout_ns.or_else(|| {
        policy
            .membership
            .watch
            .then_some(policy.membership.liveness_timeout_ns)
    })
}

/// The remote rank a step communicates with, when one is identifiable —
/// the suspect the watchdog charges a failure of this step to. CMA
/// transfers resolve their peer through the token register, which is
/// filled by the time the transfer can fail; steps with no peer (local
/// copies, reductions, exposes) return `None`.
fn step_peer(step: &Step, ctx: &Ctx<'_>) -> Option<usize> {
    match step {
        Step::CtrlSend { to, .. } | Step::Notify { to, .. } | Step::ShmSend { to, .. } => Some(*to),
        Step::CtrlRecv { from, .. }
        | Step::WaitNotify { from, .. }
        | Step::ShmRecv { from, .. } => Some(*from),
        Step::CmaRead { token, .. } | Step::CmaWrite { token, .. } => {
            ctx.token(*token).ok().map(|t| t.rank as usize)
        }
        Step::Expose { .. } | Step::CopyLocal { .. } | Step::Reduce { .. } => None,
    }
}

/// Sleep the policy's exponential backoff for the `attempt`-th
/// consecutive failure (1-based), charging it on the transport's clock.
async fn backoff<C: AsyncComm + ?Sized>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    attempt: u32,
) {
    if policy.backoff_ns == 0 {
        return;
    }
    let ns = policy.backoff_ns << (attempt.min(6) - 1).min(5);
    let t0 = comm.time_ns();
    comm.sleep_ns(ns).await;
    rec.recovery("retry:backoff", 0, t0, comm.time_ns());
}

/// Run one non-resumable operation under the transient-retry loop.
async fn retry_transient<C: AsyncComm + ?Sized, T>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    mut op: impl AsyncFnMut(&mut C) -> Result<T>,
) -> Result<T> {
    let mut attempts = 0u32;
    loop {
        let t0 = comm.time_ns();
        match op(comm).await {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) => {
                rec.recovery("fault:transient", 0, t0, comm.time_ns());
                attempts += 1;
                if attempts > policy.max_retries {
                    return Err(e);
                }
                backoff(comm, rec, policy, attempts).await;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A CMA read or write with the full recovery ladder: short transfers
/// resume from the partial offset (progress resets the retry budget),
/// transient errors retry with backoff, and persistent failure or
/// permission denial degrades to the two-copy fallback when allowed.
#[allow(clippy::too_many_arguments)]
async fn recovered_cma<C: AsyncComm + ?Sized>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    read: bool,
    token: RemoteToken,
    remote_off: usize,
    local: BufId,
    local_off: usize,
    len: usize,
) -> Result<()> {
    let mut at = 0usize;
    let mut attempts = 0u32;
    loop {
        let t0 = comm.time_ns();
        let r = if read {
            comm.cma_read(token, remote_off + at, local, local_off + at, len - at)
                .await
        } else {
            comm.cma_write(token, remote_off + at, local, local_off + at, len - at)
                .await
        };
        let e = match r {
            Ok(()) => return Ok(()),
            Err(e) => e,
        };
        let give_up = match e {
            CommError::Truncated { got, .. } if got > 0 => {
                // Forward progress: resume past the bytes that landed.
                rec.recovery("fault:short", got, t0, comm.time_ns());
                at += got.min(len - at);
                attempts = 0;
                if at >= len {
                    return Ok(());
                }
                continue;
            }
            CommError::Truncated { .. } => {
                // Zero-progress truncation is just a transient failure.
                rec.recovery("fault:short", 0, t0, comm.time_ns());
                CommError::Truncated {
                    wanted: len,
                    got: at,
                }
            }
            CommError::PermissionDenied => {
                // Revoked access never heals by retrying the same path.
                rec.recovery("fault:denied", 0, t0, comm.time_ns());
                let e = CommError::PermissionDenied;
                return fallback_or(
                    comm, rec, policy, read, e, token, remote_off, at, local, local_off, len,
                )
                .await;
            }
            e if is_transient(&e) => {
                rec.recovery("fault:transient", 0, t0, comm.time_ns());
                e
            }
            e => return Err(e),
        };
        attempts += 1;
        if attempts > policy.max_retries {
            return fallback_or(
                comm, rec, policy, read, give_up, token, remote_off, at, local, local_off, len,
            )
            .await;
        }
        backoff(comm, rec, policy, attempts).await;
    }
}

/// Finish the remainder (`at..len`) of a failed CMA step over the
/// two-copy shared-memory fallback, or return the original CMA error
/// when the policy forbids it, the peer is dead, or the transport cannot
/// stage the fallback. The *original* error is surfaced in every failure
/// case — it names the root cause; the fallback failing is secondary.
#[allow(clippy::too_many_arguments)]
async fn fallback_or<C: AsyncComm + ?Sized>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    read: bool,
    orig: CommError,
    token: RemoteToken,
    remote_off: usize,
    at: usize,
    local: BufId,
    local_off: usize,
    len: usize,
) -> Result<()> {
    let peer_dead = matches!(orig, CommError::Os(ESRCH) | CommError::PeerDead(_));
    if !policy.cma_fallback || peer_dead {
        return Err(orig);
    }
    let rest = len - at;
    let t0 = comm.time_ns();
    let r = if read {
        comm.shm_fallback_read(token, remote_off + at, local, local_off + at, rest)
            .await
    } else {
        comm.shm_fallback_write(token, remote_off + at, local, local_off + at, rest)
            .await
    };
    match r {
        Ok(()) => {
            let name = if read {
                "fallback:read"
            } else {
                "fallback:write"
            };
            rec.recovery(name, rest, t0, comm.time_ns());
            Ok(())
        }
        Err(_) => Err(orig),
    }
}

/// A blocking receive under the policy: `recv` is handed the deadline
/// from [`recv_deadline_ns`] and answers `Ok(None)` when it expired.
/// Expiry surfaces as [`CommError::Timeout`] and counts against the
/// retry budget without backoff (the wait itself was the delay); other
/// transient errors retry with backoff like every other step.
async fn recovered_recv<C: AsyncComm + ?Sized, T>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    mut recv: impl AsyncFnMut(&mut C, Option<u64>) -> Result<Option<T>>,
) -> Result<T> {
    let deadline = recv_deadline_ns(policy);
    let mut attempts = 0u32;
    loop {
        let t0 = comm.time_ns();
        let e = match recv(comm, deadline).await {
            Ok(Some(v)) => return Ok(v),
            Ok(None) => CommError::Timeout {
                waited_ns: deadline.unwrap_or(0),
            },
            Err(e) => e,
        };
        let expired = matches!(e, CommError::Timeout { .. });
        if !is_transient(&e) {
            return Err(e);
        }
        let name = if expired {
            "fault:timeout"
        } else {
            "fault:transient"
        };
        rec.recovery(name, 0, t0, comm.time_ns());
        attempts += 1;
        if attempts > policy.max_retries {
            return Err(e);
        }
        if !expired {
            backoff(comm, rec, policy, attempts).await;
        }
    }
}

/// A control receive (or 0-byte notification wait) under the policy.
async fn recovered_ctrl_recv<C: AsyncComm + ?Sized>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    from: usize,
    tag: Tag,
) -> Result<Vec<u8>> {
    recovered_recv(
        comm,
        rec,
        policy,
        async |c: &mut C, deadline| match deadline {
            Some(ns) => c.ctrl_recv_deadline(from, tag, ns).await,
            None => c.ctrl_recv(from, tag).await.map(Some),
        },
    )
    .await
}

/// Run every step, interposing the liveness watchdog: when the policy's
/// membership watch is armed and a step with an identifiable peer dies
/// with a suspect error (timeout, `ESRCH`), the failure is recorded as
/// a `membership:suspect` span and either converted to the typed
/// [`CommError::PeerDead`] or — under a tolerant policy — the step is
/// skipped so the rest of the schedule still runs.
async fn run_steps<C: AsyncComm + ?Sized>(
    comm: &mut C,
    sched: &Schedule,
    ctx: &mut Ctx<'_>,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    start: usize,
) -> Result<()> {
    rec.report.completed_steps = start as u64;
    let m = &policy.membership;
    let mut suspects: Vec<usize> = Vec::new();
    for step in &sched.steps[start..] {
        let t0 = comm.time_ns();
        if m.watch && m.tolerant {
            if let Some(peer) = step_peer(step, ctx) {
                if suspects.contains(&peer) {
                    // A peer that already missed one deadline in this
                    // run will not answer later steps either; skipping
                    // immediately bounds a rank's detection lateness to
                    // one timeout chain instead of one per torn
                    // exchange, which keeps stragglers inside the
                    // agreement's refutation window.
                    rec.recovery("membership:suspect", peer, t0, t0);
                    rec.report.completed_steps += 1;
                    continue;
                }
            }
        }
        if let Err(e) = run_one_step(comm, step, ctx, rec, policy, t0).await {
            if m.watch && is_suspect_error(&e) {
                if let Some(peer) = step_peer(step, ctx) {
                    rec.recovery("membership:suspect", peer, t0, comm.time_ns());
                    if m.tolerant {
                        // A tolerated failure still moves the watermark:
                        // the executor is past this step for good.
                        suspects.push(peer);
                        rec.report.completed_steps += 1;
                        continue;
                    }
                    return Err(CommError::PeerDead(peer));
                }
            }
            return Err(e);
        }
        rec.report.completed_steps += 1;
    }
    Ok(())
}

/// Execute one IR step under the recovery policy; the watchdog wrapper
/// in [`run_steps`] decides what a failure means.
async fn run_one_step<C: AsyncComm + ?Sized>(
    comm: &mut C,
    step: &Step,
    ctx: &mut Ctx<'_>,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    t0: u64,
) -> Result<()> {
    match step {
        Step::Expose { slot, reg } => {
            let buf = ctx.slot(*slot)?;
            let token =
                retry_transient(comm, rec, policy, async |c: &mut C| c.expose(buf).await).await?;
            ctx.set_token(*reg, token)?;
            rec.add(StepKind::Expose, 0, t0, comm.time_ns());
        }
        Step::CmaRead {
            token,
            remote_off,
            dst: local,
            dst_off: local_off,
            len,
        }
        | Step::CmaWrite {
            token,
            remote_off,
            src: local,
            src_off: local_off,
            len,
        } => {
            let read = matches!(step, Step::CmaRead { .. });
            let t = ctx.token(*token)?;
            let buf = ctx.slot(*local)?;
            recovered_cma(
                comm,
                rec,
                policy,
                read,
                t,
                *remote_off,
                buf,
                *local_off,
                *len,
            )
            .await?;
            let kind = if read {
                StepKind::CmaRead
            } else {
                StepKind::CmaWrite
            };
            rec.add(kind, *len, t0, comm.time_ns());
        }
        Step::CopyLocal {
            src,
            src_off,
            dst,
            dst_off,
            len,
        } => {
            let src = ctx.slot(*src)?;
            let dst = ctx.slot(*dst)?;
            comm.copy_local(src, *src_off, dst, *dst_off, *len).await?;
            rec.add(StepKind::CopyLocal, *len, t0, comm.time_ns());
        }
        Step::CtrlSend { to, tag, payload } => {
            let body = ctx.render_payload(payload)?;
            retry_transient(comm, rec, policy, async |c: &mut C| {
                c.ctrl_send(*to, *tag, &body).await
            })
            .await?;
            rec.add(StepKind::CtrlSend, body.len(), t0, comm.time_ns());
        }
        Step::CtrlRecv { from, tag, into } => {
            let body = recovered_ctrl_recv(comm, rec, policy, *from, *tag).await?;
            let n = body.len();
            ctx.apply_recv(into, body)?;
            rec.add(StepKind::CtrlRecv, n, t0, comm.time_ns());
        }
        Step::Notify { to, tag } => {
            // A notification is a 0-byte control message
            // (`CommExt::notify`).
            retry_transient(comm, rec, policy, async |c: &mut C| {
                c.ctrl_send(*to, *tag, &[]).await
            })
            .await?;
            rec.add(StepKind::Notify, 0, t0, comm.time_ns());
        }
        Step::WaitNotify { from, tag } => {
            // Routed through the bounded receive so the wait obeys the
            // step timeout (mirrors `CommExt::wait_notify`).
            let body = recovered_ctrl_recv(comm, rec, policy, *from, *tag).await?;
            kacc_comm::check_notification(*from, &body)?;
            rec.add(StepKind::WaitNotify, 0, t0, comm.time_ns());
        }
        Step::ShmSend {
            to,
            tag,
            src,
            off,
            len,
        } => {
            let src = ctx.slot(*src)?;
            retry_transient(comm, rec, policy, async |c: &mut C| {
                c.shm_send_data(*to, *tag, src, *off, *len).await
            })
            .await?;
            rec.add(StepKind::ShmSend, *len, t0, comm.time_ns());
        }
        Step::ShmRecv {
            from,
            tag,
            dst,
            off,
            len,
        } => {
            let dst = ctx.slot(*dst)?;
            let (from, tag, off, len) = (*from, *tag, *off, *len);
            recovered_recv(
                comm,
                rec,
                policy,
                async |c: &mut C, deadline| match deadline {
                    Some(ns) => Ok(c
                        .shm_recv_deadline(from, tag, dst, off, len, ns)
                        .await?
                        .then_some(())),
                    None => c.shm_recv_data(from, tag, dst, off, len).await.map(Some),
                },
            )
            .await?;
            rec.add(StepKind::ShmRecv, len, t0, comm.time_ns());
        }
        Step::Reduce {
            op,
            dtype,
            acc,
            acc_off,
            src,
            src_off,
            len,
        } => {
            let acc_buf = ctx.slot(*acc)?;
            let src_buf = ctx.slot(*src)?;
            let mut acc_bytes = vec![0u8; *len];
            let mut src_bytes = vec![0u8; *len];
            comm.read_local(acc_buf, *acc_off, &mut acc_bytes)?;
            comm.read_local(src_buf, *src_off, &mut src_bytes)?;
            combine(&mut acc_bytes, &src_bytes, *dtype, *op);
            comm.write_local(acc_buf, *acc_off, &acc_bytes)?;
            rec.add(StepKind::Reduce, *len, t0, comm.time_ns());
        }
    }
    Ok(())
}
