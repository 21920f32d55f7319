//! Causal span reconstruction and critical-path latency attribution.
//!
//! The trace layer ([`crate::trace`]) records a flat, time-ordered stream
//! of protocol events. This module rebuilds, per client operation, the
//! causal span graph behind that stream — client submit → primary proposal
//! → prepare quorum → commit quorum → execution → reply send → client
//! complete — and attributes each operation's end-to-end latency to exact
//! phase segments that **sum to the total by construction**.
//!
//! The reconstruction is a pure function of the event stream: same trace
//! in, same spans out, byte for byte. Since traces themselves are
//! deterministic at a fixed seed (regardless of campaign worker count),
//! every rendering here — the per-op span lines, the phase breakdown
//! table, the Perfetto export — is too.
//!
//! ## The critical-path chain
//!
//! Each operation is keyed by `(client node, request timestamp)`; the
//! client stamps both onto its `client_op_submitted` / `client_op_completed`
//! events (timestamp in the `seq` field), and the replica-side causal
//! events (`request_proposed`, `reply_sent`) carry the same key, which is
//! the edge connecting the client's timeline to the agreement instance.
//!
//! From the key the analyzer picks one instant per phase boundary:
//!
//! 1. `submitted` — the client's first transmission,
//! 2. `proposed` — the proposal that actually served the op (the last
//!    `request_proposed` before completion, surviving view-change
//!    re-proposals); this also fixes the `(view, seq)` of the slot,
//! 3. `prepare_quorum`, `commit_quorum`, `executed` — the first matching
//!    event of that slot after the proposal,
//! 4. `reply_sent` — the first reply for the op,
//! 5. `completed` — the client's reply-certificate acceptance.
//!
//! Instants are then clamped into a monotone chain inside
//! `[submitted, completed]`. A phase whose event is missing (read-only
//! ops, ring-buffer eviction, faults) collapses to a zero-length segment
//! and its time is absorbed by the neighboring segment — the six segments
//! always telescope to exactly `completed - submitted`.

use crate::actor::NodeId;
use crate::metrics::Histogram;
use crate::time::SimTime;
use crate::trace::{ProtocolEvent, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Critical-path segments of one completed operation, in nanoseconds.
/// Invariant: the six fields sum to exactly the op's end-to-end latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Segments {
    /// Submit to proposal: client→primary wire time plus the primary's
    /// batching/queueing delay (includes `queue_ns` event-loop lag).
    pub request_ns: u64,
    /// Proposal to prepare certificate: the pre-prepare/prepare exchange.
    pub prepare_ns: u64,
    /// Prepare certificate to commit certificate.
    pub commit_ns: u64,
    /// Commit certificate to execution (execution queue + upcall).
    pub execute_ns: u64,
    /// Execution to the reply leaving a replica.
    pub reply_ns: u64,
    /// Reply send to the client's certificate acceptance (last wire hop
    /// plus quorum wait).
    pub delivery_ns: u64,
}

impl Segments {
    /// Total attributed latency — equals the op's end-to-end latency.
    pub fn total_ns(&self) -> u64 {
        self.request_ns
            + self.prepare_ns
            + self.commit_ns
            + self.execute_ns
            + self.reply_ns
            + self.delivery_ns
    }
}

/// One client operation's reconstructed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// Submitting client node.
    pub client: NodeId,
    /// Client-assigned request timestamp (the op key).
    pub ts: u64,
    /// First transmission instant.
    pub submitted: SimTime,
    /// Reply-certificate acceptance instant; `None` for ops still pending
    /// at the end of the trace.
    pub completed: Option<SimTime>,
    /// View of the agreement slot that served the op (0 if never proposed).
    pub view: u64,
    /// Sequence number of that slot (0 if never proposed).
    pub seq: u64,
    /// Critical-path attribution (all zero while incomplete).
    pub segments: Segments,
    /// Event-loop lag the proposal experienced at the primary, ns
    /// (sub-attribution inside `segments.request_ns`).
    pub primary_queue_ns: u64,
    /// Client retransmissions for this op (detour annotation).
    pub retransmits: u32,
    /// Read-only quorum degradation detour observed for this op.
    pub degraded: bool,
    /// View changes that started anywhere in the op's lifetime window.
    pub view_changes: u32,
}

impl OpSpan {
    /// End-to-end latency, ns (`None` while incomplete).
    pub fn latency_ns(&self) -> Option<u64> {
        self.completed.map(|c| (c - self.submitted).as_nanos())
    }
}

/// Reconstructs per-operation spans from a recorded trace, in submission
/// order. Pure and deterministic: identical traces yield identical spans.
pub fn build_spans(events: &[TraceEvent]) -> Vec<OpSpan> {
    type Key = (usize, u64); // (client node index, request timestamp)

    // Per-op raw material, gathered in one pass.
    #[derive(Default)]
    struct Raw {
        submitted: Option<SimTime>,
        completed: Option<SimTime>,
        proposals: Vec<(SimTime, u64, u64, u64)>, // (at, view, seq, queue_ns)
        replies: Vec<SimTime>,
        retransmits: u32,
        degraded: bool,
    }

    let mut ops: BTreeMap<Key, Raw> = BTreeMap::new();
    let mut order: Vec<Key> = Vec::new();
    // First PrepareQuorum / CommitQuorum / RequestExecuted per (view, seq).
    let mut prepare_q: BTreeMap<(u64, u64), SimTime> = BTreeMap::new();
    let mut commit_q: BTreeMap<(u64, u64), SimTime> = BTreeMap::new();
    let mut executed: BTreeMap<(u64, u64), SimTime> = BTreeMap::new();
    let mut vc_starts: Vec<SimTime> = Vec::new();

    for ev in events {
        match ev.event {
            ProtocolEvent::ClientOpSubmitted => {
                let key = (ev.node.0, ev.seq);
                let raw = ops.entry(key).or_default();
                if raw.submitted.is_none() {
                    raw.submitted = Some(ev.at);
                    order.push(key);
                }
            }
            ProtocolEvent::ClientOpCompleted => {
                let raw = ops.entry((ev.node.0, ev.seq)).or_default();
                if raw.completed.is_none() {
                    raw.completed = Some(ev.at);
                }
            }
            ProtocolEvent::ClientRetransmit => {
                ops.entry((ev.node.0, ev.seq)).or_default().retransmits += 1;
            }
            ProtocolEvent::ReplyQuorumDegraded => {
                ops.entry((ev.node.0, ev.seq)).or_default().degraded = true;
            }
            ProtocolEvent::RequestProposed { client, ts, queue_ns } => {
                ops.entry((client as usize, ts))
                    .or_default()
                    .proposals
                    .push((ev.at, ev.view, ev.seq, queue_ns));
            }
            ProtocolEvent::ReplySent { client, ts } => {
                ops.entry((client as usize, ts)).or_default().replies.push(ev.at);
            }
            ProtocolEvent::PrepareQuorum => {
                prepare_q.entry((ev.view, ev.seq)).or_insert(ev.at);
            }
            ProtocolEvent::CommitQuorum => {
                commit_q.entry((ev.view, ev.seq)).or_insert(ev.at);
            }
            ProtocolEvent::RequestExecuted { .. } => {
                executed.entry((ev.view, ev.seq)).or_insert(ev.at);
            }
            ProtocolEvent::ViewChangeStarted => vc_starts.push(ev.at),
            _ => {}
        }
    }

    let mut spans = Vec::with_capacity(order.len());
    for key in order {
        let raw = &ops[&key];
        let submitted = raw.submitted.expect("ordered keys have a submission");
        let mut span = OpSpan {
            client: NodeId(key.0),
            ts: key.1,
            submitted,
            completed: raw.completed,
            view: 0,
            seq: 0,
            segments: Segments::default(),
            primary_queue_ns: 0,
            retransmits: raw.retransmits,
            degraded: raw.degraded,
            view_changes: 0,
        };

        // The proposal that served the op: the last one before completion
        // (a view change may re-propose the op in a later slot; the final
        // proposal is the one the reply certificate stems from).
        let horizon = raw.completed.unwrap_or(SimTime(u64::MAX));
        let proposal = raw
            .proposals
            .iter()
            .rfind(|(at, ..)| *at <= horizon)
            .or_else(|| raw.proposals.first());
        if let Some(&(p_at, view, seq, queue_ns)) = proposal {
            span.view = view;
            span.seq = seq;
            span.primary_queue_ns = queue_ns;

            if let Some(completed) = raw.completed {
                // Monotone clamped chain: each instant is pulled into
                // [previous, completed]; missing events inherit the
                // previous instant (zero-length segment). Telescoping
                // makes the segments sum exactly to completed - submitted.
                let clamp = |t: Option<SimTime>, lo: SimTime| -> SimTime {
                    t.unwrap_or(lo).max(lo).min(completed)
                };
                let slot = (view, seq);
                let t1 = clamp(Some(p_at), submitted);
                let t2 = clamp(prepare_q.get(&slot).copied(), t1);
                let t3 = clamp(commit_q.get(&slot).copied(), t2);
                let t4 = clamp(executed.get(&slot).copied(), t3);
                let t5 = clamp(
                    raw.replies.iter().find(|at| **at >= t4).copied(),
                    t4,
                );
                span.segments = Segments {
                    request_ns: (t1 - submitted).as_nanos(),
                    prepare_ns: (t2 - t1).as_nanos(),
                    commit_ns: (t3 - t2).as_nanos(),
                    execute_ns: (t4 - t3).as_nanos(),
                    reply_ns: (t5 - t4).as_nanos(),
                    delivery_ns: (completed - t5).as_nanos(),
                };
            }
        } else if let Some(completed) = raw.completed {
            // Never proposed (read-only fast path, or causal events lost):
            // the whole latency is request + delivery around the first
            // reply, or all delivery if no reply was traced either.
            let t5 = raw
                .replies
                .first()
                .copied()
                .unwrap_or(submitted)
                .max(submitted)
                .min(completed);
            span.segments.request_ns = (t5 - submitted).as_nanos();
            span.segments.delivery_ns = (completed - t5).as_nanos();
        }

        let end = raw.completed.unwrap_or(SimTime(u64::MAX));
        span.view_changes =
            vc_starts.iter().filter(|at| **at >= submitted && **at <= end).count() as u32;
        spans.push(span);
    }
    spans
}

/// Aggregated per-phase latency histograms over completed spans, built on
/// the exact-merge log₂ histograms from [`crate::metrics`].
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// One histogram per critical-path segment, plus the end-to-end total
    /// and the primary queueing sub-attribution.
    pub request: Histogram,
    /// Pre-prepare/prepare exchange.
    pub prepare: Histogram,
    /// Commit certificate collection.
    pub commit: Histogram,
    /// Execution queue + upcall.
    pub execute: Histogram,
    /// Reply construction/send.
    pub reply: Histogram,
    /// Last hop + quorum wait at the client.
    pub delivery: Histogram,
    /// End-to-end.
    pub total: Histogram,
    /// Event-loop lag at the primary (subset of `request`).
    pub primary_queue: Histogram,
    /// Completed ops aggregated.
    pub ops: u64,
    /// Ops submitted but never completed in the trace.
    pub incomplete: u64,
}

impl PhaseBreakdown {
    /// Aggregates completed spans into per-phase histograms.
    pub fn from_spans(spans: &[OpSpan]) -> PhaseBreakdown {
        let mut b = PhaseBreakdown::default();
        for s in spans {
            if s.completed.is_none() {
                b.incomplete += 1;
                continue;
            }
            b.ops += 1;
            b.request.observe(s.segments.request_ns);
            b.prepare.observe(s.segments.prepare_ns);
            b.commit.observe(s.segments.commit_ns);
            b.execute.observe(s.segments.execute_ns);
            b.reply.observe(s.segments.reply_ns);
            b.delivery.observe(s.segments.delivery_ns);
            b.total.observe(s.segments.total_ns());
            b.primary_queue.observe(s.primary_queue_ns);
        }
        b
    }

    /// The phase rows in display order: `(name, histogram)`.
    pub fn phases(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("request", &self.request),
            ("prepare", &self.prepare),
            ("commit", &self.commit),
            ("execute", &self.execute),
            ("reply", &self.reply),
            ("delivery", &self.delivery),
        ]
    }

    /// Deterministic fixed-width table: per-phase mean/p50/p99/p999 (µs)
    /// and each phase's share of the summed attributed latency.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "phase     mean_us    p50_us    p99_us   p999_us  share%  (ops={}, incomplete={})",
            self.ops, self.incomplete
        );
        let grand_total = self.total.sum().max(1);
        for (name, h) in self.phases() {
            let _ = writeln!(
                out,
                "{name:<9} {:>8.1} {:>9} {:>9} {:>9} {:>6.1}%",
                h.mean() / 1_000.0,
                h.quantile(0.5) / 1_000,
                h.quantile(0.99) / 1_000,
                h.quantile(0.999) / 1_000,
                h.sum() as f64 * 100.0 / grand_total as f64,
            );
        }
        let _ = writeln!(
            out,
            "total     {:>8.1} {:>9} {:>9} {:>9} {:>6.1}%",
            self.total.mean() / 1_000.0,
            self.total.quantile(0.5) / 1_000,
            self.total.quantile(0.99) / 1_000,
            self.total.quantile(0.999) / 1_000,
            100.0,
        );
        out
    }
}

/// Deterministic per-op rendering, one line per span in submission order —
/// the span-graph half of the blessed snapshot gate.
pub fn render_spans(spans: &[OpSpan]) -> String {
    let mut out = String::new();
    for s in spans {
        match s.completed {
            Some(_) => {
                let _ = writeln!(
                    out,
                    "op client={} ts={} v={} seq={} sub_us={} total_us={} \
                     req={} prep={} com={} exec={} rep={} deliv={} queue={} \
                     retx={} degraded={} vc={}",
                    s.client.0,
                    s.ts,
                    s.view,
                    s.seq,
                    s.submitted.as_micros(),
                    s.latency_ns().unwrap_or(0) / 1_000,
                    s.segments.request_ns / 1_000,
                    s.segments.prepare_ns / 1_000,
                    s.segments.commit_ns / 1_000,
                    s.segments.execute_ns / 1_000,
                    s.segments.reply_ns / 1_000,
                    s.segments.delivery_ns / 1_000,
                    s.primary_queue_ns / 1_000,
                    s.retransmits,
                    s.degraded,
                    s.view_changes,
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "op client={} ts={} v={} seq={} sub_us={} INCOMPLETE retx={} vc={}",
                    s.client.0,
                    s.ts,
                    s.view,
                    s.seq,
                    s.submitted.as_micros(),
                    s.retransmits,
                    s.view_changes,
                );
            }
        }
    }
    out
}

/// Formats nanoseconds as a microsecond decimal (`1234567` → `"1234.567"`)
/// — Chrome trace `ts`/`dur` are µs, and going through integers keeps the
/// rendering byte-deterministic.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn json_escape_free(name: &str) -> &str {
    // Event names and args here are ASCII identifiers by construction; the
    // debug assert documents the invariant instead of paying an escaper.
    debug_assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_ =.-".contains(c)));
    name
}

/// Exports a trace plus its reconstructed spans as Chrome-trace-format
/// JSON (viewable in Perfetto / `chrome://tracing`): one track (`tid`) per
/// node, an instant event per raw protocol event, and nested duration
/// events for each completed operation's critical-path phases on the
/// owning client's track. Deterministic: identical inputs yield identical
/// bytes.
pub fn export_perfetto(events: &[TraceEvent], spans: &[OpSpan]) -> String {
    let mut parts: Vec<String> = Vec::new();

    // Thread-name metadata, one per node seen anywhere.
    let mut nodes: Vec<usize> =
        events.iter().map(|e| e.node.0).chain(spans.iter().map(|s| s.client.0)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in &nodes {
        parts.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{n},\
             \"args\":{{\"name\":\"node {n}\"}}}}"
        ));
    }

    // Raw protocol events as instants on the emitting node's track.
    for ev in events {
        let mut args = format!("\"view\":{},\"seq\":{}", ev.view, ev.seq);
        match ev.event {
            ProtocolEvent::StateTransferFetchChunk { bytes } => {
                let _ = write!(args, ",\"bytes\":{bytes}");
            }
            ProtocolEvent::StateTransferFetchCompleted { objects } => {
                let _ = write!(args, ",\"objects\":{objects}");
            }
            ProtocolEvent::RecoveryCompleted { repaired_corruption } => {
                let _ = write!(args, ",\"repaired_corruption\":{repaired_corruption}");
            }
            ProtocolEvent::RequestExecuted { batch } => {
                let _ = write!(args, ",\"batch\":{batch}");
            }
            ProtocolEvent::RequestProposed { client, ts, queue_ns } => {
                let _ = write!(args, ",\"client\":{client},\"ts\":{ts},\"queue_ns\":{queue_ns}");
            }
            ProtocolEvent::PrePrepareLogged { queue_ns } => {
                let _ = write!(args, ",\"queue_ns\":{queue_ns}");
            }
            ProtocolEvent::ReplySent { client, ts } => {
                let _ = write!(args, ",\"client\":{client},\"ts\":{ts}");
            }
            _ => {}
        }
        parts.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"proto\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
             \"tid\":{},\"ts\":{},\"args\":{{{args}}}}}",
            json_escape_free(ev.event.name()),
            ev.node.0,
            us(ev.at.as_nanos()),
        ));
    }

    // Completed ops: an enclosing X span on the client's track, with the
    // six phase segments nested inside by containment.
    for s in spans {
        let Some(completed) = s.completed else { continue };
        let t0 = s.submitted.as_nanos();
        let total = (completed - s.submitted).as_nanos();
        parts.push(format!(
            "{{\"name\":\"op ts={}\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"view\":{},\"seq\":{},\"retransmits\":{},\
             \"degraded\":{},\"view_changes\":{},\"primary_queue_ns\":{}}}}}",
            s.ts,
            s.client.0,
            us(t0),
            us(total),
            s.view,
            s.seq,
            s.retransmits,
            s.degraded,
            s.view_changes,
            s.primary_queue_ns,
        ));
        let segs = [
            ("request", s.segments.request_ns),
            ("prepare", s.segments.prepare_ns),
            ("commit", s.segments.commit_ns),
            ("execute", s.segments.execute_ns),
            ("reply", s.segments.reply_ns),
            ("delivery", s.segments.delivery_ns),
        ];
        let mut cursor = t0;
        for (name, dur) in segs {
            if dur > 0 {
                parts.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":0,\
                     \"tid\":{},\"ts\":{},\"dur\":{}}}",
                    s.client.0,
                    us(cursor),
                    us(dur),
                ));
            }
            cursor += dur;
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&parts.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, node: usize, view: u64, seq: u64, event: ProtocolEvent) -> TraceEvent {
        TraceEvent { at: SimTime::from_micros(at_us), node: NodeId(node), view, seq, event }
    }

    /// A hand-built trace of one op through the full protocol pipeline.
    fn pipeline_trace() -> Vec<TraceEvent> {
        vec![
            ev(100, 4, 0, 7, ProtocolEvent::ClientOpSubmitted),
            ev(
                130,
                0,
                0,
                3,
                ProtocolEvent::RequestProposed { client: 4, ts: 7, queue_ns: 5_000 },
            ),
            ev(150, 1, 0, 3, ProtocolEvent::PrePrepareLogged { queue_ns: 0 }),
            ev(180, 0, 0, 3, ProtocolEvent::PrepareQuorum),
            ev(220, 0, 0, 3, ProtocolEvent::CommitQuorum),
            ev(240, 0, 0, 3, ProtocolEvent::RequestExecuted { batch: 1 }),
            ev(250, 0, 0, 0, ProtocolEvent::ReplySent { client: 4, ts: 7 }),
            ev(255, 1, 0, 0, ProtocolEvent::ReplySent { client: 4, ts: 7 }),
            ev(300, 4, 0, 7, ProtocolEvent::ClientOpCompleted),
        ]
    }

    #[test]
    fn segments_sum_exactly_to_end_to_end_latency() {
        let spans = build_spans(&pipeline_trace());
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.client, NodeId(4));
        assert_eq!(s.ts, 7);
        assert_eq!((s.view, s.seq), (0, 3));
        assert_eq!(s.latency_ns(), Some(200_000));
        assert_eq!(s.segments.total_ns(), 200_000);
        assert_eq!(s.segments.request_ns, 30_000);
        assert_eq!(s.segments.prepare_ns, 50_000);
        assert_eq!(s.segments.commit_ns, 40_000);
        assert_eq!(s.segments.execute_ns, 20_000);
        assert_eq!(s.segments.reply_ns, 10_000);
        assert_eq!(s.segments.delivery_ns, 50_000);
        assert_eq!(s.primary_queue_ns, 5_000);
    }

    #[test]
    fn missing_phase_events_collapse_to_zero_segments() {
        // Only submit → proposed → complete survives (ring eviction, or a
        // read-only op): the sum invariant must still hold.
        let t = vec![
            ev(100, 4, 0, 7, ProtocolEvent::ClientOpSubmitted),
            ev(
                140,
                0,
                0,
                3,
                ProtocolEvent::RequestProposed { client: 4, ts: 7, queue_ns: 0 },
            ),
            ev(300, 4, 0, 7, ProtocolEvent::ClientOpCompleted),
        ];
        let spans = build_spans(&t);
        let s = &spans[0];
        assert_eq!(s.segments.total_ns(), 200_000);
        assert_eq!(s.segments.request_ns, 40_000);
        assert_eq!(s.segments.prepare_ns, 0);
        assert_eq!(s.segments.delivery_ns, 160_000);

        // No replica-side events at all.
        let t = vec![
            ev(100, 4, 0, 7, ProtocolEvent::ClientOpSubmitted),
            ev(260, 4, 0, 7, ProtocolEvent::ClientOpCompleted),
        ];
        let s = &build_spans(&t)[0];
        assert_eq!(s.segments.total_ns(), 160_000);
        assert_eq!(s.segments.delivery_ns, 160_000);
    }

    #[test]
    fn view_change_reproposal_uses_the_final_slot() {
        // Proposed in view 0 seq 3, then re-proposed in view 1 seq 3 after
        // a view change; the span must attach to the view-1 instance.
        let t = vec![
            ev(100, 4, 0, 7, ProtocolEvent::ClientOpSubmitted),
            ev(
                130,
                0,
                0,
                3,
                ProtocolEvent::RequestProposed { client: 4, ts: 7, queue_ns: 0 },
            ),
            ev(200, 1, 1, 0, ProtocolEvent::ViewChangeStarted),
            ev(400, 1, 1, 0, ProtocolEvent::ViewChangeCompleted),
            ev(
                450,
                1,
                1,
                3,
                ProtocolEvent::RequestProposed { client: 4, ts: 7, queue_ns: 2_000 },
            ),
            ev(500, 1, 1, 3, ProtocolEvent::PrepareQuorum),
            ev(520, 1, 1, 3, ProtocolEvent::CommitQuorum),
            ev(540, 1, 1, 3, ProtocolEvent::RequestExecuted { batch: 1 }),
            ev(550, 1, 1, 0, ProtocolEvent::ReplySent { client: 4, ts: 7 }),
            ev(600, 4, 0, 7, ProtocolEvent::ClientOpCompleted),
        ];
        let s = &build_spans(&t)[0];
        assert_eq!((s.view, s.seq), (1, 3));
        assert_eq!(s.view_changes, 1);
        assert_eq!(s.segments.total_ns(), 500_000);
        assert_eq!(s.segments.request_ns, 350_000);
    }

    #[test]
    fn incomplete_ops_are_reported_not_attributed() {
        let t = vec![ev(100, 4, 0, 7, ProtocolEvent::ClientOpSubmitted)];
        let spans = build_spans(&t);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].completed, None);
        assert_eq!(spans[0].segments.total_ns(), 0);
        let b = PhaseBreakdown::from_spans(&spans);
        assert_eq!(b.ops, 0);
        assert_eq!(b.incomplete, 1);
    }

    #[test]
    fn renderings_are_deterministic() {
        let t = pipeline_trace();
        let spans = build_spans(&t);
        assert_eq!(render_spans(&spans), render_spans(&build_spans(&t)));
        let b = PhaseBreakdown::from_spans(&spans);
        assert_eq!(b.table(), PhaseBreakdown::from_spans(&spans).table());
        let p = export_perfetto(&t, &spans);
        assert_eq!(p, export_perfetto(&t, &spans));
        // Spot-check shape: valid-ish JSON wrapper, µs formatting, nesting.
        assert!(p.starts_with("{\"traceEvents\":["));
        assert!(p.contains("\"thread_name\""));
        assert!(p.contains("\"ts\":100.000"), "{p}");
        assert!(p.contains("\"name\":\"op ts=7\""));
        assert!(p.contains("\"name\":\"delivery\""));
    }

    #[test]
    fn breakdown_totals_match_span_sums() {
        let spans = build_spans(&pipeline_trace());
        let b = PhaseBreakdown::from_spans(&spans);
        let phase_sum: u64 = b.phases().iter().map(|(_, h)| h.sum()).sum();
        assert_eq!(phase_sum, b.total.sum());
        assert_eq!(b.total.sum(), 200_000);
    }
}
