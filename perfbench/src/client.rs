//! The benchmark's load generator and its unreplicated counterpart.
//!
//! A [`LoadClient`] replays a fixed list of operations and records, per
//! operation, the virtual instant it was due, the instant its result was
//! accepted, and the result bytes. It sends either through the replication
//! protocol (an embedded `ClientCore`, i.e. a relay) or straight to one
//! unreplicated [`DirectServer`], so the baseline runs the very same
//! schedule.

use base::{ModifyLog, Wrapper};
use base_pbft::{ClientCore, ClientEvent, ExecEnv};
use base_simnet::{Actor, Context, NodeId, SimDuration};
use std::collections::VecDeque;

/// Timer token of the open-loop schedule (`ClientCore` owns the tokens
/// with the high bit set).
const TOKEN_DUE: u64 = 1;

/// One operation of a client's list.
#[derive(Clone, Debug)]
pub struct Op {
    pub bytes: Vec<u8>,
    pub read_only: bool,
}

/// When the measured operations are due.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Each operation is due the moment the previous one completes.
    Closed,
    /// Operation `k` of the measured part is due `(k + 1) * gap` after the
    /// warm-up finished, whether or not earlier ones have completed.
    Open { gap: SimDuration },
}

/// Where a client sends its operations.
pub enum Link {
    Replicated(Box<ClientCore>),
    Direct(NodeId),
}

/// The virtual-time record of one operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    pub due_ns: u64,
    pub done_ns: u64,
    pub result: Vec<u8>,
}

/// A load generator running `ops`: the first `warmup` closed-loop (state
/// set-up, not measured), the rest by `arrival`.
pub struct LoadClient {
    link: Link,
    ops: Vec<Op>,
    warmup: usize,
    arrival: Arrival,
    /// Operations due but not yet sent, with their due instants.
    waiting: VecDeque<(usize, u64)>,
    inflight: Option<(usize, u64)>,
    /// Index of the next operation not yet due.
    next: usize,
    /// Virtual instant the warm-up finished.
    start_ns: u64,
    /// One record per completed operation, in list order.
    pub records: Vec<Record>,
}

impl LoadClient {
    pub fn new(link: Link, ops: Vec<Op>, warmup: usize, arrival: Arrival) -> Self {
        Self {
            link,
            ops,
            warmup,
            arrival,
            waiting: VecDeque::new(),
            inflight: None,
            next: 0,
            start_ns: 0,
            records: Vec::new(),
        }
    }

    /// True once every warm-up operation completed.
    pub fn warmed_up(&self) -> bool {
        self.records.len() >= self.warmup
    }

    /// True once every operation completed.
    pub fn done(&self) -> bool {
        self.records.len() == self.ops.len()
    }

    /// Client retransmissions (0 for a direct link).
    pub fn retransmissions(&self) -> u64 {
        match &self.link {
            Link::Replicated(core) => core.retransmissions,
            Link::Direct(_) => 0,
        }
    }

    fn open_due(&self, i: usize) -> u64 {
        let Arrival::Open { gap } = self.arrival else {
            unreachable!("open arrivals only")
        };
        self.start_ns + (i - self.warmup + 1) as u64 * gap.as_nanos()
    }

    /// Makes operation `next` due now if it is closed-loop; arms the
    /// schedule timer when the open-loop part begins.
    fn release_next(&mut self, ctx: &mut Context<'_>) {
        if self.next >= self.ops.len() {
            return;
        }
        let now = ctx.now().as_nanos();
        if self.next < self.warmup || matches!(self.arrival, Arrival::Closed) {
            self.waiting.push_back((self.next, now));
            self.next += 1;
        } else if self.next == self.warmup {
            self.start_ns = now;
            let due = self.open_due(self.next);
            ctx.set_timer(SimDuration::from_nanos(due - now), TOKEN_DUE);
        }
    }

    fn send_next(&mut self, ctx: &mut Context<'_>) {
        if self.inflight.is_some() {
            return;
        }
        let Some((i, due)) = self.waiting.pop_front() else {
            return;
        };
        let op = &self.ops[i];
        match &mut self.link {
            Link::Replicated(core) => {
                core.submit(op.bytes.clone(), op.read_only);
                core.pump(ctx);
            }
            Link::Direct(server) => ctx.send(*server, op.bytes.clone()),
        }
        self.inflight = Some((i, due));
    }

    fn complete(&mut self, result: Vec<u8>, ctx: &mut Context<'_>) {
        let (i, due_ns) = self
            .inflight
            .take()
            .expect("a result implies an operation in flight");
        debug_assert_eq!(i, self.records.len(), "operations complete in list order");
        self.records.push(Record {
            due_ns,
            done_ns: ctx.now().as_nanos(),
            result,
        });
        if self.next == i + 1 {
            self.release_next(ctx);
        }
        self.send_next(ctx);
    }
}

impl Actor for LoadClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.release_next(ctx);
        self.send_next(ctx);
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        let result = match &mut self.link {
            Link::Replicated(core) => match core.on_message(from, payload, ctx) {
                Some(ClientEvent::Completed { result, .. }) => result,
                _ => return,
            },
            Link::Direct(server) => {
                if from != *server || self.inflight.is_none() {
                    return;
                }
                payload.to_vec()
            }
        };
        self.complete(result, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if token != TOKEN_DUE {
            if let Link::Replicated(core) = &mut self.link {
                core.on_timer(token, ctx);
            }
            return;
        }
        let now = ctx.now().as_nanos();
        while self.next < self.ops.len() && self.open_due(self.next) <= now {
            self.waiting
                .push_back((self.next, self.open_due(self.next)));
            self.next += 1;
        }
        if self.next < self.ops.len() {
            let due = self.open_due(self.next);
            ctx.set_timer(SimDuration::from_nanos(due - now), TOKEN_DUE);
        }
        self.send_next(ctx);
    }
}

/// One unreplicated server: executes each operation against a conformance
/// wrapper with the server's own clock as the timestamp, and answers at
/// once (no agreement, no authentication, no checkpoints).
pub struct DirectServer<W> {
    wrapper: W,
    mods: ModifyLog,
    clock_ns: u64,
}

impl<W: Wrapper> DirectServer<W> {
    pub fn new(wrapper: W) -> Self {
        Self {
            wrapper,
            mods: ModifyLog::new(),
            clock_ns: 0,
        }
    }
}

impl<W: Wrapper> Actor for DirectServer<W> {
    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        let clock = ctx.local_clock().as_nanos().max(self.clock_ns + 1);
        self.clock_ns = clock;
        let (reply, charged) = {
            let mut env = ExecEnv::new(clock, ctx.rng());
            let reply = self.wrapper.execute(
                payload,
                from.0 as u32,
                &clock.to_be_bytes(),
                false,
                &mut self.mods,
                &mut env,
            );
            (reply, env.charged())
        };
        ctx.charge(charged);
        ctx.send(from, reply);
    }
}
