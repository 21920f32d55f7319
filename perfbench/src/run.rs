//! One replicated run of a workload: set-up, the measured part, and the
//! output checks; plus the unreplicated baseline.

use crate::client::LoadClient;
use crate::group::{self, ReplicaCounters, ReplicaView};
use crate::ledger::{self, Reading, SLOTS};
use crate::probe::{Plain, Probe};
use crate::workloads::Plan;
use base_simnet::{build_spans, OpSpan, SimDuration, Simulation, VecSink};
use std::time::{Duration, Instant};

/// Virtual time the simulator advances between completion checks.
const SLICE: SimDuration = SimDuration::from_millis(5);
/// Finer slices while pre-populating, so the measured part starts right
/// where set-up ends.
const SETUP_SLICE: SimDuration = SimDuration::from_millis(1);
/// Virtual time allowed for set-up and for the measured part; operations
/// still pending then count as failed.
const LIMIT: SimDuration = SimDuration::from_secs(600);
/// Virtual time allowed for every replica to catch up after the last
/// operation, before the state checks.
const SETTLE_LIMIT: SimDuration = SimDuration::from_secs(30);

/// The deterministic outcome of a run: identical for every run of a seed,
/// traced or not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimOutcome {
    /// `(due, done)` virtual instants of every completed measured
    /// operation, client by client.
    pub ops: Vec<(u64, u64)>,
    pub msgs: u64,
    pub bytes: u64,
    pub views: Vec<ReplicaView>,
}

/// What the traced run adds.
pub struct Trace {
    pub ledger: [Reading; SLOTS],
    /// Host time spent inside `Simulation::run_for`.
    pub in_sim: Duration,
    pub counters: Vec<ReplicaCounters>,
    pub client_retransmissions: u64,
    /// Spans of the measured operations.
    pub spans: Vec<OpSpan>,
}

/// One run's results.
pub struct RunOutcome {
    pub setup: Duration,
    /// Host time of the measured part.
    pub host: Duration,
    pub sim: SimOutcome,
    /// Operations that failed their check or never completed, plus failed
    /// group checks.
    pub failures: u64,
    pub trace: Option<Trace>,
}

fn client_retransmissions<P: Probe>(g: &group::Group) -> u64 {
    g.clients
        .iter()
        .map(|&c| group::client::<P>(&g.sim, c).retransmissions())
        .sum()
}

/// Runs `sim` in `slice` steps until `done` holds or `limit` passes,
/// returning the host time spent inside the simulator.
fn run_until(
    sim: &mut Simulation,
    slice: SimDuration,
    limit: SimDuration,
    done: impl Fn(&Simulation) -> bool,
) -> Duration {
    let deadline = sim.now() + limit;
    let mut in_sim = Duration::ZERO;
    while !done(sim) && sim.now() < deadline {
        let t = Instant::now();
        sim.run_for(slice);
        in_sim += t.elapsed();
    }
    in_sim
}

/// Runs `plan` once with the stack of probe `P`; `traced` also records the
/// protocol trace and reads the ledger.
pub fn run<P: Probe>(plan: &Plan, seed: u64, traced: bool) -> RunOutcome {
    let t_setup = Instant::now();
    let mut g = group::build::<P>(plan, seed);
    if traced {
        g.sim.set_trace_sink(Box::new(VecSink::new()));
    }
    let clients = g.clients.clone();
    let warmed = |sim: &Simulation| {
        clients
            .iter()
            .all(|&c| group::client::<P>(sim, c).warmed_up())
    };
    run_until(&mut g.sim, SETUP_SLICE, LIMIT, warmed);
    if let Some(i) = plan.corrupt {
        g.replicas[i].corrupt(&mut g.sim, seed);
    }
    g.sim.reset_stats();
    let setup = t_setup.elapsed();
    let counters_before: Vec<ReplicaCounters> =
        g.replicas.iter().map(|r| r.counters(&g.sim)).collect();
    let retx_before = client_retransmissions::<P>(&g);

    ledger::reset();
    let t_run = Instant::now();
    let done = |sim: &Simulation| clients.iter().all(|&c| group::client::<P>(sim, c).done());
    let in_sim = run_until(&mut g.sim, SLICE, LIMIT, done);
    let host = t_run.elapsed();
    let reading = ledger::snapshot();
    let (msgs, bytes) = (
        g.sim.stats().messages_delivered,
        g.sim.stats().bytes_delivered,
    );

    let (ops, mut failures) = check_clients(
        plan,
        g.clients.iter().map(|&c| group::client::<P>(&g.sim, c)),
    );
    let trace = traced.then(|| {
        let warmup = plan
            .clients
            .iter()
            .map(|c| c.warmup as u64)
            .max()
            .unwrap_or(0);
        Trace {
            ledger: reading,
            in_sim,
            counters: g
                .replicas
                .iter()
                .zip(&counters_before)
                .map(|(r, before)| r.counters(&g.sim).since(before))
                .collect(),
            client_retransmissions: client_retransmissions::<P>(&g) - retx_before,
            spans: build_spans(&g.sim.trace_snapshot())
                .into_iter()
                .filter(|s| s.ts > warmup && s.completed.is_some())
                .collect(),
        }
    });

    // Let every replica execute the whole history and finish any
    // recovery, then compare what they hold.
    let replicas = &g.replicas;
    let settled = |sim: &Simulation| {
        let progress: Vec<(u64, bool)> = replicas.iter().map(|r| r.progress(sim)).collect();
        progress
            .iter()
            .all(|&(exec, busy)| !busy && exec == progress[0].0)
    };
    run_until(&mut g.sim, SLICE, SETTLE_LIMIT, settled);
    let views: Vec<ReplicaView> = g.replicas.iter().map(|r| r.view(&g.sim)).collect();
    failures += group_failures(&views, plan.cfg.recovery_period.is_some());
    RunOutcome {
        setup,
        host,
        sim: SimOutcome {
            ops,
            msgs,
            bytes,
            views,
        },
        failures,
        trace,
    }
}

/// Checks that every replica ends with the same executed history, the same
/// abstract state and stable checkpoint, and no Byzantine mode left (the
/// replica given corrupt state ends repaired). With proactive recovery on,
/// every replica must have been through at least one recovery.
fn group_failures(views: &[ReplicaView], recovering: bool) -> u64 {
    let mut failures = 0;
    let first = &views[0];
    let agree = views.iter().all(|v| {
        v.last_exec == first.last_exec
            && v.state == first.state
            && v.stable_seq == first.stable_seq
            && v.stable_digest == first.stable_digest
    });
    if !agree {
        eprintln!("replicas disagree at the end of the run: {views:?}");
        failures += 1;
    }
    for (i, v) in views.iter().enumerate() {
        if v.byz.is_faulty() {
            eprintln!(
                "replica {i} still faulty ({:?}) at the end of the run",
                v.byz
            );
            failures += 1;
        }
        if recovering && v.recoveries == 0 {
            eprintln!("replica {i} never completed a proactive recovery");
            failures += 1;
        }
    }
    failures
}

/// Checks every client's results against the plan. Returns the `(due,
/// done)` instants of the measured operations and the number of operations
/// that failed their check or never completed.
fn check_clients<'a>(
    plan: &Plan,
    clients: impl Iterator<Item = &'a LoadClient>,
) -> (Vec<(u64, u64)>, u64) {
    let mut ops = Vec::new();
    let mut failures = 0;
    for (cp, client) in plan.clients.iter().zip(clients) {
        for (i, record) in client.records.iter().enumerate() {
            if !cp.expect[i].holds(&record.result) {
                failures += 1;
            }
            if i >= cp.warmup {
                ops.push((record.due_ns, record.done_ns));
            }
        }
        failures += (cp.ops.len() - client.records.len()) as u64;
    }
    (ops, failures)
}

/// Runs the unreplicated baseline of `plan`: the measured operations'
/// `(due, done)` instants and the number of failed operations.
pub fn run_direct(plan: &Plan, seed: u64) -> (Vec<(u64, u64)>, u64) {
    let (mut sim, clients) = group::build_direct(plan, seed);
    let done = |sim: &Simulation| {
        clients
            .iter()
            .all(|&c| group::client::<Plain>(sim, c).done())
    };
    run_until(&mut sim, SLICE, LIMIT, done);
    check_clients(
        plan,
        clients.iter().map(|&c| group::client::<Plain>(&sim, c)),
    )
}
