//! Chaos harness for the sharded multi-group deployment.
//!
//! Reuses the generic campaign engine of [`base_simnet::chaos`] against a
//! multi-shard counter deployment built with [`build_sharded_group`]: every
//! shard is a full PBFT replica group wrapped in a [`ShardLockService`],
//! and the clients are [`ShardedClient`] routers driving both single-shard
//! operations and cross-shard transactions.
//!
//! On top of the replica-level fault vocabulary shared with
//! [`base_pbft::chaos::CounterChaosHarness`] (Byzantine mode flips, latent
//! state corruption, proactive recovery), the harness adds a sharding-
//! specific fault: [`APP_XBUSY`] arms injected cross-shard lock refusals on
//! the shard owning the targeted node, forcing the routers down the
//! abort/release/back-off/retry path of the ordered commit protocol. The
//! injection is carried by the agreed `xchaos` operation, so it is
//! deterministic, consistent across the shard's replicas, and — like every
//! other fault here — flows through [`generate_schedule`] and shrinks
//! through `minimize`/ddmin.
//!
//! ## What the audits can and cannot compare
//!
//! Client-observed results are always auditable: every accepted reply is
//! backed by a reply quorum, so the per-register subset-chain check and
//! the torn-commit check on merged cross-shard replies are sound under any
//! schedule. Certificate-backed state (stable checkpoint digests) is also
//! always comparable: a certificate needs `2f+1` matching digests, which a
//! minority divergence cannot forge.
//!
//! *Uncertified per-replica state is only compared on fault-free runs.*
//! Lock tables are conformance rep: a replica that installs a checkpoint
//! clears its locks, after which it may execute an operation its peers
//! refuse with `xbusy` (or vice versa). The divergence is bounded by `f`,
//! masked by reply quorums and repaired by the next state transfer — but
//! it means a mid-run snapshot of an individual replica's uncertified
//! digests or registers is not evidence of a protocol fork. On runs with
//! an empty fault schedule no such divergence can arise, and the audit
//! tightens to exact pairwise agreement: retained checkpoint digests,
//! final register values (the union of every delta ever added) and empty
//! lock tables on every replica of every shard.

use std::collections::HashMap;

use base_pbft::chaos::{APP_BYZ, APP_CORRUPT_STATE, APP_RECOVER};
use base_pbft::testing::{op_add, op_get, CounterService, COUNTER_REGS};
use base_pbft::{ByzMode, Config, Replica};
use base_simnet::chaos::{
    AppFaultSpec, ChaosHarness, HealSpec, LivenessBounds, ScheduleGenConfig,
};
use base_simnet::{NodeId, SimDuration, Simulation};

use crate::shard::{
    build_sharded_group, counter_footprint, ShardLockService, ShardMap, ShardedClient,
    ShardedGroup,
};

/// App-fault tag: arm `1 + arg` injected cross-shard lock refusals on the
/// shard owning the targeted node. The harness submits the agreed
/// `xchaos` operation through a router (picked from the node id), so the
/// refusals land at one sequence number on every replica of the shard and
/// the subsequent abort/retry rounds are deterministic.
pub const APP_XBUSY: u32 = 10;

type LockedCounter = ShardLockService<CounterService>;
type ShardReplica = Replica<LockedCounter>;

/// What a completed router invocation is expected to be, for the audit.
enum XKind {
    /// Single-shard write of a distinct delta bit to `reg`.
    Add { reg: u64, delta: u64 },
    /// Single-shard read of `reg`.
    Get { reg: u64 },
    /// Cross-shard transaction: one `(reg, delta)` write per shard, in
    /// ascending shard order (the order of the merged reply).
    Cross { parts: Vec<(u64, u64)> },
    /// An injected `xchaos` arming operation (replies `xok`).
    Chaos,
}

/// Chaos harness for a `shards × n` sharded counter deployment driven by
/// [`ShardedClient`] routers.
pub struct ShardedChaosHarness {
    /// Replicas per shard.
    pub n: usize,
    /// Number of independent replica groups.
    pub shards: u32,
    /// Number of router clients (each talks to every shard).
    pub routers: usize,
    /// Single-shard operations per router, spread round-robin over the
    /// shards' designated registers (every third one a read).
    pub singles_per_router: usize,
    /// Cross-shard transactions per router (one write per shard each).
    pub cross_per_router: usize,
    /// Enables the deliberate client bug (accept the first full reply
    /// without a quorum) on every router core, so tests can demonstrate
    /// the auditor catching it through the sharded path.
    pub inject_router_bug: bool,
    /// Gap between a router's pump ticks, stretching the workload across
    /// the fault schedule.
    pub pace: SimDuration,
    /// Extra settle time after the last event.
    pub settle: SimDuration,
    // Per-run state, reset by `build`.
    group: Option<ShardedGroup>,
    /// `(router index, job id)` → expected operation kind.
    expected: HashMap<(usize, u64), XKind>,
    /// Jobs issued per router (router `i`'s completions must reach this).
    jobs: Vec<u64>,
    /// Per-register union of every delta bit any write added.
    reg_deltas: HashMap<u64, u64>,
}

/// Allocates the next distinct delta bit for `reg`.
fn fresh_bit(
    next_bit: &mut HashMap<u64, u32>,
    reg_deltas: &mut HashMap<u64, u64>,
    reg: u64,
) -> u64 {
    let bit = next_bit.entry(reg).or_insert(0);
    assert!(*bit < 64, "workload too large for distinct delta bits on reg {reg}");
    let delta = 1u64 << *bit;
    *bit += 1;
    *reg_deltas.entry(reg).or_insert(0) |= delta;
    delta
}

impl ShardedChaosHarness {
    /// Creates a harness with `shards` groups of `n` replicas and a
    /// default workload of two routers mixing single-shard operations
    /// with cross-shard transactions.
    pub fn new(n: usize, shards: u32) -> Self {
        Self {
            n,
            shards,
            routers: 2,
            singles_per_router: 6,
            cross_per_router: 2,
            inject_router_bug: false,
            pace: SimDuration::from_millis(250),
            settle: SimDuration::from_secs(30),
            group: None,
            expected: HashMap::new(),
            jobs: Vec::new(),
            reg_deltas: HashMap::new(),
        }
    }

    /// The per-shard group configuration: frequent checkpoints so
    /// campaigns exercise garbage collection and state transfer, and a
    /// short reboot so triggered recoveries finish within the run.
    pub fn config(&self) -> Config {
        let mut cfg = Config::new(self.n);
        cfg.checkpoint_interval = 4;
        cfg.log_window = 32;
        cfg.reboot_time = SimDuration::from_millis(100);
        cfg
    }

    /// A schedule-generation config matching this harness: faults target
    /// every shard's replicas, at most `f` nodes are impaired at once
    /// (conservative — the budget is global, so no single shard ever
    /// exceeds its own `f`), and the app-fault vocabulary adds injected
    /// cross-shard lock refusals to the Byzantine/corruption faults.
    pub fn gen_config(&self, events: usize, horizon: SimDuration) -> ScheduleGenConfig {
        let cfg = self.config();
        ScheduleGenConfig {
            nodes: (0..self.shards as usize * self.n).map(NodeId).collect(),
            max_impaired: cfg.f(),
            horizon,
            events,
            app_faults: vec![
                AppFaultSpec {
                    tag: APP_BYZ,
                    arg_max: 7,
                    impairs: true,
                    heal: Some(HealSpec { tag: APP_BYZ, after: SimDuration::from_secs(2) }),
                },
                AppFaultSpec {
                    tag: APP_CORRUPT_STATE,
                    arg_max: 1 << 32,
                    impairs: true,
                    heal: Some(HealSpec { tag: APP_RECOVER, after: SimDuration::from_secs(2) }),
                },
                AppFaultSpec {
                    // Injected refusals only delay the routers' commit
                    // rounds; the shard keeps serving, so the fault does
                    // not count against the impairment budget.
                    tag: APP_XBUSY,
                    arg_max: 3,
                    impairs: false,
                    heal: None,
                },
            ],
            net_faults: true,
        }
    }

    /// The designated register of each shard (the first index it owns);
    /// the workload concentrates on these so locks actually contend.
    fn designated_regs(map: &ShardMap) -> Vec<u64> {
        (0..map.shards()).map(|s| map.range_of(s).start).collect()
    }

    fn replica<'a>(&self, sim: &'a Simulation, node: NodeId) -> &'a ShardReplica {
        sim.actor_as::<ShardReplica>(node).expect("replica actor")
    }

    /// Replicas of shard `s` that are honest *now*.
    fn honest_in_shard(&self, sim: &Simulation, s: usize) -> Vec<NodeId> {
        let group = self.group.as_ref().expect("run built");
        group.replicas[s]
            .iter()
            .copied()
            .filter(|&r| self.replica(sim, r).byzantine() == ByzMode::Honest)
            .collect()
    }

    fn audit_liveness(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.group.as_ref().expect("run built");
        for (i, &c) in group.clients.iter().enumerate() {
            let router = sim.actor_as::<ShardedClient>(c).expect("router actor");
            if router.completed.len() as u64 != self.jobs[i] {
                return Err(format!(
                    "liveness: router {i} completed {}/{} invocations",
                    router.completed.len(),
                    self.jobs[i]
                ));
            }
        }
        Ok(())
    }

    fn parse_value(&self, who: &str, reg: u64, result: &[u8]) -> Result<u64, String> {
        let value: u64 = std::str::from_utf8(result)
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| {
                format!(
                    "linearizability: {who} accepted a corrupt reply {:?} for reg {reg}",
                    String::from_utf8_lossy(result)
                )
            })?;
        let known = self.reg_deltas.get(&reg).copied().unwrap_or(0);
        if value & !known != 0 {
            return Err(format!(
                "linearizability: {who} result {value:#x} for reg {reg} contains bits \
                 no write ever added"
            ));
        }
        Ok(value)
    }

    /// Per-register linearizability: every write returns the register
    /// value after it executed and contributes a distinct bit, so the
    /// results on each register must form a strict subset chain; reads
    /// must observe a state on that chain. Cross-shard replies are torn
    /// apart into their per-shard pieces first — a merged reply missing a
    /// piece, or a piece missing its own delta, is a torn commit.
    fn audit_linearizability(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.group.as_ref().expect("run built");
        let mut adds: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut gets: Vec<(String, u64, u64)> = Vec::new();

        for (i, &c) in group.clients.iter().enumerate() {
            let router = sim.actor_as::<ShardedClient>(c).expect("router actor");
            for (job, result) in &router.completed {
                let who = format!("router {i} job {job}");
                let kind = self
                    .expected
                    .get(&(i, *job))
                    .ok_or_else(|| format!("{who} completed but was never issued"))?;
                match kind {
                    XKind::Chaos => {
                        if result.as_slice() != b"xok" {
                            return Err(format!(
                                "{who}: xchaos arming returned {:?}",
                                String::from_utf8_lossy(result)
                            ));
                        }
                    }
                    XKind::Add { reg, delta } => {
                        let value = self.parse_value(&who, *reg, result)?;
                        if value & delta == 0 {
                            return Err(format!(
                                "linearizability: {who} add result {value:#x} is missing \
                                 its own delta {delta:#x}"
                            ));
                        }
                        adds.entry(*reg).or_default().push(value);
                    }
                    XKind::Get { reg } => {
                        let value = self.parse_value(&who, *reg, result)?;
                        gets.push((who, *reg, value));
                    }
                    XKind::Cross { parts } => {
                        let pieces: Vec<&[u8]> = result.split(|&b| b == b';').collect();
                        if pieces.len() != parts.len() {
                            return Err(format!(
                                "torn commit: {who} merged reply has {} pieces, \
                                 transaction touched {} shards",
                                pieces.len(),
                                parts.len()
                            ));
                        }
                        for ((reg, delta), piece) in parts.iter().zip(pieces) {
                            let value = self.parse_value(&who, *reg, piece)?;
                            if value & delta == 0 {
                                return Err(format!(
                                    "torn commit: {who} committed on reg {reg} but the \
                                     reply {value:#x} is missing its delta {delta:#x}"
                                ));
                            }
                            adds.entry(*reg).or_default().push(value);
                        }
                    }
                }
            }
        }

        for (reg, results) in &mut adds {
            results.sort_by_key(|v| (v.count_ones(), *v));
            for pair in results.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if a & !b != 0 || a == b {
                    return Err(format!(
                        "linearizability: reg {reg} write results {a:#x} and {b:#x} are \
                         not a subset chain — no sequential execution produces both"
                    ));
                }
            }
        }
        for (who, reg, value) in gets {
            if value != 0 && !adds.get(&reg).is_some_and(|chain| chain.contains(&value)) {
                return Err(format!(
                    "linearizability: {who} read {value:#x} from reg {reg}, a state no \
                     sequential execution passes through"
                ));
            }
        }
        Ok(())
    }

    /// Per-shard convergence: after the settle window each shard's honest
    /// replicas agree on one view, and certificate-backed stable digests
    /// at equal stable sequence numbers are identical (a certificate
    /// cannot be assembled for a minority digest).
    fn audit_per_shard_agreement(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.group.as_ref().expect("run built");
        for s in 0..group.replicas.len() {
            let honest = self.honest_in_shard(sim, s);
            let mut views: Vec<(NodeId, u64)> =
                honest.iter().map(|&r| (r, self.replica(sim, r).view())).collect();
            views.sort_by_key(|&(_, v)| v);
            if let (Some(&(lo_node, lo)), Some(&(hi_node, hi))) = (views.first(), views.last())
            {
                if lo != hi {
                    return Err(format!(
                        "view agreement: shard {s} replicas settled in different views \
                         (replica {} in view {lo}, replica {} in view {hi})",
                        lo_node.0, hi_node.0
                    ));
                }
            }
            for (i, &a) in honest.iter().enumerate() {
                let ra = self.replica(sim, a);
                for &b in honest.iter().skip(i + 1) {
                    let rb = self.replica(sim, b);
                    if ra.stable_seq() == rb.stable_seq() && ra.stable_seq() > 0 {
                        if let (Some(da), Some(db)) = (ra.stable_digest(), rb.stable_digest())
                        {
                            if da != db {
                                return Err(format!(
                                    "checkpoint fork: shard {s} stable digests diverge \
                                     at seq {} between replicas {} and {}",
                                    ra.stable_seq(),
                                    a.0,
                                    b.0
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Fault-free runs only (see the module docs): exact pairwise retained
    /// checkpoint agreement, all-deltas final register values, and no
    /// leaked locks anywhere.
    fn audit_quiescent_exact(&self, sim: &Simulation) -> Result<(), String> {
        let group = self.group.as_ref().expect("run built");
        let regs = Self::designated_regs(&group.map);
        for (s, nodes) in group.replicas.iter().enumerate() {
            for (i, &a) in nodes.iter().enumerate() {
                let da: HashMap<u64, _> =
                    self.replica(sim, a).checkpoint_digests().into_iter().collect();
                for &b in nodes.iter().skip(i + 1) {
                    for (seq, db) in self.replica(sim, b).checkpoint_digests() {
                        if da.get(&seq).is_some_and(|daq| *daq != db) {
                            return Err(format!(
                                "checkpoint fork: shard {s} replicas {} and {} disagree \
                                 at seq {seq} on a fault-free run",
                                a.0, b.0
                            ));
                        }
                    }
                }
            }
            let reg = regs[s];
            let want = self.reg_deltas.get(&reg).copied().unwrap_or(0);
            for &r in nodes {
                let rep = self.replica(sim, r);
                let got = rep.service().inner().value(reg as usize);
                if got != want {
                    return Err(format!(
                        "state: shard {s} replica {} reg {reg} ended at {got:#x}, \
                         expected the union of all deltas {want:#x}",
                        r.0
                    ));
                }
                let held = rep.service().held_locks();
                if held != 0 {
                    return Err(format!(
                        "lock leak: shard {s} replica {} still holds {held} lock(s) \
                         after a fault-free run",
                        r.0
                    ));
                }
            }
        }
        Ok(())
    }
}

impl ChaosHarness for ShardedChaosHarness {
    fn build(&mut self, seed: u64) -> Simulation {
        self.expected.clear();
        self.jobs = vec![0; self.routers];
        self.reg_deltas.clear();
        let mut next_bit: HashMap<u64, u32> = HashMap::new();

        let mut sim = Simulation::new(seed);
        let map = ShardMap::new(COUNTER_REGS, self.shards);
        let group = build_sharded_group(
            &mut sim,
            self.config(),
            map,
            self.routers,
            seed,
            counter_footprint,
            |_, _| ShardLockService::new(CounterService::default(), counter_footprint),
        );
        for nodes in &group.replicas {
            for &r in nodes {
                // Warm reboots: recovery repairs state instead of
                // rebuilding it, which is what surfaces latent corruption.
                sim.actor_as_mut::<ShardReplica>(r)
                    .expect("replica actor")
                    .set_recovery_clean(false);
            }
        }

        let regs = Self::designated_regs(&group.map);
        for (i, &c) in group.clients.iter().enumerate() {
            let router = sim.actor_as_mut::<ShardedClient>(c).expect("router actor");
            for s in 0..self.shards {
                router.core_mut(s).bug_accept_first_reply = self.inject_router_bug;
            }
            router.set_pace(self.pace);
            let mut job = 0u64;
            let mut singles = 0usize;
            let mut crosses = 0usize;
            // Interleave: an early cross-shard transaction meets early
            // scheduled faults; the rest are spread through the singles.
            for slot in 0..self.singles_per_router + self.cross_per_router {
                job += 1;
                let cross_turn = crosses < self.cross_per_router
                    && (slot % 3 == 1 || singles >= self.singles_per_router);
                if cross_turn {
                    crosses += 1;
                    let mut ops = Vec::with_capacity(regs.len());
                    let mut parts = Vec::with_capacity(regs.len());
                    for &reg in &regs {
                        let delta = fresh_bit(&mut next_bit, &mut self.reg_deltas, reg);
                        parts.push((reg, delta));
                        ops.push(op_add(reg, delta));
                    }
                    router.invoke_cross(ops);
                    self.expected.insert((i, job), XKind::Cross { parts });
                } else {
                    singles += 1;
                    let reg = regs[singles % regs.len()];
                    if singles.is_multiple_of(3) {
                        router.invoke(op_get(reg), true);
                        self.expected.insert((i, job), XKind::Get { reg });
                    } else {
                        let delta = fresh_bit(&mut next_bit, &mut self.reg_deltas, reg);
                        router.invoke(op_add(reg, delta), false);
                        self.expected.insert((i, job), XKind::Add { reg, delta });
                    }
                }
            }
            self.jobs[i] = job;
        }
        self.group = Some(group);
        sim
    }

    fn apply_app(
        &mut self,
        sim: &mut Simulation,
        node: NodeId,
        tag: u32,
        arg: u64,
        trace: &mut Vec<String>,
    ) {
        if tag == APP_XBUSY {
            let group = self.group.as_ref().expect("run built");
            let shard = node.0 / self.n;
            if shard >= group.replicas.len() {
                trace.push(format!("xbusy fault at node {} ignored (not a replica)", node.0));
                return;
            }
            let reg = group.map.range_of(shard as u32).start;
            let r = node.0 % self.routers;
            let count = 1 + arg;
            let router_node = group.clients[r];
            let router = sim.actor_as_mut::<ShardedClient>(router_node).expect("router actor");
            router.invoke(format!("xchaos {reg} {count}").into_bytes(), false);
            self.jobs[r] += 1;
            self.expected.insert((r, self.jobs[r]), XKind::Chaos);
            trace.push(format!(
                "shard {shard} arming {count} xbusy refusal(s) via router {r}"
            ));
            return;
        }
        let Some(replica) = sim.actor_as_mut::<ShardReplica>(node) else {
            trace.push(format!("app fault at node {} ignored (not a replica)", node.0));
            return;
        };
        match tag {
            APP_BYZ => {
                let mode = ByzMode::from_code(arg);
                replica.set_byzantine(mode);
                trace.push(format!("node {} byzantine mode -> {mode:?}", node.0));
            }
            APP_CORRUPT_STATE => {
                replica.corrupt_service_state(arg);
                trace.push(format!("node {} concrete state corrupted (seed {arg})", node.0));
            }
            APP_RECOVER => {
                replica.trigger_recovery();
                trace.push(format!("node {} proactive recovery triggered", node.0));
            }
            _ => trace.push(format!("unknown app fault tag {tag} at node {}", node.0)),
        }
    }

    fn settle(&self) -> SimDuration {
        self.settle
    }

    fn liveness_bounds(&self) -> LivenessBounds {
        // Mirrors the single-group harness: well inside the settle window
        // but generous enough for a capped view-change chase plus a state
        // transfer — cross-shard retries add at most a bounded backoff.
        LivenessBounds {
            heal_to_progress: Some(SimDuration::from_secs(25)),
            view_convergence: Some(SimDuration::from_secs(25)),
            recovery_duration: Some(SimDuration::from_secs(25)),
        }
    }

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        // `trace` holds one line per applied event at this point, so an
        // empty trace means the schedule was empty and the exact
        // (uncertified-state) audits are sound.
        let fault_free = trace.is_empty();
        self.audit_liveness(sim)?;
        self.audit_linearizability(sim)?;
        self.audit_per_shard_agreement(sim)?;
        if fault_free {
            self.audit_quiescent_exact(sim)?;
        }
        let group = self.group.as_ref().expect("run built");
        let (mut aborts, mut busy_retries) = (0u64, 0u64);
        for &c in &group.clients {
            let router = sim.actor_as::<ShardedClient>(c).expect("router actor");
            aborts += router.cross_aborts;
            busy_retries += router.single_busy_retries;
        }
        let (mut commits, mut refused) = (0u64, 0u64);
        for nodes in &group.replicas {
            for &r in nodes {
                let svc = self.replica(sim, r).service();
                commits += svc.commits;
                refused += svc.prepares_refused;
            }
        }
        trace.push(format!(
            "sharded audit ok: cross_aborts={aborts} single_busy_retries={busy_retries} \
             replica_commits={commits} replica_refusals={refused}"
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use base_simnet::chaos::{generate_schedule, minimize, run_one, FaultSchedule, NetFault};
    use base_simnet::SimTime;

    /// Pulls a `name=value` counter out of the audit summary line.
    fn summary_counter(trace: &[String], name: &str) -> u64 {
        let line = trace
            .iter()
            .find(|l| l.starts_with("sharded audit ok:"))
            .expect("audit summary line");
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .expect("summary counter")
    }

    #[test]
    fn fault_free_sharded_run_passes_audit() {
        let mut h = ShardedChaosHarness::new(4, 2);
        let (outcome, verdict) = run_one(&mut h, 7, &FaultSchedule::new());
        assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
        // The workload really exercised the commit protocol: every router
        // ran cross-shard transactions, committed on every shard's quorum.
        assert!(summary_counter(&outcome.trace, "replica_commits") > 0);
    }

    #[test]
    fn injected_refusals_drive_abort_and_retry_to_completion() {
        let mut h = ShardedChaosHarness::new(4, 2);
        let mut schedule = FaultSchedule::new();
        // Arm refusals on both shards while the early transactions'
        // lock rounds are in flight; the routers must abort, release in
        // reverse order, back off and retry to completion.
        schedule
            .app(SimTime::from_millis(300), NodeId(0), APP_XBUSY, 2)
            .app(SimTime::from_millis(500), NodeId(4), APP_XBUSY, 2)
            .app(SimTime::from_millis(2_000), NodeId(1), APP_XBUSY, 1);
        let (outcome, verdict) = run_one(&mut h, 21, &schedule);
        assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
        assert!(
            outcome.trace.iter().any(|l| l.contains("arming")),
            "trace records the injection:\n{}",
            outcome.trace.join("\n")
        );
        assert!(
            summary_counter(&outcome.trace, "replica_refusals") > 0,
            "refusals reached a shard's replicas:\n{}",
            outcome.trace.join("\n")
        );
        assert!(
            summary_counter(&outcome.trace, "cross_aborts") > 0,
            "a router rolled back and retried:\n{}",
            outcome.trace.join("\n")
        );
    }

    #[test]
    fn storm_on_one_shard_leaves_both_shards_live() {
        let mut h = ShardedChaosHarness::new(4, 2);
        let mut schedule = FaultSchedule::new();
        // Shard 0 takes a partition, a crash and a Byzantine window in
        // sequence (each within its own f budget); shard 1 is untouched.
        // Every router must still finish all work on both shards —
        // including the cross-shard transactions that need shard 0 back.
        schedule
            .net(
                SimTime::from_millis(500),
                NetFault::Partition { nodes: vec![NodeId(0)] },
                SimDuration::from_millis(1_500),
            )
            .crash(SimTime::from_millis(2_500), NodeId(1), SimDuration::from_millis(1_200))
            .app(SimTime::from_millis(4_200), NodeId(2), APP_BYZ, ByzMode::CorruptReplies.code())
            .app(SimTime::from_millis(5_500), NodeId(2), APP_BYZ, 0);
        let (outcome, verdict) = run_one(&mut h, 5, &schedule);
        assert_eq!(verdict, Ok(()), "trace:\n{}", outcome.trace.join("\n"));
    }

    #[test]
    fn generated_campaign_with_sharded_vocabulary_finds_no_violations() {
        let mut h = ShardedChaosHarness::new(4, 2);
        for seed in 0..3u64 {
            let schedule = generate_schedule(
                &h.gen_config(6, SimDuration::from_secs(8)),
                0xBA5E_0000 + seed,
            );
            let (outcome, verdict) = run_one(&mut h, seed, &schedule);
            assert_eq!(
                verdict,
                Ok(()),
                "seed {seed} schedule:\n{}\ntrace:\n{}",
                schedule.describe(),
                outcome.trace.join("\n")
            );
        }
    }

    #[test]
    fn ddmin_shrinks_sharded_failure_to_the_byzantine_trigger() {
        let mut h = ShardedChaosHarness::new(4, 2);
        h.inject_router_bug = true;
        let mut schedule = FaultSchedule::new();
        // Noise the minimizer should discard…
        schedule
            .app(SimTime::from_millis(300), NodeId(0), APP_XBUSY, 1)
            .app(SimTime::from_millis(700), NodeId(5), APP_XBUSY, 2)
            .crash(SimTime::from_millis(1_500), NodeId(3), SimDuration::from_millis(800));
        // …and the actual trigger: one corrupt replier feeds the
        // quorum-skipping router a fabricated reply.
        schedule.app(
            SimTime::from_millis(10),
            NodeId(1),
            APP_BYZ,
            ByzMode::CorruptReplies.code(),
        );
        let (outcome, verdict) = run_one(&mut h, 3, &schedule);
        assert!(verdict.is_err(), "expected failure; trace:\n{}", outcome.trace.join("\n"));

        let minimal = minimize(&mut h, 3, &schedule);
        assert!(
            minimal.len() < schedule.len(),
            "minimizer kept everything:\n{}",
            minimal.describe()
        );
        assert!(
            minimal
                .events
                .iter()
                .any(|e| matches!(
                    e.event,
                    base_simnet::chaos::ChaosEvent::App { tag: APP_BYZ, .. }
                )),
            "the Byzantine trigger must survive minimization:\n{}",
            minimal.describe()
        );
    }
}
