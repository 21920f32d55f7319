//! Chaos-campaign harness and auditor for the replicated OODB.
//!
//! The OODB is the paper's sharpest demonstration of abstraction: every
//! replica runs the *same* non-deterministic implementation ([`ObjStore`]
//! randomizes addresses and garbage-collects at load-dependent moments), so
//! the concrete heaps diverge immediately while the abstract state must
//! stay identical. The auditor checks exactly that invariant under
//! composed crashes, partitions, Byzantine flips and latent corruption:
//!
//! 1. **Liveness** — every client finishes its workload once faults heal.
//! 2. **Exact results** for the mutator client: it is the only writer, so
//!    each of its replies (object handles, put/ref acknowledgements,
//!    traversal counts) is known in advance.
//! 3. **Plausible results** for the prober client: its read-only probes
//!    race the mutator, so each reply must be one of the states a
//!    sequential interleaving passes through.
//! 4. **Abstract-state agreement** — clean replicas that reached the final
//!    stable checkpoint hold byte-identical abstract objects, despite
//!    their divergent concrete stores.

use crate::store::ObjStore;
use crate::wrapper::{err, Oid, OodbOp, OodbReply, OodbWrapper};
use base::{BaseClient, BaseReplica, BaseService, ByzMode, Config, Wrapper as _};
use base_pbft::chaos::{APP_BYZ, APP_CORRUPT_STATE, APP_RECOVER};
use base_simnet::chaos::{AppFaultSpec, ChaosHarness, HealSpec, ScheduleGenConfig};
use base_simnet::{NodeId, SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

type Replica = BaseReplica<OodbWrapper>;

/// Objects the mutator client allocates (and chains with references).
const OBJS: u32 = 6;
/// Traversal depth bound, comfortably above the chain length.
const DEPTH: u32 = 16;
/// Read-only probes issued by the prober client.
const PROBES: usize = 12;

fn oid(index: u32) -> Oid {
    // Fresh allocations on an empty store take indices 0,1,2,... with
    // generation 1 (abstract allocation is deterministic even though the
    // concrete addresses are random).
    Oid { index, gen: 1 }
}

fn field_data(index: u32) -> Vec<u8> {
    format!("obj{index}").into_bytes()
}

/// What the auditor expects of one completed operation.
enum Expect {
    /// Byte-exact reply (mutator client).
    Exact(OodbReply),
    /// `Get` probe on object `index`: stale, still-empty, or written.
    ProbeGet(u32),
    /// `Traverse` probe from the chain root: stale or a prefix count.
    ProbeTraverse,
}

/// A campaign harness replicating the OODB behind the BASE abstraction.
pub struct OodbChaosHarness {
    /// Number of replicas.
    pub n: usize,
    /// Gap between a client's submissions (stretches the workload across
    /// the fault schedule).
    pub pace: SimDuration,
    /// Extra settle time after the last scheduled event.
    pub settle: SimDuration,
    /// Consensus pipeline depth ([`Config::pipeline_depth`]).
    pub pipeline_depth: u64,
    /// Execution worker count ([`Config::exec_workers`]).
    pub exec_workers: usize,
    // Per-run state, reset by `build`.
    client_nodes: Vec<NodeId>,
    replica_nodes: Vec<NodeId>,
    expected: Vec<Vec<(u64, Expect)>>,
    tainted: HashSet<NodeId>,
}

impl OodbChaosHarness {
    /// Creates a harness with `n` replicas, a mutator client and a prober
    /// client.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            pace: SimDuration::from_millis(250),
            settle: SimDuration::from_secs(30),
            pipeline_depth: 16,
            exec_workers: 1,
            client_nodes: Vec::new(),
            replica_nodes: Vec::new(),
            expected: Vec::new(),
            tainted: HashSet::new(),
        }
    }

    /// The group configuration: frequent checkpoints so campaigns exercise
    /// garbage collection and state transfer, short reboots so recoveries
    /// finish within the run.
    pub fn config(&self) -> Config {
        let mut cfg = Config::new(self.n);
        cfg.checkpoint_interval = 4;
        cfg.log_window = 32;
        cfg.reboot_time = SimDuration::from_millis(100);
        cfg.pipeline_depth = self.pipeline_depth;
        cfg.exec_workers = self.exec_workers;
        cfg
    }

    /// Schedule-generation config: replica-targeted faults, at most `f`
    /// impaired at once, Byzantine flips and latent corruption both healed.
    pub fn gen_config(&self, events: usize, horizon: SimDuration) -> ScheduleGenConfig {
        ScheduleGenConfig {
            nodes: (0..self.n).map(NodeId).collect(),
            max_impaired: self.config().f(),
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
            ],
            net_faults: true,
        }
    }

    fn clean_replicas<'a>(&self, sim: &'a Simulation) -> Vec<(NodeId, &'a Replica)> {
        self.replica_nodes
            .iter()
            .filter(|r| !self.tainted.contains(r))
            .filter_map(|&r| sim.actor_as::<Replica>(r).map(|a| (r, a)))
            .filter(|(_, a)| a.byzantine() == ByzMode::Honest)
            .collect()
    }

    fn check_reply(
        &self,
        client: usize,
        ts: u64,
        expect: &Expect,
        result: &[u8],
    ) -> Result<(), String> {
        let reply = OodbReply::from_bytes(result)
            .ok_or_else(|| format!("client {client} ts={ts} reply does not parse"))?;
        match expect {
            Expect::Exact(want) => {
                if &reply != want {
                    return Err(format!(
                        "client {client} ts={ts} got {reply:?}, want {want:?}"
                    ));
                }
            }
            Expect::ProbeGet(index) => {
                let ok = match &reply {
                    // The probe may run before the mutator allocated the
                    // object, after allocation but before the field write,
                    // or after the write — nothing else.
                    OodbReply::Err(code) => *code == err::STALE,
                    OodbReply::Data(d) => d.is_empty() || *d == field_data(*index),
                    _ => false,
                };
                if !ok {
                    return Err(format!(
                        "client {client} ts={ts} probe get({index}) returned {reply:?}, \
                         a state no sequential execution passes through"
                    ));
                }
            }
            Expect::ProbeTraverse => {
                let ok = match &reply {
                    OodbReply::Err(code) => *code == err::STALE,
                    // The chain grows one link at a time, so any prefix
                    // count is linearizable.
                    OodbReply::Count(c) => (1..=u64::from(OBJS)).contains(c),
                    _ => false,
                };
                if !ok {
                    return Err(format!(
                        "client {client} ts={ts} probe traverse returned {reply:?}, \
                         a state no sequential execution passes through"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl ChaosHarness for OodbChaosHarness {
    fn build(&mut self, seed: u64) -> Simulation {
        self.expected.clear();
        self.tainted.clear();

        let cfg = self.config();
        let clients = 2usize;
        let mut sim = Simulation::new(seed);
        let dir = base_crypto::KeyDirectory::generate(self.n + clients, seed);
        self.replica_nodes = (0..self.n)
            .map(|i| {
                let keys = base_crypto::NodeKeys::new(dir.clone(), i);
                // Per-replica store RNGs differ on purpose: the concrete
                // heaps (addresses, GC moments) must diverge while the
                // abstract state stays identical.
                let mut rng = StdRng::seed_from_u64(seed ^ (0xb0de ^ i as u64).rotate_left(17));
                let service = BaseService::new(OodbWrapper::new(ObjStore::new(&mut rng)));
                let node = sim.add_node(Box::new(Replica::new(cfg.clone(), keys, service)));
                sim.actor_as_mut::<Replica>(node).expect("replica").set_recovery_clean(false);
                node
            })
            .collect();
        self.client_nodes = (0..clients)
            .map(|i| {
                let keys = base_crypto::NodeKeys::new(dir.clone(), self.n + i);
                sim.add_node(Box::new(BaseClient::new(cfg.clone(), keys)))
            })
            .collect();

        // Client 0, the mutator: allocate a chain of objects, write each
        // one's first field, link them, then read its own work back. It is
        // the only writer, so every reply is exact.
        let mut mutator = Vec::new();
        {
            let client = sim.actor_as_mut::<BaseClient>(self.client_nodes[0]).expect("client");
            client.set_pace(self.pace);
            let mut ts = 0u64;
            let mut push = |client: &mut BaseClient, op: OodbOp, want: OodbReply| {
                ts += 1;
                let ro = op.is_read_only();
                client.invoke(op.to_bytes(), ro);
                mutator.push((ts, Expect::Exact(want)));
            };
            for j in 0..OBJS {
                push(client, OodbOp::New, OodbReply::Handle(oid(j)));
            }
            for j in 0..OBJS {
                push(
                    client,
                    OodbOp::Put { oid: oid(j), field: 0, data: field_data(j) },
                    OodbReply::Ok,
                );
            }
            for j in 0..OBJS - 1 {
                push(
                    client,
                    OodbOp::SetRef { from: oid(j), slot: 0, to: Some(oid(j + 1)) },
                    OodbReply::Ok,
                );
            }
            push(
                client,
                OodbOp::Traverse { root: oid(0), depth: DEPTH },
                OodbReply::Count(u64::from(OBJS)),
            );
            push(
                client,
                OodbOp::Get { oid: oid(3), field: 0 },
                OodbReply::Data(field_data(3)),
            );
        }

        // Client 1, the prober: read-only gets and traversals racing the
        // mutator; every reply must be a state some interleaving visits.
        let mut prober = Vec::new();
        {
            let client = sim.actor_as_mut::<BaseClient>(self.client_nodes[1]).expect("client");
            client.set_pace(self.pace);
            for p in 0..PROBES {
                let ts = (p + 1) as u64;
                if p % 2 == 0 {
                    let index = (p as u32 / 2) % OBJS;
                    client.invoke(OodbOp::Get { oid: oid(index), field: 0 }.to_bytes(), true);
                    prober.push((ts, Expect::ProbeGet(index)));
                } else {
                    client
                        .invoke(OodbOp::Traverse { root: oid(0), depth: DEPTH }.to_bytes(), true);
                    prober.push((ts, Expect::ProbeTraverse));
                }
            }
        }
        self.expected = vec![mutator, prober];
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
        let Some(replica) = sim.actor_as_mut::<Replica>(node) else {
            trace.push(format!("app fault at node {} ignored (not a replica)", node.0));
            return;
        };
        match tag {
            APP_BYZ => {
                let mode = ByzMode::from_code(arg);
                replica.set_byzantine(mode);
                if mode.is_faulty() {
                    self.tainted.insert(node);
                }
                trace.push(format!("node {} byzantine mode -> {mode:?}", node.0));
            }
            APP_CORRUPT_STATE => {
                replica.corrupt_service_state(arg);
                self.tainted.insert(node);
                trace.push(format!("node {} concrete heap corrupted (seed {arg})", node.0));
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

    fn audit(&mut self, sim: &mut Simulation, trace: &mut Vec<String>) -> Result<(), String> {
        // Liveness and reply correctness.
        for (i, &c) in self.client_nodes.iter().enumerate() {
            let client = sim.actor_as::<BaseClient>(c).expect("client");
            let want = &self.expected[i];
            if client.completed.len() != want.len() {
                return Err(format!(
                    "liveness: client {i} completed {}/{} ops",
                    client.completed.len(),
                    want.len()
                ));
            }
            for ((ts, result), (want_ts, expect)) in client.completed.iter().zip(want) {
                if ts != want_ts {
                    return Err(format!(
                        "client {i} completed ts={ts} out of order (expected ts={want_ts})"
                    ));
                }
                self.check_reply(i, *ts, expect, result)?;
            }
        }

        // Abstract-state agreement among clean replicas that reached the
        // final stable checkpoint: identical abstract objects, whatever
        // their concrete heaps look like.
        let clean: Vec<NodeId> =
            self.clean_replicas(sim).into_iter().map(|(id, _)| id).collect();
        if clean.is_empty() {
            return Err("no clean replicas left to audit".into());
        }
        let max_stable = clean
            .iter()
            .filter_map(|&r| sim.actor_as::<Replica>(r).map(|a| a.stable_seq()))
            .max()
            .unwrap_or(0);
        let mut snapshots = Vec::new();
        for &r in &clean {
            let replica = sim.actor_as_mut::<Replica>(r).expect("replica");
            if replica.stable_seq() != max_stable {
                continue;
            }
            let wrapper = replica.service_mut().wrapper_mut();
            let allocated = wrapper.allocated();
            let objs: Vec<Option<Vec<u8>>> =
                (0..u64::from(OBJS)).map(|i| wrapper.get_obj(i)).collect();
            snapshots.push((r, allocated, objs));
        }
        let Some((first, allocated, reference)) = snapshots.first() else {
            return Err("no clean replica reached the final stable checkpoint".into());
        };
        if *allocated != u64::from(OBJS) {
            return Err(format!(
                "replica {} holds {allocated} abstract objects, want {OBJS}",
                first.0
            ));
        }
        for (r, alloc, objs) in &snapshots[1..] {
            if alloc != allocated || objs != reference {
                return Err(format!(
                    "abstract-state divergence between replicas {} and {} \
                     (concrete heaps may differ; abstract objects must not)",
                    first.0, r.0
                ));
            }
        }
        trace.push(format!(
            "audit ok: {} converged / {} clean replicas, {allocated} abstract objects agree",
            snapshots.len(),
            clean.len()
        ));
        Ok(())
    }
}
