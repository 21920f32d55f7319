//! Builds a workload's replica group and clients for one probe, and reads
//! their state back once the run ends.

use crate::client::{DirectServer, Link, LoadClient};
use crate::ledger::Slot;
use crate::probe::{Plain, Probe};
use crate::workloads::{Plan, Service as Svc};
use base::demo::{KvWrapper, TinyKv};
use base::{BaseService, Wrapper};
use base_bench::setup::{era_costs, CAPACITY};
use base_crypto::{Digest, KeyDirectory, NodeKeys};
use base_nfs::{BtreeFs, FlatFs, InodeFs, LogFs, NfsServer, NfsWrapper};
use base_pbft::{ByzMode, ClientCore, Config, Replica};
use base_simnet::{NodeId, SimDuration, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulated CPU cost of one KV operation (the E9 calibration).
const KV_OP_COST: SimDuration = SimDuration::from_micros(100);

type Rep<P, W> = Replica<<P as Probe>::Svc<BaseService<<P as Probe>::Wrap<W>>>>;

/// What the benchmark reads back from one replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaView {
    pub last_exec: u64,
    pub stable_seq: u64,
    pub stable_digest: Option<Digest>,
    /// Digest over every abstract object, recomputed by the abstraction
    /// function from the concrete state (not from cached leaf digests).
    pub state: Digest,
    pub byz: ByzMode,
    pub recoveries: u64,
}

/// Protocol and abstraction-layer counters of one replica.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaCounters {
    pub executed_requests: u64,
    pub executed_batches: u64,
    pub new_views: u64,
    pub recoveries: u64,
    pub fetched_objects: u64,
    pub fetched_bytes: u64,
    pub transfer_retransmissions: u64,
    pub recovery_ns: u64,
    pub recovery_count: u64,
    pub checkpoints: u64,
    pub objects_digested: u64,
    pub node_hashes: u64,
}

impl ReplicaCounters {
    /// The counts accumulated since `before` was read.
    pub fn since(&self, before: &ReplicaCounters) -> ReplicaCounters {
        ReplicaCounters {
            executed_requests: self.executed_requests - before.executed_requests,
            executed_batches: self.executed_batches - before.executed_batches,
            new_views: self.new_views - before.new_views,
            recoveries: self.recoveries - before.recoveries,
            fetched_objects: self.fetched_objects - before.fetched_objects,
            fetched_bytes: self.fetched_bytes - before.fetched_bytes,
            transfer_retransmissions: self.transfer_retransmissions
                - before.transfer_retransmissions,
            recovery_ns: self.recovery_ns - before.recovery_ns,
            recovery_count: self.recovery_count - before.recovery_count,
            checkpoints: self.checkpoints - before.checkpoints,
            objects_digested: self.objects_digested - before.objects_digested,
            node_hashes: self.node_hashes - before.node_hashes,
        }
    }
}

/// A replica node plus the monomorphized functions that read its type.
pub struct ReplicaHandle {
    pub node: NodeId,
    progress: fn(&Simulation, NodeId) -> (u64, bool),
    view: fn(&Simulation, NodeId) -> ReplicaView,
    counters: fn(&Simulation, NodeId) -> ReplicaCounters,
    corrupt: fn(&mut Simulation, NodeId, u64),
}

impl ReplicaHandle {
    /// Highest executed sequence number, and whether the replica is
    /// still recovering or fetching state.
    pub fn progress(&self, sim: &Simulation) -> (u64, bool) {
        (self.progress)(sim, self.node)
    }
    pub fn view(&self, sim: &Simulation) -> ReplicaView {
        (self.view)(sim, self.node)
    }
    pub fn counters(&self, sim: &Simulation) -> ReplicaCounters {
        (self.counters)(sim, self.node)
    }
    pub fn corrupt(&self, sim: &mut Simulation, seed: u64) {
        (self.corrupt)(sim, self.node, seed)
    }
}

fn replica<P: Probe, W: Wrapper>(sim: &Simulation, node: NodeId) -> &Rep<P, W> {
    P::act_inner(
        sim.actor_as::<P::Act<Rep<P, W>>>(node)
            .expect("replica node"),
    )
}

fn progress<P: Probe, W: Wrapper>(sim: &Simulation, node: NodeId) -> (u64, bool) {
    let r = replica::<P, W>(sim, node);
    (r.last_exec(), r.recovering() || r.fetching())
}

fn view<P: Probe, W: Wrapper>(sim: &Simulation, node: NodeId) -> ReplicaView {
    let r = replica::<P, W>(sim, node);
    let w = P::svc_inner(r.service()).wrapper();
    let mut objects = Vec::new();
    for i in 0..w.n_objects() {
        if let Some(value) = w.get_obj(i) {
            objects.extend_from_slice(&i.to_be_bytes());
            objects.extend_from_slice(Digest::of(&value).as_bytes());
        }
    }
    ReplicaView {
        last_exec: r.last_exec(),
        stable_seq: r.stable_seq(),
        stable_digest: r.stable_digest(),
        state: Digest::of(&objects),
        byz: r.byzantine(),
        recoveries: r.stats.recoveries,
    }
}

fn counters<P: Probe, W: Wrapper>(sim: &Simulation, node: NodeId) -> ReplicaCounters {
    let r = replica::<P, W>(sim, node);
    let base = &P::svc_inner(r.service()).stats;
    let recovery = r.metrics().histogram("replica.recovery_ns");
    ReplicaCounters {
        executed_requests: r.stats.executed_requests,
        executed_batches: r.stats.executed_batches,
        new_views: r.stats.new_views_installed,
        recoveries: r.stats.recoveries,
        fetched_objects: r.stats.state_transfer_objects,
        fetched_bytes: r.stats.state_transfer_bytes,
        transfer_retransmissions: r.metrics().counter("transfer.retransmissions"),
        recovery_ns: recovery.map_or(0, |h| h.sum()),
        recovery_count: recovery.map_or(0, |h| h.count()),
        checkpoints: base.checkpoints,
        objects_digested: base.objects_digested,
        node_hashes: base.node_hashes,
    }
}

fn corrupt<P: Probe, W: Wrapper>(sim: &mut Simulation, node: NodeId, seed: u64) {
    let actor = sim
        .actor_as_mut::<P::Act<Rep<P, W>>>(node)
        .expect("replica node");
    P::act_inner_mut(actor).corrupt_service_state(seed);
}

fn add_replica<P: Probe, W: Wrapper>(
    sim: &mut Simulation,
    cfg: &Config,
    keys: NodeKeys,
    wrapper: W,
) -> ReplicaHandle {
    let service = P::svc(BaseService::new(P::wrap(wrapper)));
    let replica = Replica::new(cfg.clone(), keys.clone(), service);
    let node = sim.add_node(Box::new(P::act(replica, Slot::ReplicaActor, keys)));
    ReplicaHandle {
        node,
        progress: progress::<P, W>,
        view: view::<P, W>,
        counters: counters::<P, W>,
        corrupt: corrupt::<P, W>,
    }
}

/// The conformance wrapper over `server`, with the NFS testbeds' era costs.
fn nfs_wrapper<P: Probe, S: NfsServer>(server: S, slot: Slot) -> NfsWrapper<P::Nfs<S>> {
    let mut w = NfsWrapper::with_capacity(P::nfs(server, slot), CAPACITY);
    (w.op_cost_base, w.op_cost_per_byte_ns) = era_costs();
    w
}

fn kv_wrapper() -> KvWrapper {
    let mut w = KvWrapper::new(TinyKv::default());
    w.op_cost = KV_OP_COST;
    w
}

/// A built replicated run.
pub struct Group {
    pub sim: Simulation,
    pub replicas: Vec<ReplicaHandle>,
    pub clients: Vec<NodeId>,
}

/// Builds the replica group and the clients of `plan` for probe `P`.
pub fn build<P: Probe>(plan: &Plan, seed: u64) -> Group {
    let mut sim = Simulation::new(seed);
    let n = plan.cfg.n;
    let dir = KeyDirectory::generate(n + plan.clients.len(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut replicas = Vec::with_capacity(n);
    for i in 0..n {
        let keys = NodeKeys::new(dir.clone(), i);
        let cfg = &plan.cfg;
        let fsid = i as u64;
        let handle = match (plan.service, i % 4) {
            (Svc::Kv, _) => add_replica::<P, _>(&mut sim, cfg, keys, kv_wrapper()),
            (Svc::NfsHetero, 0) => {
                let fs = InodeFs::new(0x10 + fsid, &mut rng);
                add_replica::<P, _>(&mut sim, cfg, keys, nfs_wrapper::<P, _>(fs, Slot::NfsInode))
            }
            (Svc::NfsHetero, 1) => {
                let fs = FlatFs::new(0x40 + fsid, &mut rng);
                add_replica::<P, _>(&mut sim, cfg, keys, nfs_wrapper::<P, _>(fs, Slot::NfsFlat))
            }
            (Svc::NfsHetero, 2) => {
                let fs = LogFs::new(0x20 + fsid, &mut rng);
                add_replica::<P, _>(&mut sim, cfg, keys, nfs_wrapper::<P, _>(fs, Slot::NfsLog))
            }
            (Svc::NfsHetero, _) => {
                let fs = BtreeFs::new(0x30 + fsid, &mut rng);
                add_replica::<P, _>(&mut sim, cfg, keys, nfs_wrapper::<P, _>(fs, Slot::NfsBtree))
            }
        };
        // Replica clocks disagree, as the wrappers' timestamp agreement
        // must mask.
        sim.config_mut()
            .set_clock_skew(handle.node, SimDuration::from_millis(13 * i as u64));
        replicas.push(handle);
    }
    let clients = plan
        .clients
        .iter()
        .enumerate()
        .map(|(c, cp)| {
            let keys = NodeKeys::new(dir.clone(), n + c);
            let core = ClientCore::new(plan.cfg.clone(), keys.clone());
            let client = LoadClient::new(
                Link::Replicated(Box::new(core)),
                cp.ops.clone(),
                cp.warmup,
                cp.arrival,
            );
            sim.add_node(Box::new(P::act(client, Slot::ClientActor, keys)))
        })
        .collect();
    Group {
        sim,
        replicas,
        clients,
    }
}

/// The load client at `node` of a group built for probe `P`.
pub fn client<P: Probe>(sim: &Simulation, node: NodeId) -> &LoadClient {
    P::act_inner(
        sim.actor_as::<P::Act<LoadClient>>(node)
            .expect("client node"),
    )
}

/// Builds the unreplicated baseline of `plan`: the same clients and
/// schedules against one server running the first replica's service.
pub fn build_direct(plan: &Plan, seed: u64) -> (Simulation, Vec<NodeId>) {
    let mut sim = Simulation::new(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let server = match plan.service {
        Svc::Kv => sim.add_node(Box::new(DirectServer::new(kv_wrapper()))),
        Svc::NfsHetero => {
            let fs = InodeFs::new(0x99, &mut rng);
            sim.add_node(Box::new(DirectServer::new(nfs_wrapper::<Plain, _>(
                fs,
                Slot::NfsInode,
            ))))
        }
    };
    let clients = plan
        .clients
        .iter()
        .map(|cp| {
            let client =
                LoadClient::new(Link::Direct(server), cp.ops.clone(), cp.warmup, cp.arrival);
            sim.add_node(Box::new(client))
        })
        .collect();
    (sim, clients)
}
