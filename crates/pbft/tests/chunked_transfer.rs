//! Tests for chunked state transfer: with `chunk_size > 0` a lagging
//! replica must converge (fetching chunk-digest lists, then each missing
//! chunk whole from one source), reuse local chunks that already match,
//! survive chunk-level network faults, and shrug off hostile chunk
//! replies without panicking.

use base_crypto::Digest;
use base_pbft::messages::{ChunkReplyMsg, ChunksReplyMsg, Message, MetaReplyMsg, ObjectReplyMsg};
use base_pbft::testing::{build_counter_group, op_add, CounterService, TestGroup};
use base_pbft::transfer::{checkpoint_digest, FetchResult, Fetcher, META_ROOT_LEVEL, REPLIES_INDEX};
use base_pbft::tree::{chunk_digests, chunked_leaf_digest, PartitionTree};
use base_pbft::{ClientActor, Config, Replica, Service};
use base_simnet::{NodeId, SimDuration, Simulation};
use std::collections::VecDeque;

fn small_config() -> Config {
    let mut cfg = Config::new(4);
    cfg.checkpoint_interval = 8;
    cfg.log_window = 32;
    cfg
}

fn chunked_config() -> Config {
    let mut cfg = small_config();
    cfg.chunk_size = 4; // 8-byte registers span two chunks.
    cfg
}

fn enqueue(sim: &mut Simulation, client: NodeId, op: Vec<u8>, ro: bool) {
    sim.actor_as_mut::<ClientActor>(client).unwrap().enqueue(op, ro);
}

fn completed(sim: &Simulation, client: NodeId) -> usize {
    sim.actor_as::<ClientActor>(client).unwrap().completed.len()
}

fn replica<'a>(sim: &'a Simulation, g: &TestGroup, i: usize) -> &'a Replica<CounterService> {
    sim.actor_as::<Replica<CounterService>>(g.replicas[i]).unwrap()
}

/// Outcome of one cold-recovery run (replica 3 down from genesis).
struct RunOutcome {
    values: Vec<u64>,
    root: Digest,
    state_transfers: u64,
    fetched_bytes: u64,
    chunk_queries: u64,
}

/// Runs the lagging-replica scenario (replica 3 crashed from the start,
/// revived after the group executes past several checkpoints) under `cfg`
/// and returns replica 3's converged state and transfer counters.
fn run_cold_recovery(cfg: Config, seed: u64) -> RunOutcome {
    let mut sim = Simulation::new(seed);
    let g = build_counter_group(&mut sim, cfg, 1, seed);
    let client = g.clients[0];

    sim.crash(g.replicas[3], SimDuration::from_secs(5));
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&sim, client), 30);

    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&sim, client), 50);

    let r3 = replica(&sim, &g, 3);
    let m = r3.metrics();
    RunOutcome {
        values: (0..base_pbft::testing::COUNTER_REGS as usize)
            .map(|r| r3.service().value(r))
            .collect(),
        root: r3.service().current_tree().root_digest(),
        state_transfers: r3.stats.state_transfers,
        fetched_bytes: m.histogram("transfer.bytes_fetched").map(|h| h.sum()).unwrap_or(0),
        chunk_queries: m.counter("transfer.chunk_queries"),
    }
}

/// Regression: chunked leaves used to be fetched as whole objects and
/// checked against the whole-object leaf digest, which never matches a
/// chunked fold — the replica restarted fetches forever and stayed at 0.
#[test]
fn chunked_recovery_converges() {
    let chunked = run_cold_recovery(chunked_config(), 10);
    assert!(chunked.state_transfers >= 1, "chunked run must complete a state transfer");
    assert_eq!(chunked.values[0], 50, "chunked recovery must converge");
    assert!(chunked.chunk_queries >= 1, "chunked mode must fetch chunk digests");

    // The concrete installed values agree with a legacy run even though
    // the leaf-digest scheme (and hence the root) differs.
    let legacy = run_cold_recovery(small_config(), 10);
    assert!(legacy.state_transfers >= 1, "legacy run must state-transfer");
    assert_eq!(legacy.chunk_queries, 0, "chunk_size = 0 never asks for chunk lists");
    assert_eq!(chunked.values, legacy.values);
    assert_ne!(chunked.root, legacy.root, "chunked leaves certify a different root");
}

#[test]
fn warm_lagging_replica_reuses_untouched_chunks() {
    // Replica 3 executes the first batch (register 0 = 30), crashes across
    // a checkpoint window, and revives with stale-but-mostly-right state:
    // the register's high 4 bytes (chunk 0) are zero both before and after,
    // so chunked transfer re-fetches only the low chunk and reuses the
    // local copy of the untouched one.
    let mut sim = Simulation::new(23);
    let g = build_counter_group(&mut sim, chunked_config(), 1, 23);
    let client = g.clients[0];

    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(completed(&sim, client), 30);
    assert_eq!(replica(&sim, &g, 3).service().value(0), 30);

    sim.crash(g.replicas[3], SimDuration::from_secs(5));
    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(completed(&sim, client), 50);

    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(completed(&sim, client), 70);

    let r3 = replica(&sim, &g, 3);
    assert_eq!(r3.service().value(0), 70, "replica 3 must converge");
    if r3.stats.state_transfers >= 1 {
        assert!(
            r3.metrics().counter("transfer.chunks_reused") >= 1,
            "the untouched high chunk must be reused from local state"
        );
    }
}

#[test]
fn chunked_recovery_survives_dropped_chunks() {
    // A lossy filter drops 30% of ChunkReply messages (wire tag 18): the
    // fetch window retransmits and recovery still completes.
    let mut sim = Simulation::new(31);
    let g = build_counter_group(&mut sim, chunked_config(), 1, 31);
    let client = g.clients[0];
    sim.set_filter(Box::new(base_simnet::faults::TaggedDropper { tag: 18, prob: 0.3 }));

    sim.crash(g.replicas[3], SimDuration::from_secs(5));
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(25));

    assert_eq!(completed(&sim, client), 50);
    let r3 = replica(&sim, &g, 3);
    assert!(r3.stats.state_transfers >= 1);
    assert_eq!(r3.service().value(0), 50, "recovery must survive dropped chunks");
}

#[test]
fn chunked_recovery_survives_corrupted_chunks() {
    // Half of all ChunkReply bodies are bit-flipped in flight: corrupt
    // chunks fail the chunk-digest check and are re-targeted to rotated
    // sources until a verified copy lands. State must still converge to
    // the correct values.
    let mut sim = Simulation::new(37);
    let g = build_counter_group(&mut sim, chunked_config(), 1, 37);
    let client = g.clients[0];
    sim.set_filter(Box::new(base_simnet::faults::TaggedFlipper { tag: 18, prob: 0.5 }));

    sim.crash(g.replicas[3], SimDuration::from_secs(5));
    for _ in 0..30 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(5));
    for _ in 0..20 {
        enqueue(&mut sim, client, op_add(0, 1), false);
    }
    sim.run_for(SimDuration::from_secs(40));

    assert_eq!(completed(&sim, client), 50);
    let r3 = replica(&sim, &g, 3);
    assert!(r3.stats.state_transfers >= 1);
    assert_eq!(r3.service().value(0), 50, "corrupt chunks must never poison installed state");
    assert!(
        r3.metrics().counter("transfer.corrupt_replies") >= 1
            || r3.metrics().counter("transfer.retransmissions") >= 1,
        "the flipper must have forced at least one rejected reply or retry"
    );
}

#[test]
fn chunked_transfer_is_deterministic() {
    let run = |seed: u64| {
        let out = run_cold_recovery(chunked_config(), seed);
        (out.values, out.root, out.fetched_bytes, out.chunk_queries)
    };
    assert_eq!(run(42), run(42));
}

// ---------------------------------------------------------------------
// Hostile chunk replies fed straight to the fetcher
// ---------------------------------------------------------------------

const CS: usize = 4;

/// A remote checkpoint with chunked leaves, answering fetches the way a
/// correct replica would.
struct ChunkedRemote {
    tree: PartitionTree,
    objects: Vec<Option<Vec<u8>>>,
    replies_blob: Vec<u8>,
}

impl ChunkedRemote {
    fn new(values: &[(u64, &[u8])]) -> Self {
        let mut tree = PartitionTree::new(16, 4);
        let mut objects = vec![None; 16];
        for (i, v) in values {
            tree.set_leaf(*i, chunked_leaf_digest(*i, v, CS));
            objects[*i as usize] = Some(v.to_vec());
        }
        Self { tree, objects, replies_blob: b"reply-cache-blob".to_vec() }
    }

    fn fetcher(&self) -> Fetcher {
        let target = checkpoint_digest(&self.tree.root_digest(), &Digest::of(&self.replies_blob));
        Fetcher::new(3, 4, 128, target).chunked(CS)
    }

    fn serve(&self, msg: &Message) -> Option<Message> {
        Some(match msg {
            Message::FetchMeta(m) => Message::MetaReply(MetaReplyMsg {
                seq: m.seq,
                level: m.level,
                index: m.index,
                digests: if m.level == META_ROOT_LEVEL {
                    vec![self.tree.root_digest(), Digest::of(&self.replies_blob)]
                } else {
                    self.tree.children_digests(m.level, m.index)?
                },
                replica: 0,
            }),
            Message::FetchObject(m) if m.index == REPLIES_INDEX => {
                Message::ObjectReply(ObjectReplyMsg {
                    seq: m.seq,
                    index: m.index,
                    data: self.replies_blob.clone(),
                    replica: 0,
                })
            }
            Message::FetchChunks(m) => {
                let v = self.objects[m.index as usize].as_ref()?;
                Message::ChunksReply(ChunksReplyMsg {
                    seq: m.seq,
                    index: m.index,
                    len: v.len() as u64,
                    digests: chunk_digests(m.index, v, CS),
                    replica: 0,
                })
            }
            Message::FetchChunk(m) => {
                let v = self.objects[m.index as usize].as_ref()?;
                Message::ChunkReply(ChunkReplyMsg {
                    seq: m.seq,
                    index: m.index,
                    chunk: m.chunk,
                    data: v.chunks(CS).nth(m.chunk as usize)?.to_vec(),
                    replica: 0,
                })
            }
            _ => return None,
        })
    }
}

fn deliver(
    f: &mut Fetcher,
    reply: &Message,
    local: &PartitionTree,
) -> (Vec<(u32, Message)>, Option<FetchResult>) {
    match reply {
        Message::MetaReply(m) => f.on_meta_reply(m, local),
        Message::ObjectReply(m) => f.on_object_reply(m, local),
        Message::ChunksReply(m) => f.on_chunks_reply(m, None),
        Message::ChunkReply(m) => f.on_chunk_reply(m),
        other => panic!("not a fetch reply: {}", other.kind()),
    }
}

/// Pumps `f` against `remote` from an empty local state. Every genuine
/// reply is preceded by the hostile replies `tamper` derives from it; none
/// of those may complete the fetch. Returns the result with its objects
/// sorted by index.
fn drive_tampered(
    f: &mut Fetcher,
    remote: &ChunkedRemote,
    mut tamper: impl FnMut(&Message) -> Vec<Message>,
) -> FetchResult {
    let local = PartitionTree::new(16, 4);
    let mut queue: VecDeque<(u32, Message)> = f.begin().into();
    let mut guard = 0;
    while let Some((_, msg)) = queue.pop_front() {
        guard += 1;
        assert!(guard < 10_000, "fetch did not converge");
        let Some(reply) = remote.serve(&msg) else { continue };
        for hostile in tamper(&reply) {
            let (more, done) = deliver(f, &hostile, &local);
            assert!(done.is_none(), "a hostile reply completed the fetch");
            queue.extend(more);
        }
        let (more, done) = deliver(f, &reply, &local);
        queue.extend(more);
        if let Some(mut result) = done {
            result.objects.sort_by_key(|(i, _)| *i);
            return result;
        }
    }
    panic!("fetch did not complete");
}

fn remote_values() -> ChunkedRemote {
    ChunkedRemote::new(&[(1, b"ten bytes!"), (6, b"abcd"), (9, b"")])
}

fn expected_objects() -> Vec<(u64, Option<Vec<u8>>)> {
    vec![(1, Some(b"ten bytes!".to_vec())), (6, Some(b"abcd".to_vec())), (9, Some(Vec::new()))]
}

#[test]
fn chunk_lists_with_the_wrong_digest_count_are_corrupt() {
    let remote = remote_values();
    let mut f = remote.fetcher();
    let result = drive_tampered(&mut f, &remote, |reply| {
        let Message::ChunksReply(m) = reply else { return Vec::new() };
        let mut long = m.clone();
        long.digests.push(Digest::of(b"extra"));
        let mut huge = m.clone();
        huge.len = u64::MAX;
        let mut hostile = vec![long, huge];
        if !m.digests.is_empty() {
            let mut short = m.clone();
            short.digests.pop();
            hostile.push(short);
        }
        hostile.into_iter().map(Message::ChunksReply).collect()
    });
    assert_eq!(result.objects, expected_objects());
    // Three bad lists for each of objects 1 and 6, two for the empty
    // object 9 (its list cannot be shortened). Replays that reach the
    // fetcher after the genuine list are no longer outstanding and ignored.
    assert_eq!(result.corrupt_replies, 3 + 3 + 2);
}

#[test]
fn chunk_replies_out_of_range_or_misshapen_are_rejected() {
    let remote = remote_values();
    let mut f = remote.fetcher();
    let result = drive_tampered(&mut f, &remote, |reply| {
        let Message::ChunkReply(m) = reply else { return Vec::new() };
        let mut past_end = m.clone();
        past_end.chunk = 3; // no object here has 4 chunks
        let mut max = m.clone();
        max.chunk = u32::MAX;
        let mut long = m.clone();
        long.data.push(0);
        let mut short = m.clone();
        short.data.pop();
        let mut flipped = m.clone();
        flipped.data[0] ^= 1;
        [past_end, max, long, short, flipped].into_iter().map(Message::ChunkReply).collect()
    });
    assert_eq!(result.objects, expected_objects());
    // Object 1 has three chunks, object 6 one, object 9 none. Out-of-range
    // chunks are not outstanding and are ignored; wrong lengths and flipped
    // bytes are counted corrupt, three per chunk.
    assert_eq!(result.corrupt_replies, 4 * 3);
}

#[test]
fn replies_for_objects_not_outstanding_are_ignored() {
    let remote = remote_values();
    let stray_list = ChunksReplyMsg {
        seq: 128,
        index: 12,
        len: 8,
        digests: chunk_digests(12, b"whatever", CS),
        replica: 2,
    };
    let stray_chunk = ChunkReplyMsg { seq: 128, index: 12, chunk: 0, data: b"what".to_vec(), replica: 2 };

    // Chunked fetcher, nothing outstanding for object 12.
    let mut f = remote.fetcher();
    f.begin();
    let (out, done) = f.on_chunks_reply(&stray_list, Some(b"whatever"));
    assert!(out.is_empty() && done.is_none());
    let (out, done) = f.on_chunk_reply(&stray_chunk);
    assert!(out.is_empty() && done.is_none());
    assert_eq!(f.corrupt_replies(), 0);

    // A whole-object fetcher never asks for chunks.
    let mut whole = Fetcher::new(3, 4, 128, Digest::of(b"target"));
    whole.begin();
    let (out, done) = whole.on_chunks_reply(&stray_list, None);
    assert!(out.is_empty() && done.is_none());
    let (out, done) = whole.on_chunk_reply(&stray_chunk);
    assert!(out.is_empty() && done.is_none());
    assert_eq!(whole.corrupt_replies(), 0);

    // The chunked fetch still completes with nothing but genuine replies.
    let result = drive_tampered(&mut remote.fetcher(), &remote, |_| Vec::new());
    assert_eq!(result.objects, expected_objects());
}
