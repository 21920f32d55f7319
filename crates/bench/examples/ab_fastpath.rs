//! A/B wall-clock harness for the checkpoint & state-transfer fast path.
//!
//! Deliberately restricted to APIs that exist on both sides of the fast-path
//! change — `BaseService` via the `Service` trait, `Fetcher::new`, and the
//! `PartitionTree` read surface — so the *same source file* compiles against
//! the pre-change tree (with the fast path `git stash`ed out) and against
//! this tree. Run it on both sides and diff the wall-clock numbers; the
//! deterministic fields must match exactly.
//!
//! Three sections, one per fast-path layer:
//!
//! * `checkpoint` — the bench lab's epoch loop (dense population flush, then
//!   sparse clustered dirty epochs, a checkpoint each). Exercises batched
//!   `set_leaves` vs per-leaf root-path rehashing.
//! * `ckpt_object` — repeated `checkpoint_object` lookups against the oldest
//!   of many retained checkpoints. Exercises the per-object record index vs
//!   the linear scan over retained checkpoint records.
//! * `transfer` — the lockstep round model of a hierarchical fetch of that
//!   old checkpoint, served through `checkpoint_object`. Exercises the
//!   pipelined fetch window (rounds collapse) plus indexed serving.
//!
//! Usage: `cargo run --release -q -p base-bench --example ab_fastpath`.
//! Prints one JSON object; wall fields are best-of-3.

use base::{BaseService, ModifyLog, Wrapper};
use base_crypto::Digest;
use base_pbft::messages::{Message, MetaReplyMsg, ObjectReplyMsg};
use base_pbft::transfer::{
    checkpoint_digest, Fetcher, META_ROOT_LEVEL, REPLIES_INDEX,
};
use base_pbft::tree::{leaf_digest, PartitionTree};
use base_pbft::{ExecEnv, Service};
use rand::SeedableRng;
use std::time::Instant;

const OBJECTS: u64 = 4096;
const VALUE_BYTES: usize = 512;
const EPOCHS: u64 = 128;
const DIRTY_PER_EPOCH: u64 = 64;

/// Retained checkpoints for the lookup/transfer sections.
const RETAINED_EPOCHS: u64 = 32;
/// Full passes over the object space in the `ckpt_object` section.
const LOOKUP_PASSES: u64 = 16;
/// Objects live at the fetched checkpoint / stale on the fetching replica.
const LIVE: u64 = 256;
const STALE: u64 = 192;

const BEST_OF: usize = 3;

struct ArrayWrapper {
    vals: Vec<Option<Vec<u8>>>,
}

impl Wrapper for ArrayWrapper {
    fn execute(
        &mut self,
        op: &[u8],
        _client: u32,
        _nondet: &[u8],
        _read_only: bool,
        mods: &mut ModifyLog,
        _env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        // op = 8-byte BE index || value bytes.
        let idx = u64::from_be_bytes(op[..8].try_into().expect("short op")) as usize;
        mods.modify(idx as u64, || self.vals[idx].clone());
        self.vals[idx] = Some(op[8..].to_vec());
        Vec::new()
    }

    fn get_obj(&self, index: u64) -> Option<Vec<u8>> {
        self.vals[index as usize].clone()
    }

    fn put_objs(&mut self, objs: &[(u64, Option<Vec<u8>>)], _env: &mut ExecEnv<'_>) {
        for (i, v) in objs {
            self.vals[*i as usize] = v.clone();
        }
    }

    fn n_objects(&self) -> u64 {
        self.vals.len() as u64
    }

    fn propose_nondet(&mut self, _env: &mut ExecEnv<'_>) -> Vec<u8> {
        Vec::new()
    }

    fn check_nondet(&self, nondet: &[u8], _env: &mut ExecEnv<'_>) -> bool {
        nondet.is_empty()
    }

    fn reset(&mut self, _env: &mut ExecEnv<'_>) {
        self.vals = vec![None; self.vals.len()];
    }
}

fn write(
    svc: &mut BaseService<ArrayWrapper>,
    rng: &mut rand::rngs::StdRng,
    idx: u64,
    fill: u8,
) {
    let mut op = idx.to_be_bytes().to_vec();
    op.extend(std::iter::repeat_n(fill, VALUE_BYTES));
    let mut env = ExecEnv::new(1, rng);
    svc.execute(&op, 1, &[], false, &mut env);
}

/// The bench lab's checkpoint epoch loop. Returns (checkpoints, wall_ms).
fn run_checkpoint_epochs() -> (u64, u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut svc = BaseService::new(ArrayWrapper {
        vals: vec![None; OBJECTS as usize],
    });

    let t0 = Instant::now();
    for i in 0..OBJECTS {
        write(&mut svc, &mut rng, i, 0x11);
    }
    let mut env = ExecEnv::new(1, &mut rng);
    svc.take_checkpoint(0, &mut env);

    for e in 1..=EPOCHS {
        let start = (e * 613) % (OBJECTS - DIRTY_PER_EPOCH);
        for i in 0..DIRTY_PER_EPOCH {
            write(&mut svc, &mut rng, start + i, e as u8);
        }
        let mut env = ExecEnv::new(1, &mut rng);
        svc.take_checkpoint(e * 128, &mut env);
        if e % 8 == 0 {
            svc.discard_checkpoints_below(e.saturating_sub(4) * 128);
        }
    }
    (svc.stats.checkpoints, t0.elapsed().as_millis() as u64)
}

/// A service with `RETAINED_EPOCHS` checkpoints all retained, plus a
/// snapshot of its partition tree at checkpoint 0.
fn build_retained() -> (BaseService<ArrayWrapper>, PartitionTree) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let mut svc = BaseService::new(ArrayWrapper {
        vals: vec![None; OBJECTS as usize],
    });
    for i in 0..LIVE {
        write(&mut svc, &mut rng, i, 0x41);
    }
    let mut env = ExecEnv::new(1, &mut rng);
    svc.take_checkpoint(0, &mut env);
    let tree0 = svc.current_tree().clone();

    for e in 1..=RETAINED_EPOCHS {
        let start = (e * 613) % (OBJECTS - DIRTY_PER_EPOCH);
        for i in 0..DIRTY_PER_EPOCH {
            write(&mut svc, &mut rng, start + i, e as u8);
        }
        let mut env = ExecEnv::new(1, &mut rng);
        svc.take_checkpoint(e * 128, &mut env);
    }
    (svc, tree0)
}

/// Checkpoint-object lookup storm: every object of the oldest retained
/// checkpoint, `LOOKUP_PASSES` times. Returns (lookups, found, wall_ms).
fn run_lookup_storm(svc: &mut BaseService<ArrayWrapper>) -> (u64, u64, u64) {
    let t0 = Instant::now();
    let mut found = 0u64;
    for _ in 0..LOOKUP_PASSES {
        for i in 0..OBJECTS {
            if svc.checkpoint_object(0, i).is_some() {
                found += 1;
            }
        }
    }
    (LOOKUP_PASSES * OBJECTS, found, t0.elapsed().as_millis() as u64)
}

/// Lockstep fetch of checkpoint 0, objects served via `checkpoint_object`.
/// Returns (rounds, objects_fetched, fetched_bytes, wall_ms).
fn run_transfer(
    svc: &mut BaseService<ArrayWrapper>,
    tree0: &PartitionTree,
) -> (u64, u64, u64, u64) {
    let replies_blob = b"ab-reply-cache".to_vec();
    let target = checkpoint_digest(&tree0.root_digest(), &Digest::of(&replies_blob));

    // The fetching replica has checkpoint 0 except for STALE stale leaves.
    let mut local = tree0.clone();
    for i in 0..STALE {
        local.set_leaf(i, leaf_digest(i, b"stale"));
    }

    let t0 = Instant::now();
    let mut f = Fetcher::new(3, 4, 0, target);
    let mut wire = f.begin();
    let mut rounds = 0u64;
    let mut result = None;
    while !wire.is_empty() {
        rounds += 1;
        assert!(rounds < 100_000, "transfer did not converge");
        let mut next = Vec::new();
        for (_, msg) in wire.drain(..) {
            let reply = match &msg {
                Message::FetchMeta(m) if m.level == META_ROOT_LEVEL => {
                    Message::MetaReply(MetaReplyMsg {
                        seq: m.seq,
                        level: m.level,
                        index: m.index,
                        digests: vec![tree0.root_digest(), Digest::of(&replies_blob)],
                        replica: 0,
                    })
                }
                Message::FetchMeta(m) => Message::MetaReply(MetaReplyMsg {
                    seq: m.seq,
                    level: m.level,
                    index: m.index,
                    digests: tree0
                        .children_digests(m.level, m.index)
                        .expect("meta query in range"),
                    replica: 0,
                }),
                Message::FetchObject(m) if m.index == REPLIES_INDEX => {
                    Message::ObjectReply(ObjectReplyMsg {
                        seq: m.seq,
                        index: m.index,
                        data: replies_blob.clone(),
                        replica: 0,
                    })
                }
                Message::FetchObject(m) => Message::ObjectReply(ObjectReplyMsg {
                    seq: m.seq,
                    index: m.index,
                    data: svc
                        .checkpoint_object(0, m.index)
                        .expect("fetched objects live at checkpoint 0"),
                    replica: 0,
                }),
                _ => unreachable!("fetcher only issues fetch queries"),
            };
            let (more, done) = match reply {
                Message::MetaReply(m) => f.on_meta_reply(&m, &local),
                Message::ObjectReply(m) => f.on_object_reply(&m, &local),
                _ => unreachable!(),
            };
            next.extend(more);
            if let Some(r) = done {
                result = Some(r);
            }
        }
        wire = next;
    }
    let result = result.expect("transfer completes");
    (
        rounds,
        result.objects.len() as u64,
        result.fetched_bytes,
        t0.elapsed().as_millis() as u64,
    )
}

fn main() {
    let mut ckpt = (0, u64::MAX);
    let mut storm = (0, 0, u64::MAX);
    let mut xfer = (0, 0, 0, u64::MAX);
    for _ in 0..BEST_OF {
        let c = run_checkpoint_epochs();
        assert!(ckpt.1 == u64::MAX || ckpt.0 == c.0, "nondeterministic lab");
        ckpt = (c.0, ckpt.1.min(c.1));

        let (mut svc, tree0) = build_retained();
        let s = run_lookup_storm(&mut svc);
        assert!(storm.2 == u64::MAX || (storm.0, storm.1) == (s.0, s.1));
        storm = (s.0, s.1, storm.2.min(s.2));

        let t = run_transfer(&mut svc, &tree0);
        assert!(xfer.3 == u64::MAX || (xfer.0, xfer.1, xfer.2) == (t.0, t.1, t.2));
        xfer = (t.0, t.1, t.2, xfer.3.min(t.3));
    }

    println!(
        "{{\"checkpoint\":{{\"epochs\":{},\"checkpoints\":{},\"wall_ms\":{}}},\
         \"ckpt_object\":{{\"retained\":{},\"lookups\":{},\"found\":{},\"wall_ms\":{}}},\
         \"transfer\":{{\"rounds\":{},\"objects_fetched\":{},\"fetched_bytes\":{},\"wall_ms\":{}}}}}",
        EPOCHS, ckpt.0, ckpt.1,
        RETAINED_EPOCHS + 1, storm.0, storm.1, storm.2,
        xfer.0, xfer.1, xfer.2, xfer.3,
    );
}
