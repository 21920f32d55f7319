//! The two ways the benchmark assembles a replica stack.
//!
//! [`Plain`] builds exactly the types the repository ships: the untraced
//! run, which gives every end-to-end metric, contains no wrapper of this
//! benchmark. [`Traced`] puts a timing wrapper at each public layer
//! boundary — `simnet::Actor`, `base_pbft::Service`, `base::Wrapper` and
//! `base_nfs::NfsServer` — and replays every delivered payload through the
//! codec and crypto functions. Each wrapper forwards every trait method,
//! the defaulted ones included, so the traced stack behaves exactly like
//! the plain one; the benchmark checks that on every traced run.

use crate::ledger::{self, Slot};
use crate::replay;
use base::{Footprint, ModifyLog, Wrapper};
use base_crypto::{Digest, NodeKeys};
use base_nfs::server::{SrvResult, SrvSetAttr};
use base_nfs::{NfsServer, ServerFh, SrvAttr};
use base_pbft::{ExecEnv, PartitionTree, Service};
use base_simnet::{Actor, Context, NodeId};
use rand::rngs::StdRng;

/// Maps each layer type to the type the simulation runs.
pub trait Probe: 'static {
    type Nfs<S: NfsServer>: NfsServer;
    type Wrap<W: Wrapper>: Wrapper;
    type Svc<S: Service>: Service;
    type Act<A: Actor>: Actor;

    fn nfs<S: NfsServer>(server: S, slot: Slot) -> Self::Nfs<S>;
    fn wrap<W: Wrapper>(wrapper: W) -> Self::Wrap<W>;
    fn svc<S: Service>(service: S) -> Self::Svc<S>;
    /// `keys` are the node's own keys, used to replay MAC checks.
    fn act<A: Actor>(actor: A, slot: Slot, keys: NodeKeys) -> Self::Act<A>;
    fn svc_inner<S: Service>(service: &Self::Svc<S>) -> &S;
    fn act_inner<A: Actor>(actor: &Self::Act<A>) -> &A;
    fn act_inner_mut<A: Actor>(actor: &mut Self::Act<A>) -> &mut A;
}

/// The shipped types, unwrapped.
pub struct Plain;

impl Probe for Plain {
    type Nfs<S: NfsServer> = S;
    type Wrap<W: Wrapper> = W;
    type Svc<S: Service> = S;
    type Act<A: Actor> = A;

    fn nfs<S: NfsServer>(server: S, _slot: Slot) -> S {
        server
    }
    fn wrap<W: Wrapper>(wrapper: W) -> W {
        wrapper
    }
    fn svc<S: Service>(service: S) -> S {
        service
    }
    fn act<A: Actor>(actor: A, _slot: Slot, _keys: NodeKeys) -> A {
        actor
    }
    fn svc_inner<S: Service>(service: &S) -> &S {
        service
    }
    fn act_inner<A: Actor>(actor: &A) -> &A {
        actor
    }
    fn act_inner_mut<A: Actor>(actor: &mut A) -> &mut A {
        actor
    }
}

/// Every layer behind a timing wrapper.
pub struct Traced;

impl Probe for Traced {
    type Nfs<S: NfsServer> = TimedNfs<S>;
    type Wrap<W: Wrapper> = TimedWrapper<W>;
    type Svc<S: Service> = TimedService<S>;
    type Act<A: Actor> = TimedActor<A>;

    fn nfs<S: NfsServer>(server: S, slot: Slot) -> TimedNfs<S> {
        TimedNfs {
            inner: server,
            slot,
        }
    }
    fn wrap<W: Wrapper>(wrapper: W) -> TimedWrapper<W> {
        TimedWrapper { inner: wrapper }
    }
    fn svc<S: Service>(service: S) -> TimedService<S> {
        TimedService { inner: service }
    }
    fn act<A: Actor>(actor: A, slot: Slot, keys: NodeKeys) -> TimedActor<A> {
        TimedActor {
            inner: actor,
            slot,
            keys,
        }
    }
    fn svc_inner<S: Service>(service: &TimedService<S>) -> &S {
        &service.inner
    }
    fn act_inner<A: Actor>(actor: &TimedActor<A>) -> &A {
        &actor.inner
    }
    fn act_inner_mut<A: Actor>(actor: &mut TimedActor<A>) -> &mut A {
        &mut actor.inner
    }
}

/// Times an actor's callbacks, then replays each delivered payload.
pub struct TimedActor<A> {
    inner: A,
    slot: Slot,
    keys: NodeKeys,
}

impl<A: Actor> Actor for TimedActor<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let inner = &mut self.inner;
        ledger::time(self.slot, || inner.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context<'_>) {
        let inner = &mut self.inner;
        ledger::time(self.slot, || inner.on_message(from, payload, ctx));
        replay::replay(&self.keys, from, payload);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let inner = &mut self.inner;
        ledger::time(self.slot, || inner.on_timer(token, ctx));
    }
}

/// Times every `Service` upcall.
pub struct TimedService<S> {
    inner: S,
}

impl<S: Service> Service for TimedService<S> {
    fn execute(
        &mut self,
        op: &[u8],
        client: u32,
        nondet: &[u8],
        read_only: bool,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        ledger::time(Slot::SvcExecute, || {
            self.inner.execute(op, client, nondet, read_only, env)
        })
    }

    fn execute_batch(
        &mut self,
        ops: &[(&[u8], u32)],
        nondet: &[u8],
        env: &mut ExecEnv<'_>,
    ) -> Vec<Vec<u8>> {
        ledger::time(Slot::SvcExecute, || {
            self.inner.execute_batch(ops, nondet, env)
        })
    }

    fn set_exec_workers(&mut self, workers: usize) {
        ledger::time(Slot::SvcOther, || self.inner.set_exec_workers(workers))
    }

    fn set_chunk_size(&mut self, chunk_size: usize) {
        ledger::time(Slot::SvcOther, || self.inner.set_chunk_size(chunk_size))
    }

    fn transfer_object(&mut self, index: u64) -> Option<Vec<u8>> {
        ledger::time(Slot::SvcServe, || self.inner.transfer_object(index))
    }

    fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
        ledger::time(Slot::SvcOther, || self.inner.propose_nondet(env))
    }

    fn check_nondet(&self, nondet: &[u8], env: &mut ExecEnv<'_>) -> bool {
        ledger::time(Slot::SvcOther, || self.inner.check_nondet(nondet, env))
    }

    fn take_checkpoint(&mut self, seq: u64, env: &mut ExecEnv<'_>) -> Digest {
        ledger::time(Slot::SvcCheckpoint, || self.inner.take_checkpoint(seq, env))
    }

    fn discard_checkpoints_below(&mut self, seq: u64) {
        ledger::time(Slot::SvcOther, || self.inner.discard_checkpoints_below(seq))
    }

    fn checkpoint_meta(&self, seq: u64, level: u32, index: u64) -> Option<Vec<Digest>> {
        ledger::time(Slot::SvcServe, || {
            self.inner.checkpoint_meta(seq, level, index)
        })
    }

    fn checkpoint_object(&mut self, seq: u64, index: u64) -> Option<Vec<u8>> {
        ledger::time(Slot::SvcServe, || self.inner.checkpoint_object(seq, index))
    }

    fn current_tree(&self) -> &PartitionTree {
        ledger::time(Slot::SvcOther, || self.inner.current_tree())
    }

    fn prepare_for_transfer(&mut self, env: &mut ExecEnv<'_>) {
        ledger::time(Slot::SvcInstall, || self.inner.prepare_for_transfer(env))
    }

    fn install_checkpoint(
        &mut self,
        seq: u64,
        root: Digest,
        objs: Vec<(u64, Option<Vec<u8>>)>,
        env: &mut ExecEnv<'_>,
    ) {
        ledger::time(Slot::SvcInstall, || {
            self.inner.install_checkpoint(seq, root, objs, env)
        })
    }

    fn reboot(&mut self, clean: bool, env: &mut ExecEnv<'_>) {
        ledger::time(Slot::SvcReboot, || self.inner.reboot(clean, env))
    }

    fn corrupt_state(&mut self, seed: u64) {
        ledger::time(Slot::SvcOther, || self.inner.corrupt_state(seed))
    }
}

/// Times every conformance-wrapper call.
pub struct TimedWrapper<W> {
    inner: W,
}

impl<W: Wrapper> Wrapper for TimedWrapper<W> {
    fn execute(
        &mut self,
        op: &[u8],
        client: u32,
        nondet: &[u8],
        read_only: bool,
        mods: &mut ModifyLog,
        env: &mut ExecEnv<'_>,
    ) -> Vec<u8> {
        ledger::time(Slot::WrapExecute, || {
            self.inner.execute(op, client, nondet, read_only, mods, env)
        })
    }

    fn get_obj(&self, index: u64) -> Option<Vec<u8>> {
        ledger::time(Slot::WrapGetObj, || self.inner.get_obj(index))
    }

    fn put_objs(&mut self, objs: &[(u64, Option<Vec<u8>>)], env: &mut ExecEnv<'_>) {
        ledger::count(Slot::WrapPutObjs, objs.len() as u64);
        ledger::time(Slot::WrapPutObjs, || self.inner.put_objs(objs, env))
    }

    fn n_objects(&self) -> u64 {
        ledger::time(Slot::WrapOther, || self.inner.n_objects())
    }

    fn propose_nondet(&mut self, env: &mut ExecEnv<'_>) -> Vec<u8> {
        ledger::time(Slot::WrapOther, || self.inner.propose_nondet(env))
    }

    fn check_nondet(&self, nondet: &[u8], env: &mut ExecEnv<'_>) -> bool {
        ledger::time(Slot::WrapOther, || self.inner.check_nondet(nondet, env))
    }

    fn footprint(&self, op: &[u8]) -> Option<Footprint> {
        ledger::time(Slot::WrapOther, || self.inner.footprint(op))
    }

    fn last_nondet_ns(&self) -> u64 {
        ledger::time(Slot::WrapOther, || self.inner.last_nondet_ns())
    }

    fn reset(&mut self, env: &mut ExecEnv<'_>) {
        ledger::time(Slot::WrapOther, || self.inner.reset(env))
    }

    fn rebuild_rep(&mut self, env: &mut ExecEnv<'_>) {
        ledger::time(Slot::WrapOther, || self.inner.rebuild_rep(env))
    }

    fn corrupt_state(&mut self, seed: u64) {
        ledger::time(Slot::WrapOther, || self.inner.corrupt_state(seed))
    }
}

/// Times every call into one concrete file system.
pub struct TimedNfs<S> {
    inner: S,
    slot: Slot,
}

impl<S: NfsServer> NfsServer for TimedNfs<S> {
    fn name(&self) -> &'static str {
        ledger::time(self.slot, || self.inner.name())
    }

    fn root(&self) -> ServerFh {
        ledger::time(self.slot, || self.inner.root())
    }

    fn getattr(&self, fh: &ServerFh) -> SrvResult<SrvAttr> {
        ledger::time(self.slot, || self.inner.getattr(fh))
    }

    fn peek(&self, fh: &ServerFh, offset: u64, count: u32) -> SrvResult<Vec<u8>> {
        ledger::time(self.slot, || self.inner.peek(fh, offset, count))
    }

    fn setattr(&mut self, fh: &ServerFh, sa: SrvSetAttr, clock_ns: u64) -> SrvResult<SrvAttr> {
        ledger::time(self.slot, || self.inner.setattr(fh, sa, clock_ns))
    }

    fn lookup(&mut self, dir: &ServerFh, name: &str) -> SrvResult<(ServerFh, SrvAttr)> {
        ledger::time(self.slot, || self.inner.lookup(dir, name))
    }

    fn read(
        &mut self,
        fh: &ServerFh,
        offset: u64,
        count: u32,
        clock_ns: u64,
    ) -> SrvResult<Vec<u8>> {
        ledger::time(self.slot, || self.inner.read(fh, offset, count, clock_ns))
    }

    fn write(
        &mut self,
        fh: &ServerFh,
        offset: u64,
        data: &[u8],
        clock_ns: u64,
    ) -> SrvResult<SrvAttr> {
        ledger::time(self.slot, || self.inner.write(fh, offset, data, clock_ns))
    }

    fn create(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        ledger::time(self.slot, || {
            self.inner.create(dir, name, mode, clock_ns, rng)
        })
    }

    fn remove(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        ledger::time(self.slot, || self.inner.remove(dir, name, clock_ns))
    }

    fn rename(
        &mut self,
        from_dir: &ServerFh,
        from_name: &str,
        to_dir: &ServerFh,
        to_name: &str,
        clock_ns: u64,
    ) -> SrvResult<()> {
        ledger::time(self.slot, || {
            self.inner
                .rename(from_dir, from_name, to_dir, to_name, clock_ns)
        })
    }

    fn link(&mut self, fh: &ServerFh, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        ledger::time(self.slot, || self.inner.link(fh, dir, name, clock_ns))
    }

    fn symlink(
        &mut self,
        dir: &ServerFh,
        name: &str,
        target: &str,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        ledger::time(self.slot, || {
            self.inner.symlink(dir, name, target, clock_ns, rng)
        })
    }

    fn readlink(&self, fh: &ServerFh) -> SrvResult<String> {
        ledger::time(self.slot, || self.inner.readlink(fh))
    }

    fn mkdir(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        ledger::time(self.slot, || {
            self.inner.mkdir(dir, name, mode, clock_ns, rng)
        })
    }

    fn rmdir(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        ledger::time(self.slot, || self.inner.rmdir(dir, name, clock_ns))
    }

    fn readdir(&self, dir: &ServerFh) -> SrvResult<Vec<(String, ServerFh)>> {
        ledger::time(self.slot, || self.inner.readdir(dir))
    }

    fn reset(&mut self, rng: &mut StdRng) {
        ledger::time(self.slot, || self.inner.reset(rng))
    }

    fn remount(&mut self, rng: &mut StdRng) -> ServerFh {
        ledger::time(self.slot, || self.inner.remount(rng))
    }

    fn inject_corruption(&mut self, fh: &ServerFh) -> bool {
        ledger::time(self.slot, || self.inner.inject_corruption(fh))
    }

    fn footprint_bytes(&self) -> u64 {
        ledger::time(self.slot, || self.inner.footprint_bytes())
    }
}
