//! Replays one delivered payload through the public codec and crypto
//! functions, timing each step into its own ledger slot.
//!
//! The protocol code decodes, digests and MAC-checks inside its actor
//! callbacks, where a wrapper cannot see those steps. Replaying the same
//! bytes through `Message::from_wire`/`to_wire`, `Digest::of` over
//! `signed_bytes`, and `Authenticator::check`/`check_point` measures what
//! each costs on this traffic. The replay runs outside every callback
//! scope, so it never inflates a layer's self time.

use crate::ledger::{self, Slot};
use base_crypto::{Authenticator, Digest, NodeKeys};
use base_pbft::messages::RequestMsg;
use base_pbft::Message;
use base_simnet::NodeId;
use std::hint::black_box;

/// Builds the signed bytes and hashes them, both inside the digest scope.
fn digest(signed: impl FnOnce() -> Vec<u8>) -> Digest {
    let (d, len) = ledger::time(Slot::ReplayDigest, || {
        let bytes = signed();
        (Digest::of(black_box(&bytes)), bytes.len())
    });
    ledger::count(Slot::ReplayDigest, len as u64);
    d
}

fn mac(check: impl FnOnce() -> bool) {
    ledger::count(Slot::ReplayMac, 1);
    black_box(ledger::time(Slot::ReplayMac, check));
}

/// Digests a request through its memoizing `digest()`, so a pre-prepare
/// replayed next folds the cached request digests instead of hashing the
/// request bodies a second time.
fn request(keys: &NodeKeys, r: &RequestMsg) {
    ledger::count(Slot::ReplayDigest, r.signed_bytes().len() as u64);
    let d = ledger::time(Slot::ReplayDigest, || r.digest());
    mac(|| r.auth.check(keys, r.client() as usize, &d));
}

/// Replays `payload`, delivered from `from` to the node owning `keys`.
pub fn replay(keys: &NodeKeys, from: NodeId, payload: &[u8]) {
    let Some(msg) = ledger::time(Slot::ReplayDecode, || {
        Message::from_wire(black_box(payload))
    }) else {
        return;
    };
    black_box(ledger::time(Slot::ReplayEncode, || msg.to_wire()));
    match &msg {
        Message::Request(r) => request(keys, r),
        Message::PrePrepare(pp) => {
            // The primary MACs the batch digest; each piggybacked request
            // carries its client's authenticator as well.
            for r in pp.requests() {
                request(keys, r);
            }
            // The batch digest hashes the tag, the nondet value and one
            // 32-byte digest per request, then the header is hashed.
            let batch = 16 + 4 + pp.nondet().len().div_ceil(4) * 4 + 4 + 32 * pp.requests().len();
            ledger::count(Slot::ReplayDigest, batch as u64);
            let d = digest(|| pp.signed_bytes());
            mac(|| pp.auth.check(keys, from.0, &d));
        }
        Message::Prepare(p) => {
            let d = digest(|| p.signed_bytes());
            mac(|| p.auth.check(keys, p.replica as usize, &d));
        }
        Message::Commit(c) => {
            let d = digest(|| c.signed_bytes());
            mac(|| c.auth.check(keys, c.replica as usize, &d));
        }
        Message::Reply(r) => {
            let d = digest(|| r.signed_bytes());
            mac(|| Authenticator::check_point(keys, r.replica as usize, &d, &r.mac));
        }
        // Signed rather than MAC-authenticated: only the digest is replayed.
        Message::Checkpoint(c) => {
            digest(|| c.signed_bytes());
        }
        Message::ViewChange(v) => {
            digest(|| v.signed_bytes());
        }
        Message::NewView(v) => {
            digest(|| v.signed_bytes());
        }
        _ => {}
    }
}
