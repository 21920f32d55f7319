//! Message-level fault injection.
//!
//! A [`NetFilter`] sees every message after the latency model and before
//! delivery, and can pass, drop, delay, duplicate or corrupt it. Filters
//! model an adversarial network (or an attacker-controlled switch); *node*
//! faults (crashed or Byzantine replicas) are modelled by crash windows in
//! the simulator and by adversarial [`crate::Actor`] implementations.

use crate::actor::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// What to do with an intercepted message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterAction {
    /// Deliver unchanged.
    Pass,
    /// Silently drop.
    Drop,
    /// Deliver after an extra delay.
    Delay(SimDuration),
    /// Deliver a modified payload.
    Rewrite(Vec<u8>),
    /// Deliver the original and a duplicate (after the extra delay).
    Duplicate(SimDuration),
}

/// Inspects and perturbs in-flight messages.
pub trait NetFilter {
    /// Decides the fate of one message.
    fn filter(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
        now: SimTime,
        rng: &mut StdRng,
    ) -> FilterAction;
}

/// Drops every message to or from a set of nodes (a "mute" fault).
#[derive(Debug, Clone)]
pub struct Isolate {
    nodes: Vec<NodeId>,
}

impl Isolate {
    /// Isolates `nodes` from the rest of the network.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        Self { nodes }
    }
}

impl NetFilter for Isolate {
    fn filter(
        &mut self,
        from: NodeId,
        to: NodeId,
        _payload: &[u8],
        _now: SimTime,
        _rng: &mut StdRng,
    ) -> FilterAction {
        if self.nodes.contains(&from) || self.nodes.contains(&to) {
            FilterAction::Drop
        } else {
            FilterAction::Pass
        }
    }
}

/// Flips bits in a random fraction of messages from a given node,
/// simulating a faulty sender NIC or an in-path attacker.
#[derive(Debug, Clone)]
pub struct BitFlipper {
    /// Node whose outbound traffic is corrupted.
    pub from: NodeId,
    /// Probability that any given message is corrupted.
    pub prob: f64,
}

impl NetFilter for BitFlipper {
    fn filter(
        &mut self,
        from: NodeId,
        _to: NodeId,
        payload: &[u8],
        _now: SimTime,
        rng: &mut StdRng,
    ) -> FilterAction {
        if from == self.from && !payload.is_empty() && rng.gen_bool(self.prob) {
            let mut corrupted = payload.to_vec();
            let idx = rng.gen_range(0..corrupted.len());
            corrupted[idx] ^= 0xff;
            FilterAction::Rewrite(corrupted)
        } else {
            FilterAction::Pass
        }
    }
}

/// Drops a random fraction of the messages whose leading 4-byte big-endian
/// discriminant equals `tag` — targeted loss of one protocol message kind
/// (the protocol's XDR envelope puts the variant tag first, so the filter
/// needs no protocol dependency). Used by the chaos campaigns to starve
/// specific exchanges, e.g. chunk replies during state transfer.
#[derive(Debug, Clone)]
pub struct TaggedDropper {
    /// Wire discriminant of the targeted message kind.
    pub tag: u32,
    /// Probability that a matching message is dropped.
    pub prob: f64,
}

/// True when `payload` starts with the 4-byte big-endian `tag`.
fn has_tag(payload: &[u8], tag: u32) -> bool {
    payload.len() >= 4 && payload[..4] == tag.to_be_bytes()
}

impl NetFilter for TaggedDropper {
    fn filter(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        payload: &[u8],
        _now: SimTime,
        rng: &mut StdRng,
    ) -> FilterAction {
        if has_tag(payload, self.tag) && rng.gen_bool(self.prob) {
            FilterAction::Drop
        } else {
            FilterAction::Pass
        }
    }
}

/// Corrupts a random byte *past the discriminant* in a fraction of the
/// messages of one kind, so the message still parses as its kind but its
/// content is damaged — the interesting case for digest-verified exchanges
/// (a reply that fails its hash check, not one that fails to decode).
#[derive(Debug, Clone)]
pub struct TaggedFlipper {
    /// Wire discriminant of the targeted message kind.
    pub tag: u32,
    /// Probability that a matching message is corrupted.
    pub prob: f64,
}

impl NetFilter for TaggedFlipper {
    fn filter(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        payload: &[u8],
        _now: SimTime,
        rng: &mut StdRng,
    ) -> FilterAction {
        if has_tag(payload, self.tag) && payload.len() > 4 && rng.gen_bool(self.prob) {
            let mut corrupted = payload.to_vec();
            let idx = rng.gen_range(4..corrupted.len());
            corrupted[idx] ^= 0xff;
            FilterAction::Rewrite(corrupted)
        } else {
            FilterAction::Pass
        }
    }
}

/// Delays all traffic on one direction of one link, simulating congestion.
#[derive(Debug, Clone)]
pub struct SlowLink {
    /// Source of the slow link.
    pub from: NodeId,
    /// Destination of the slow link.
    pub to: NodeId,
    /// Extra one-way delay.
    pub extra: SimDuration,
}

impl NetFilter for SlowLink {
    fn filter(
        &mut self,
        from: NodeId,
        to: NodeId,
        _payload: &[u8],
        _now: SimTime,
        _rng: &mut StdRng,
    ) -> FilterAction {
        if from == self.from && to == self.to {
            FilterAction::Delay(self.extra)
        } else {
            FilterAction::Pass
        }
    }
}

/// Duplicates a fraction of all messages (retransmission storms; the
/// protocol must be idempotent under duplication).
#[derive(Debug, Clone)]
pub struct Duplicator {
    /// Probability that any given message is duplicated.
    pub prob: f64,
    /// Delay before the duplicate arrives.
    pub dup_delay: SimDuration,
}

impl NetFilter for Duplicator {
    fn filter(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _payload: &[u8],
        _now: SimTime,
        rng: &mut StdRng,
    ) -> FilterAction {
        if rng.gen_bool(self.prob) {
            FilterAction::Duplicate(self.dup_delay)
        } else {
            FilterAction::Pass
        }
    }
}

impl<F: NetFilter + ?Sized> NetFilter for Box<F> {
    fn filter(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
        now: SimTime,
        rng: &mut StdRng,
    ) -> FilterAction {
        (**self).filter(from, to, payload, now, rng)
    }
}

/// Restricts another filter to a simulated-time window `[from, until)`.
///
/// Outside the window every message passes untouched, so a fault *heals*
/// on schedule without tearing down the whole chain via
/// [`crate::Simulation::clear_filter`]. This is what lets a declarative
/// fault schedule express "partition nodes 1,2 from t=3s to t=8s" as a
/// single filter installed up front.
#[derive(Debug, Clone)]
pub struct ActiveWindow<F> {
    inner: F,
    from: SimTime,
    until: SimTime,
}

impl<F> ActiveWindow<F> {
    /// Wraps `inner` so it only acts between `from` (inclusive) and
    /// `until` (exclusive).
    pub fn new(inner: F, from: SimTime, until: SimTime) -> Self {
        Self { inner, from, until }
    }

    /// Wraps `inner` so it acts from the start of the run until `until`.
    pub fn until(inner: F, until: SimTime) -> Self {
        Self::new(inner, SimTime::ZERO, until)
    }

    /// The wrapped filter.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: NetFilter> NetFilter for ActiveWindow<F> {
    fn filter(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
        now: SimTime,
        rng: &mut StdRng,
    ) -> FilterAction {
        if now < self.from || now >= self.until {
            FilterAction::Pass
        } else {
            self.inner.filter(from, to, payload, now, rng)
        }
    }
}

/// Chains several filters; the first non-`Pass` action wins.
#[derive(Default)]
pub struct FilterChain {
    filters: Vec<Box<dyn NetFilter>>,
}

impl FilterChain {
    /// Creates an empty chain (which passes everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a filter to the chain.
    pub fn push(&mut self, f: Box<dyn NetFilter>) {
        self.filters.push(f);
    }
}

impl NetFilter for FilterChain {
    fn filter(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
        now: SimTime,
        rng: &mut StdRng,
    ) -> FilterAction {
        for f in &mut self.filters {
            let action = f.filter(from, to, payload, now, rng);
            if action != FilterAction::Pass {
                return action;
            }
        }
        FilterAction::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn isolate_drops_both_directions() {
        let mut f = Isolate::new(vec![NodeId(1)]);
        let mut r = rng();
        assert_eq!(
            f.filter(NodeId(1), NodeId(0), b"x", SimTime::ZERO, &mut r),
            FilterAction::Drop
        );
        assert_eq!(
            f.filter(NodeId(0), NodeId(1), b"x", SimTime::ZERO, &mut r),
            FilterAction::Drop
        );
        assert_eq!(
            f.filter(NodeId(0), NodeId(2), b"x", SimTime::ZERO, &mut r),
            FilterAction::Pass
        );
    }

    #[test]
    fn bit_flipper_changes_payload() {
        let mut f = BitFlipper { from: NodeId(0), prob: 1.0 };
        let mut r = rng();
        match f.filter(NodeId(0), NodeId(1), b"abcd", SimTime::ZERO, &mut r) {
            FilterAction::Rewrite(p) => assert_ne!(p, b"abcd"),
            other => panic!("expected rewrite, got {other:?}"),
        }
        // Traffic from other nodes is untouched.
        assert_eq!(
            f.filter(NodeId(2), NodeId(1), b"abcd", SimTime::ZERO, &mut r),
            FilterAction::Pass
        );
    }

    #[test]
    fn tagged_dropper_matches_discriminant_only() {
        let mut f = TaggedDropper { tag: 18, prob: 1.0 };
        let mut r = rng();
        let frag_reply = [0u8, 0, 0, 18, 1, 2, 3];
        let other = [0u8, 0, 0, 11, 1, 2, 3];
        assert_eq!(
            f.filter(NodeId(0), NodeId(1), &frag_reply, SimTime::ZERO, &mut r),
            FilterAction::Drop
        );
        assert_eq!(
            f.filter(NodeId(0), NodeId(1), &other, SimTime::ZERO, &mut r),
            FilterAction::Pass
        );
        // Too short to carry a tag: passes.
        assert_eq!(
            f.filter(NodeId(0), NodeId(1), &[0, 0], SimTime::ZERO, &mut r),
            FilterAction::Pass
        );
    }

    #[test]
    fn tagged_flipper_preserves_discriminant() {
        let mut f = TaggedFlipper { tag: 18, prob: 1.0 };
        let mut r = rng();
        let frag_reply = [0u8, 0, 0, 18, 1, 2, 3];
        match f.filter(NodeId(0), NodeId(1), &frag_reply, SimTime::ZERO, &mut r) {
            FilterAction::Rewrite(p) => {
                assert_eq!(&p[..4], &frag_reply[..4], "tag bytes untouched");
                assert_ne!(&p[4..], &frag_reply[4..], "body corrupted");
            }
            other => panic!("expected rewrite, got {other:?}"),
        }
        // A tag-only message has no body to corrupt: passes.
        assert_eq!(
            f.filter(NodeId(0), NodeId(1), &[0, 0, 0, 18], SimTime::ZERO, &mut r),
            FilterAction::Pass
        );
    }

    #[test]
    fn active_window_gates_inner_filter() {
        let mut f = ActiveWindow::new(
            Isolate::new(vec![NodeId(1)]),
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        );
        let mut r = rng();
        // Before the window: the partition is not yet in force.
        assert_eq!(
            f.filter(NodeId(1), NodeId(0), b"x", SimTime::from_millis(9), &mut r),
            FilterAction::Pass
        );
        // Inside the window (inclusive start): dropped.
        assert_eq!(
            f.filter(NodeId(1), NodeId(0), b"x", SimTime::from_millis(10), &mut r),
            FilterAction::Drop
        );
        assert_eq!(
            f.filter(NodeId(0), NodeId(1), b"x", SimTime::from_millis(19), &mut r),
            FilterAction::Drop
        );
        // At the exclusive end the partition has healed.
        assert_eq!(
            f.filter(NodeId(1), NodeId(0), b"x", SimTime::from_millis(20), &mut r),
            FilterAction::Pass
        );
    }

    #[test]
    fn until_window_is_active_from_start() {
        let mut f =
            ActiveWindow::until(Isolate::new(vec![NodeId(2)]), SimTime::from_millis(5));
        let mut r = rng();
        assert_eq!(
            f.filter(NodeId(2), NodeId(0), b"x", SimTime::ZERO, &mut r),
            FilterAction::Drop
        );
        assert_eq!(
            f.filter(NodeId(2), NodeId(0), b"x", SimTime::from_millis(5), &mut r),
            FilterAction::Pass
        );
    }

    #[test]
    fn chain_applies_first_match() {
        let mut chain = FilterChain::new();
        chain.push(Box::new(Isolate::new(vec![NodeId(9)])));
        chain.push(Box::new(SlowLink {
            from: NodeId(0),
            to: NodeId(1),
            extra: SimDuration::from_millis(5),
        }));
        let mut r = rng();
        assert_eq!(
            chain.filter(NodeId(9), NodeId(1), b"x", SimTime::ZERO, &mut r),
            FilterAction::Drop
        );
        assert_eq!(
            chain.filter(NodeId(0), NodeId(1), b"x", SimTime::ZERO, &mut r),
            FilterAction::Delay(SimDuration::from_millis(5))
        );
        assert_eq!(
            chain.filter(NodeId(1), NodeId(0), b"x", SimTime::ZERO, &mut r),
            FilterAction::Pass
        );
    }
}
