//! A common planning/routing interface over every network in the workspace.
//!
//! The serving loop (`brsmn-serve`), the conformance suite
//! (`tests/backend_conformance.rs`), and the CLI all need to drive
//! interchangeable fabrics: the BRSMN fast path, the allocating reference
//! planner, the Section-7.3 feedback network, and the `brsmn-baselines`
//! designs. [`RouterBackend`] is that seam: *plan and route one
//! [`MulticastAssignment`], return the delivered [`RoutingResult`]*.
//!
//! The trait is object-safe and requires `Send + Sync`, so a serving shard
//! can hold `Box<dyn RouterBackend>` and route from any worker thread.
//! Batches go through [`RouterBackend::route_batch`]: a plain loop over
//! [`RouterBackend::route_assignment`] by default, the engine's own batch
//! path for [`Engine`] and [`ShardedEngine`] (and `brsmn-cluster`'s
//! `DistributedEngine`). A fleet of backends stripes one batch across its
//! members with [`crate::route_striped`], as the serving loop does.
//!
//! Because a multicast assignment determines its delivered source table
//! uniquely (output `o` either receives from the single `i` with
//! `o ∈ I_i`, or is idle), **every** correct backend returns the same
//! `RoutingResult`. Backends whose internals are pinned bit-identical to
//! [`Brsmn::route_reference`] by the equivalence test suites additionally
//! report [`RouterBackend::is_brsmn`] so conformance tests can assert the
//! stronger guarantee.
//!
//! # Example
//!
//! ```
//! use brsmn_core::backend::{ReferenceRouter, RouterBackend};
//! use brsmn_core::{Brsmn, MulticastAssignment};
//!
//! let asg = MulticastAssignment::from_sets(8, vec![
//!     vec![0, 1], vec![], vec![3, 4, 7], vec![2], vec![], vec![], vec![], vec![5, 6],
//! ]).unwrap();
//!
//! let backends: Vec<Box<dyn RouterBackend>> = vec![
//!     Box::new(Brsmn::new(8).unwrap()),
//!     Box::new(ReferenceRouter::new(8).unwrap()),
//! ];
//! for b in &backends {
//!     assert!(b.route_assignment(&asg).unwrap().realizes(&asg));
//! }
//! ```

use std::time::Instant;

use crate::assignment::{MulticastAssignment, RoutingResult};
use crate::brsmn::Brsmn;
use crate::engine::{BatchOutput, Engine, EngineStats, ShardedEngine};
use crate::error::CoreError;
use crate::feedback::FeedbackBrsmn;

/// A network that can plan and route one multicast assignment.
///
/// `Send + Sync` is part of the contract: backends are shared across
/// serving-shard worker threads behind `&dyn` references.
pub trait RouterBackend: Send + Sync {
    /// Stable, human-readable backend name (used in reports and fixtures).
    fn name(&self) -> &'static str;

    /// Network size `n` (ports on each side).
    fn size(&self) -> usize;

    /// Plans and routes `asg`, returning the delivered source table.
    ///
    /// `asg.n()` must equal [`RouterBackend::size`]; implementations may
    /// panic on a mismatch (the serving loop's admission control rejects
    /// wrong-sized requests before they reach a backend).
    fn route_assignment(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError>;

    /// Routes a batch on the calling thread, results in input order. The
    /// default runs [`RouterBackend::route_assignment`] frame by frame and
    /// reports one worker, the frame tallies, and the loop's time as both
    /// `wall_nanos` and `busy_nanos`; the engines override it with their
    /// own batch path.
    fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        let start = Instant::now();
        let results: Vec<_> = batch.iter().map(|asg| self.route_assignment(asg)).collect();
        let mut stats = EngineStats::empty(self.size());
        stats.batch = batch.len();
        stats.workers = 1;
        stats.frames_ok = results.iter().filter(|r| r.is_ok()).count();
        stats.frames_failed = batch.len() - stats.frames_ok;
        stats.wall_nanos = start.elapsed().as_nanos() as u64;
        stats.busy_nanos = stats.wall_nanos;
        BatchOutput { results, stats }
    }

    /// `true` for backends pinned bit-identical to
    /// [`Brsmn::route_reference`] (the BRSMN family: fast path, reference
    /// planner, feedback network, and the engines built from them).
    fn is_brsmn(&self) -> bool {
        false
    }
}

/// The BRSMN zero-allocation fast path ([`Brsmn::route`]).
impl RouterBackend for Brsmn {
    fn name(&self) -> &'static str {
        "brsmn-fast"
    }

    fn size(&self) -> usize {
        self.n()
    }

    fn route_assignment(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        self.route(asg)
    }

    fn is_brsmn(&self) -> bool {
        true
    }
}

/// The PR-1 allocating reference planner, as its own backend.
///
/// [`Brsmn`] already exposes [`Brsmn::route_reference`], but the trait has
/// one entry point per backend, so the reference planner gets a newtype.
/// This is the ladder's retry router and the oracle every other BRSMN
/// backend is pinned against.
#[derive(Debug, Clone)]
pub struct ReferenceRouter {
    net: Brsmn,
}

impl ReferenceRouter {
    /// A reference planner over an `n × n` BRSMN.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        Ok(ReferenceRouter {
            net: Brsmn::new(n)?,
        })
    }

    /// The underlying network.
    pub fn network(&self) -> &Brsmn {
        &self.net
    }
}

impl RouterBackend for ReferenceRouter {
    fn name(&self) -> &'static str {
        "brsmn-reference"
    }

    fn size(&self) -> usize {
        self.net.n()
    }

    fn route_assignment(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        self.net.route_reference(asg)
    }

    fn is_brsmn(&self) -> bool {
        true
    }
}

/// The Section-7.3 feedback network (single physical RBN, `log n + 1`
/// passes). Per-pass [`crate::FeedbackStats`] are dropped; use
/// [`FeedbackBrsmn::route`] directly when you need them.
impl RouterBackend for FeedbackBrsmn {
    fn name(&self) -> &'static str {
        "brsmn-feedback"
    }

    fn size(&self) -> usize {
        self.n()
    }

    fn route_assignment(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        self.route(asg).map(|(result, _stats)| result)
    }

    fn is_brsmn(&self) -> bool {
        true
    }
}

/// A single-fabric engine routes one-frame batches; instrumentation is
/// dropped (use [`Engine::route_one`] for the stats). Batches take
/// [`Engine::route_batch`].
impl RouterBackend for Engine {
    fn name(&self) -> &'static str {
        "brsmn-engine"
    }

    fn size(&self) -> usize {
        self.n()
    }

    fn route_assignment(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        self.route_one(asg).0
    }

    fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        Engine::route_batch(self, batch)
    }

    fn is_brsmn(&self) -> bool {
        true
    }
}

/// A sharded engine routes a single frame on its first shard (striping only
/// pays off for batches, which take [`ShardedEngine::route_batch`]).
impl RouterBackend for ShardedEngine {
    fn name(&self) -> &'static str {
        "brsmn-sharded"
    }

    fn size(&self) -> usize {
        self.n()
    }

    fn route_assignment(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        let mut out = self.route_batch(std::slice::from_ref(asg));
        out.results.remove(0)
    }

    fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        ShardedEngine::route_batch(self, batch)
    }

    fn is_brsmn(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_assignment() -> MulticastAssignment {
        MulticastAssignment::from_sets(
            8,
            vec![
                vec![0, 1],
                vec![],
                vec![3, 4, 7],
                vec![2],
                vec![],
                vec![],
                vec![],
                vec![5, 6],
            ],
        )
        .unwrap()
    }

    fn core_backends(n: usize) -> Vec<Box<dyn RouterBackend>> {
        vec![
            Box::new(Brsmn::new(n).unwrap()),
            Box::new(ReferenceRouter::new(n).unwrap()),
            Box::new(FeedbackBrsmn::new(n).unwrap()),
            Box::new(Engine::new(n).unwrap()),
            Box::new(ShardedEngine::new(n, 2).unwrap()),
        ]
    }

    #[test]
    fn all_core_backends_agree_on_paper_example() {
        let asg = paper_assignment();
        let oracle = Brsmn::new(8).unwrap().route_reference(&asg).unwrap();
        for b in core_backends(8) {
            assert_eq!(b.size(), 8, "{}", b.name());
            assert!(b.is_brsmn(), "{}", b.name());
            let r = b.route_assignment(&asg).unwrap();
            assert_eq!(r, oracle, "{} diverged from the reference", b.name());
        }
    }

    #[test]
    fn backend_names_are_distinct() {
        let names: Vec<&str> = core_backends(8).iter().map(|b| b.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
