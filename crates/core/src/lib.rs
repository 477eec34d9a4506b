//! The binary radix sorting multicast network (BRSMN) — the core library of
//! this reproduction of Yang & Wang, *"A New Self-Routing Multicast
//! Network"* (IPPS/SPDP 1998; IEEE TPDS 10(11), 1999).
//!
//! A **multicast network** realizes every multicast assignment between its
//! `n` inputs and `n` outputs over edge-disjoint trees, without blocking.
//! This crate implements the paper's design end to end:
//!
//! * [`assignment`] — multicast assignments `{I_0, …, I_{n−1}}`, stored
//!   flat (CSR offsets into one destination array), and routing results;
//! * [`backend`] — the [`RouterBackend`] trait making every fabric (fast
//!   path, reference, feedback, engines, baselines) interchangeable to the
//!   serving loop and conformance suite;
//! * [`tags`] — the tagged binary tree of a multicast and the `SEQ` wire
//!   format the self-routing hardware consumes (Section 7.1);
//! * [`payload`] — the two message models: semantic (reference) and
//!   self-routed (faithful);
//! * [`bsn`] — the binary splitting network: scatter + quasisorting RBNs
//!   (Section 3);
//! * [`brsmn`] — the recursive network of Fig. 1 with both engines and full
//!   tracing;
//! * [`fastpath`] — the zero-allocation routing fast path: reusable
//!   [`RouteScratch`] arenas over the packed-word planners of `brsmn-rbn`;
//! * [`plancache`] — plan capture and replay: the self-routing property
//!   makes settings a pure function of the assignment, so a routed frame's
//!   full setting tensor is snapshotted once ([`CapturedPlan`]) and served
//!   again through a two-tier sharded LRU [`PlanCache`] at execution-only
//!   cost — exact recurrences replay directly, *relabeled* recurrences
//!   replay through the canonical tier's permuted executor, and the whole
//!   working set persists across restarts via snapshots;
//! * [`canonical`] — the relabeling classes the cache's canonical tier
//!   keys on: the [`FanoutProfile`] key, its counting-sort maps, and
//!   canonicalization ([`canonicalize`]) as their oracle;
//! * [`feedback`] — the single-RBN feedback implementation (Section 7.3)
//!   cutting hardware to `Θ(n log n)`;
//! * [`metrics`] — exact switch/gate/depth accounting (Section 7.4);
//! * [`verify`] — post-route output verification with fault localization,
//!   feeding the engine's graceful-degradation ladder
//!   ([`engine::ResilientRouter`]).
//!
//! # Quickstart
//!
//! ```
//! use brsmn_core::{Brsmn, MulticastAssignment};
//!
//! // The running example of Section 2.
//! let asg = MulticastAssignment::from_sets(8, vec![
//!     vec![0, 1], vec![], vec![3, 4, 7], vec![2], vec![], vec![], vec![], vec![5, 6],
//! ]).unwrap();
//!
//! let net = Brsmn::new(8).unwrap();
//! let result = net.route(&asg).unwrap();
//! assert!(result.realizes(&asg));
//!
//! // The self-routing engine (switches see only tag streams) agrees:
//! assert_eq!(result, net.route_self_routing(&asg).unwrap());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod algebra;
pub mod assignment;
pub mod backend;
pub mod batch;
pub mod brsmn;
pub mod bsn;
pub mod canonical;
pub mod engine;
pub mod error;
pub mod fastpath;
pub mod feedback;
pub mod metrics;
pub mod payload;
pub mod plancache;
pub mod render;
pub mod stream;
pub mod tags;
pub mod verify;

pub use algebra::{idle_outputs, relabel_inputs, relabel_outputs, restrict, union};
pub use assignment::{AssignmentError, MulticastAssignment, RoutingResult};
pub use backend::{ReferenceRouter, RouterBackend};
pub use batch::{with_thread_batch_planner, BatchPlanner, MAX_BATCH_FRAMES};
pub use brsmn::{Brsmn, LevelTrace, RouteTrace};
pub use bsn::{Bsn, BsnTrace};
pub use canonical::{canonicalize, invert_permutation, Canonicalized, FanoutProfile};
pub use engine::{
    route_striped, BatchOutput, Engine, EngineConfig, EngineStats, FrameOutcome, LevelStats,
    ResilientRouter, ShardedEngine, StageTimer,
};
pub use brsmn_rbn::PlanOpProfile;
pub use error::CoreError;
pub use fastpath::{with_thread_scratch, RouteScratch};
pub use feedback::{FeedbackBrsmn, FeedbackStats};
pub use payload::{payload_lines, RoutePayload, SelfRoutedMsg, SemanticMsg};
pub use plancache::{
    fingerprint_inputs, plan_fingerprint, CanonicalHit, CapturedPlan, PlanCache, PlanCacheSnapshot,
    PlanCacheStats, PlanSnapshotEntry, SnapshotError, SnapshotLoadStats, SNAPSHOT_VERSION,
};
pub use render::{render_rbn, render_trace};
pub use stream::{stream_split, ForwardMode, StreamSplitter};
pub use tags::{seq_for_dests, TagSeq, TagTree};
pub use verify::{verify_routing, Divergence, FaultReport};
