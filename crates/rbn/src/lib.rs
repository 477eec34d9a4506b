//! Reverse banyan networks (RBNs) and the distributed self-routing machinery
//! built on them — Sections 4–6 of Yang & Wang, *"A New Self-Routing
//! Multicast Network"*.
//!
//! An `n × n` RBN is recursively two `n/2 × n/2` RBNs followed by an `n × n`
//! merging network (one perfect-shuffle stage of 2×2 switches). This crate
//! provides:
//!
//! * [`sequence`] — circular compact sequences `C^n_{s,l;β,γ}` (Eq. 5), the
//!   combinatorial objects the whole construction manipulates;
//! * [`setting`] — compact switch settings `W^{n/2}_{…}` and the parallel
//!   setting routines of Table 5;
//! * [`fabric`] — the executable switch fabric ([`RbnSettings`]) with
//!   payload-splitting broadcast semantics;
//! * [`plan`] — the distributed forward/backward algorithms of Tables 3, 4
//!   and 6 (bit sorting, scattering, ε-dividing) as array-based planners;
//! * [`bitplan`] — the same sweeps word-packed, over every block of a BSN
//!   level at once (the scatter, and the quasisort with ε-dividing and bit
//!   sorting fused into one wave): tags in two `u64` bit planes, forward
//!   values by popcount over aligned segments, settings written into a
//!   caller-provided table with zero steady-state allocation;
//! * [`distributed`] — the same algorithms as an event-driven
//!   message-passing execution over the Fig. 8 tree (cross-validates the
//!   planners and measures parallel rounds);
//! * [`network`] — one-call façades: [`BitSortingRbn`], [`ScatterRbn`],
//!   [`QuasisortRbn`].
//!
//! # Example: Theorem 1 in action
//!
//! ```
//! use brsmn_rbn::BitSortingRbn;
//! use brsmn_switch::{Line, Tag};
//!
//! let rbn = BitSortingRbn::new(8).unwrap();
//! let lines: Vec<Line<&str>> = "10110010".chars().map(|c| {
//!     Line::with(if c == '1' { Tag::One } else { Tag::Zero }, "msg")
//! }).collect();
//! let out = rbn.sort(lines, 4).unwrap(); // s = n/2: ascending bit sort
//! let tags: String = out.iter().map(|l| l.tag.to_string()).collect();
//! assert_eq!(tags, "00001111");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bitplan;
pub mod distributed;
pub mod fabric;
pub mod network;
pub mod packed;
pub mod par;
pub mod plan;
pub mod profile;
pub mod sequence;
pub mod setting;

pub use bitplan::{BitVec, SweepScratch, TagPlane, TagVec, LANES};
pub use distributed::{
    distributed_bitsort, distributed_eps_divide, distributed_scatter, SweepStats,
};
pub use fabric::{clone_split, RbnSettings, RbnWiring};
pub use network::{BitSortingRbn, QuasisortRbn, RbnError, ScatterRbn};
pub use packed::{setting_code, setting_from_code, PackedSettings};
pub use plan::{
    eps_divide, plan_bitsort, plan_quasisort, plan_scatter, BitsortPlan, DomType, EpsDividePlan,
    PlanError, ScatterNode, ScatterPlan,
};
pub use profile::PlanOpProfile;
pub use sequence::{compact_sequence, is_compact_at, recognize_compact, Compact};
pub use setting::{
    binary_compact_setting, binary_compact_setting_into, trinary_compact_setting,
    trinary_compact_setting_into,
};
