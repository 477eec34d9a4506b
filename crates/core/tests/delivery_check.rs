//! The frame-final delivery check every route and replay ends with: a
//! plan captured for one frame and replayed for another, exactly and
//! through the permuted replay, fails with the errors pinned below, which
//! are the ones the search-based check it replaced produced on the same
//! plans. (`fastpath`'s unit tests hold the owner-table check against
//! that search-based check on perturbed deliveries.)

use brsmn_core::{relabel_inputs, Brsmn, CoreError, MulticastAssignment, RouteScratch};

struct Rng(u64);

impl Rng {
    fn below(&mut self, k: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % k as u64) as usize
    }
}

/// A dense frame: every output claimed by a random input.
fn dense(n: usize, rng: &mut Rng) -> MulticastAssignment {
    let mut sets = vec![Vec::new(); n];
    for d in 0..n {
        sets[rng.below(n)].push(d);
    }
    MulticastAssignment::from_sets(n, sets).unwrap()
}

/// A sparse frame at n = 16: outputs 1, 3, 4, 8, 10, 12 and 15 idle.
fn sparse16() -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new(); 16];
    sets[0] = vec![0, 2];
    sets[2] = vec![5];
    sets[3] = vec![6, 7, 9];
    sets[5] = vec![11];
    sets[6] = vec![13, 14];
    sets
}

/// A plan captured for one frame, replayed for another: exactly, and
/// through the permuted replay with maps that do not fit. Each fails
/// with the error the search-based check gave on the same plan.
#[test]
fn foreign_plans_fail_with_the_pinned_errors() {
    let n = 16;
    let net = Brsmn::new(n).unwrap();
    let mut scratch = RouteScratch::new(n).unwrap();
    let asg = MulticastAssignment::from_sets(n, sparse16()).unwrap();
    let (_, plan) = net.route_capture(&asg, &mut scratch).unwrap();
    let internal = |s: &str| CoreError::Internal(s.to_string());

    // One more destination than the plan serves.
    let mut sets = sparse16();
    sets[0].push(1);
    let more = MulticastAssignment::from_sets(n, sets).unwrap();
    assert_eq!(
        net.route_replay_into(&more, &plan, &mut scratch)
            .unwrap_err(),
        internal("9 of 10 destinations served")
    );
    // One destination fewer: the plan still delivers it.
    let mut sets = sparse16();
    sets[0] = vec![0];
    let fewer = MulticastAssignment::from_sets(n, sets).unwrap();
    assert_eq!(
        net.route_replay_into(&fewer, &plan, &mut scratch)
            .unwrap_err(),
        internal("message from input 0 misdelivered to output 2")
    );
    // Another frame altogether.
    let mut sets = vec![Vec::new(); n];
    sets[1] = vec![0, 1, 2, 3];
    sets[4] = vec![4, 12];
    sets[9] = vec![5, 6, 7, 8, 9, 10, 11];
    sets[15] = vec![13, 14, 15];
    let other = MulticastAssignment::from_sets(n, sets).unwrap();
    assert_eq!(
        net.route_replay_into(&other, &plan, &mut scratch)
            .unwrap_err(),
        internal("message from input 9 misdelivered to output 1")
    );

    // Permuted: identity maps for a relabeling (inputs rotated by one),
    // then for the other frame.
    let identity: Vec<usize> = (0..n).collect();
    let rotation: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
    let rotated = relabel_inputs(&asg, &rotation);
    assert_eq!(
        net.route_replay_permuted(&rotated, &plan, &identity, &identity, &mut scratch)
            .unwrap_err(),
        internal("message from input 7 misdelivered to output 4")
    );
    assert_eq!(
        net.route_replay_permuted(&other, &plan, &identity, &identity, &mut scratch)
            .unwrap_err(),
        internal("message from input 9 misdelivered to output 1")
    );
    // The maps that fit the relabeling replay it: live input i entered
    // the plan as input i − 1.
    let inverse: Vec<usize> = (0..n).map(|i| (i + n - 1) % n).collect();
    let fitted = net
        .route_replay_permuted(&rotated, &plan, &inverse, &identity, &mut scratch)
        .unwrap();
    assert_eq!(fitted, net.route(&rotated).unwrap());

    // At n = 256: dense frames, exact and permuted.
    let n = 256;
    let net = Brsmn::new(n).unwrap();
    let mut scratch = RouteScratch::new(n).unwrap();
    let mut rng = Rng(0x0F0E_1A25);
    let asg = dense(n, &mut rng);
    let other = dense(n, &mut rng);
    let (_, plan) = net.route_capture(&asg, &mut scratch).unwrap();
    let identity: Vec<usize> = (0..n).collect();
    let pinned = internal("message from input 81 misdelivered to output 0");
    let exact = net.route_replay_into(&other, &plan, &mut scratch);
    assert_eq!(exact.unwrap_err(), pinned);
    let permuted = net.route_replay_permuted(&other, &plan, &identity, &identity, &mut scratch);
    assert_eq!(permuted.unwrap_err(), pinned);
}
