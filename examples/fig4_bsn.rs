//! Reproduces **Fig. 4b** of the paper: input tags scattered in the first
//! reverse banyan network, then quasisorted in the second, inside one 8×8
//! binary splitting network.
//!
//! The input column is exactly the paper's example: `1, α, ε, 0, ε, α, ε, ε`.
//!
//! Run: `cargo run --example fig4_bsn`

use brsmn::core::{Bsn, SemanticMsg};
use brsmn::switch::{Line, Tag};

fn main() {
    // Destination sets inducing the paper's tag column for an 8-wide BSN
    // (checking the most significant address bit; outputs 0-3 = upper half):
    //   input 0: {4,5}   → 1
    //   input 1: {1,6}   → α
    //   input 3: {0,3}   → 0
    //   input 5: {2,7}   → α
    let mut lines: Vec<Line<SemanticMsg>> = (0..8).map(|_| Line::empty()).collect();
    let inject = |lines: &mut Vec<Line<SemanticMsg>>, src: usize, dests: Vec<usize>| {
        lines[src] = Line {
            tag: Tag::Eps,
            payload: Some(SemanticMsg::new(src, dests)),
        };
    };
    inject(&mut lines, 0, vec![4, 5]);
    inject(&mut lines, 1, vec![1, 6]);
    inject(&mut lines, 3, vec![0, 3]);
    inject(&mut lines, 5, vec![2, 7]);

    let bsn = Bsn::new(8).unwrap();
    let (out, trace) = bsn.route_reference(lines, 0).unwrap();

    let col = |tags: &[Tag]| {
        tags.iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("Fig. 4b — one 8×8 binary splitting network\n");
    println!("inputs:         {}", col(&trace.input_tags));
    println!("after scatter:  {}   (αs eliminated: each α became a 0 and a 1)", col(&trace.after_scatter));
    println!("after quasisort:{}   (0s in the upper half, 1s in the lower)", col(&trace.output_tags));

    // Eq. (4) of the paper on this instance.
    let count = |tags: &[Tag], t: Tag| tags.iter().filter(|&&x| x == t).count();
    let (n0, n1, na) = (
        count(&trace.input_tags, Tag::Zero),
        count(&trace.input_tags, Tag::One),
        count(&trace.input_tags, Tag::Alpha),
    );
    println!("\nEq. (4): n̂0 = n0 + nα = {} + {} = {}", n0, na, n0 + na);
    assert_eq!(count(&trace.output_tags, Tag::Zero), n0 + na);
    assert_eq!(count(&trace.output_tags, Tag::One), n1 + na);

    println!("\nmessages leaving the BSN:");
    for (pos, line) in out.iter().enumerate() {
        if let Some(msg) = &line.payload {
            println!(
                "  port {pos} [{}]: from input {}, remaining destinations {:?}",
                if pos < 4 { "upper" } else { "lower" },
                msg.source,
                msg.dests
            );
        }
    }
}
