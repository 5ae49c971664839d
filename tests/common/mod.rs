//! What the golden tests record of a netlist.

use mrpf::arch::AdderGraph;

/// FNV-1a-64 of the netlist's nodes and outputs, so any change to a
/// synthesized netlist — not only to its adder count — changes it.
pub fn netlist_digest(g: &AdderGraph) -> u64 {
    let text = format!("{:?}{:?}", g.nodes(), g.outputs());
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
