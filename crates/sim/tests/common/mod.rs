//! What the simulator-vs-bound tests share: the packetization slack a
//! packet-level run may exceed the fluid bound by.

/// Packetization slack: per hop one non-preemption block plus one
/// quantization packet.
pub fn slack(hops: usize, packet_bits: f64, capacity: f64) -> f64 {
    hops as f64 * 2.0 * packet_bits / capacity
}
