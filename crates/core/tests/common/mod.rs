//! Helpers shared by `mpq-core`'s integration tests.

use mpq_core::plan::PlanId;

/// FNV-1a over the frontiers at a fixed list of probes: per probe its
/// length, then each plan id and the bits of each cost.
pub fn frontier_digest(frontiers: &[Vec<(PlanId, Vec<f64>)>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for frontier in frontiers {
        mix(frontier.len() as u64);
        for (id, costs) in frontier {
            mix(u64::from(id.0));
            for c in costs {
                mix(c.to_bits());
            }
        }
    }
    h
}
