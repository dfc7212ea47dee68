//! Order statistics and the decision digest the checks compare.

/// Median of `values` (mean of the two middle elements for even
/// counts); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`): the smallest sample with
/// at least `q` of the samples at or below it; `0.0` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over a stream of decision bytes. Decisions are folded in one
/// at a time inside the replay loops, so the step is a xor and a
/// multiply and keeps no buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline(always)]
    pub fn push(&mut self, byte: u8) {
        self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_on_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.5), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn fnv_matches_reference_and_sees_one_flipped_bit() {
        // FNV-1a 64 of "a" is af63dc4c8601ec8c.
        let mut h = Fnv::new();
        h.push(b'a');
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        for bit in [1u8, 0, 1, 1] {
            a.push(bit);
        }
        for bit in [1u8, 0, 0, 1] {
            b.push(bit);
        }
        assert_ne!(a, b);
    }
}
