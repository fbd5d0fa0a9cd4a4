//! Chunked 8-lane merge/compare kernels over `u64` lanes.
//!
//! These are the scalar-code-shaped inner loops behind
//! [`VectorTime::merge_max`] and [`VectorTime::compare`], the dense
//! clock's merge and comparison, and behind the precedence tests of
//! [`MessageTimestamps`], which compare two rows of its flat table: each
//! walks its input in chunks of exactly eight lanes (`chunks_exact`)
//! with an exact-remainder tail, which is the shape LLVM reliably
//! autovectorizes on stable Rust without any nightly features, `unsafe`,
//! or per-target intrinsics. The fixed trip count inside a chunk removes
//! the loop-carried bounds checks and lets the backend pick whatever SIMD
//! width the target offers.
//!
//! Semantics are bit-for-bit identical to the straightforward scalar
//! loops they replaced, so every [`Clock`] backend stays byte-identical
//! under the cross-backend differential battery.
//!
//! [`VectorTime::merge_max`]: crate::VectorTime::merge_max
//! [`VectorTime::compare`]: crate::VectorTime::compare
//! [`MessageTimestamps`]: crate::MessageTimestamps
//! [`Clock`]: crate::Clock

/// Lanes per vectorized chunk.
const LANES: usize = 8;

/// Component-wise maximum: `dst[i] = max(dst[i], src[i])` for all lanes.
///
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length; callers
/// validate dimensions before reaching the kernel.
#[inline]
pub fn merge_max_lanes(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let split = dst.len() - dst.len() % LANES;
    let (dst_body, dst_tail) = dst.split_at_mut(split);
    let (src_body, src_tail) = src.split_at(split);
    for (d, s) in dst_body
        .chunks_exact_mut(LANES)
        .zip(src_body.chunks_exact(LANES))
    {
        for i in 0..LANES {
            d[i] = d[i].max(s[i]);
        }
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d = (*d).max(*s);
    }
}

/// Vector-order comparison skeleton: returns `(some_less, some_greater)`
/// where `some_less` means `a[i] < b[i]` for at least one lane and
/// `some_greater` means `a[i] > b[i]` for at least one lane.
///
/// The per-chunk accumulation is branchless (`|=` of lane predicates);
/// the only branch is a per-chunk early exit once both flags are set,
/// at which point the answer (`Concurrent`) can no longer change.
///
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length.
#[inline]
pub fn compare_lanes(a: &[u64], b: &[u64]) -> (bool, bool) {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let mut some_less = false;
    let mut some_greater = false;
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        let mut less = false;
        let mut greater = false;
        for i in 0..LANES {
            less |= ca[i] < cb[i];
            greater |= ca[i] > cb[i];
        }
        some_less |= less;
        some_greater |= greater;
        if some_less && some_greater {
            return (true, true);
        }
    }
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        some_less |= x < y;
        some_greater |= x > y;
    }
    (some_less, some_greater)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementations: the pre-kernel scalar loops.
    fn merge_ref(dst: &mut [u64], src: &[u64]) {
        for (a, b) in dst.iter_mut().zip(src) {
            *a = (*a).max(*b);
        }
    }

    fn compare_ref(a: &[u64], b: &[u64]) -> (bool, bool) {
        let mut less = false;
        let mut greater = false;
        for (x, y) in a.iter().zip(b) {
            less |= x < y;
            greater |= x > y;
        }
        (less, greater)
    }

    fn pseudo(seed: u64, len: usize) -> Vec<u64> {
        // splitmix64 stream — deterministic, covers equal/less/greater lanes.
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % 5
            })
            .collect()
    }

    #[test]
    fn merge_matches_reference_at_every_length() {
        for len in 0..=67 {
            let a = pseudo(len as u64, len);
            let b = pseudo(len as u64 + 1000, len);
            let mut kernel = a.clone();
            let mut reference = a.clone();
            merge_max_lanes(&mut kernel, &b);
            merge_ref(&mut reference, &b);
            assert_eq!(kernel, reference, "len={len}");
        }
    }

    #[test]
    fn compare_matches_reference_at_every_length() {
        for len in 0..=67 {
            for (sa, sb) in [(1, 2), (3, 3), (7, 11)] {
                let a = pseudo(sa + len as u64, len);
                let b = pseudo(sb + len as u64, len);
                assert_eq!(compare_lanes(&a, &b), compare_ref(&a, &b), "len={len}");
            }
        }
    }

    #[test]
    fn compare_directed_cases() {
        assert_eq!(compare_lanes(&[], &[]), (false, false));
        assert_eq!(compare_lanes(&[1; 9], &[1; 9]), (false, false));
        assert_eq!(compare_lanes(&[0; 17], &[1; 17]), (true, false));
        assert_eq!(compare_lanes(&[2; 17], &[1; 17]), (false, true));
        let mut a = vec![1u64; 16];
        let mut b = vec![1u64; 16];
        a[0] = 0; // less in chunk 0
        b[15] = 0; // greater in chunk 1
        assert_eq!(compare_lanes(&a, &b), (true, true));
        // Divergence only in the tail.
        let a = [1u64, 1, 1, 1, 1, 1, 1, 1, 0];
        let b = [1u64, 1, 1, 1, 1, 1, 1, 1, 2];
        assert_eq!(compare_lanes(&a, &b), (true, false));
    }
}
