//! The workspace's two hash functions, both FNV-1a 64 at heart.
//!
//! * [`fnv64`] is the byte-at-a-time FNV-1a 64 of the reference
//!   implementation: stable across platforms and releases, so it is the
//!   one for **anything persisted or compared across builds** —
//!   checkpoint manifests, workload bindings, golden files.
//! * [`fnv64_words`] folds little-endian 8-byte words in four independent
//!   lanes, so it runs at close to memory bandwidth. Its output is not
//!   the reference FNV-1a and may change with this crate: use it for
//!   **in-memory comparison only**, where both digests are computed by
//!   the same build in the same run — the verified handoff's chunk digest
//!   and the arena scrub.
//!
//! Neither is collision-resistant against an adversary; they detect
//! corruption and drift, nothing more. Kept in `cascade-core` so every
//! producer and consumer of a digest agrees on the same bytes-to-sum
//! mapping by construction.

/// FNV-1a 64 offset basis: the starting state of [`fnv64`], and the
/// usual first `h` of a [`fnv64_words`] chain.
pub const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime. Odd, so multiplying by it is a bijection mod 2^64.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Starting states of [`fnv64_words`]' lanes 1 to 3 (lane 0 starts at
/// the caller's `h`). Distinct odd constants, so lanes that see the same
/// words still end in different states.
const LANE_SEEDS: [u64; 3] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
];

/// FNV-1a 64 of `bytes` (offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`).
///
/// ```
/// // The standard FNV-1a 64 test vectors.
/// assert_eq!(cascade_core::fnv64(b""), 0xcbf29ce484222325);
/// assert_eq!(cascade_core::fnv64(b"a"), 0xaf63dc4c8601ec8c);
/// assert_eq!(cascade_core::fnv64(b"foobar"), 0x85944171f73967e8);
/// ```
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_BASIS;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// One FNV-1a step over a whole word: a bijection of `h` for fixed `w`,
/// and of `w` for fixed `h`.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV64_PRIME)
}

#[inline(always)]
fn word(w: &[u8]) -> u64 {
    u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"))
}

/// Word-wise FNV-1a of `bytes`, continuing from state `h` (start a chain
/// at [`FNV64_BASIS`]; feed the result back in as `h` to digest several
/// slices as one).
///
/// Every 32-byte block contributes its four little-endian words to four
/// independent lanes (lane 0 starts at `h`, lanes 1 to 3 at fixed seeds),
/// so four multiplies are in flight at once instead of one. The lanes
/// are then folded into one state in order, and the remaining whole
/// words and then bytes are folded into that state one step each. Word
/// loads are `from_le_bytes` on chunks, so any alignment is fine.
///
/// Every step is a bijection of the state it updates, and the final
/// fold is a bijection of each lane. Hence, for inputs of one length:
///
/// * a change confined to one 8-byte word of `bytes` (counted from its
///   start) — in particular every single-bit or single-byte flip —
///   changes the digest with certainty, not just with high probability;
/// * a different `h` gives a different digest, so a change anywhere in
///   an earlier slice of a chain survives every later slice.
///
/// Inputs of different lengths are not separated that way (the tail is
/// folded like FNV-1a, without a length), which in-memory comparison of
/// one footprint against itself never needs. The output is not
/// [`fnv64`]'s and is not stable across releases: never persist it.
///
/// ```
/// use cascade_core::hash::{fnv64_words, FNV64_BASIS};
/// let mut bytes = vec![0u8; 100];
/// let before = fnv64_words(FNV64_BASIS, &bytes);
/// bytes[57] ^= 0x10;
/// assert_ne!(fnv64_words(FNV64_BASIS, &bytes), before);
/// // Chaining two slices equals neither alone.
/// let chained = fnv64_words(fnv64_words(FNV64_BASIS, &bytes[..40]), &bytes[40..]);
/// assert_ne!(chained, fnv64_words(FNV64_BASIS, &bytes[40..]));
/// ```
pub fn fnv64_words(h: u64, bytes: &[u8]) -> u64 {
    let mut blocks = bytes.chunks_exact(32);
    let mut lanes = [h, LANE_SEEDS[0], LANE_SEEDS[1], LANE_SEEDS[2]];
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = step(h, lane);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w));
    }
    for &b in words.remainder() {
        h = step(h, b as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::{fnv64, fnv64_words, FNV64_BASIS};

    #[test]
    fn matches_reference_vectors() {
        // From the FNV reference implementation's test suite.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn is_byte_order_sensitive() {
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
        assert_ne!(fnv64(b"\x00"), fnv64(b""));
    }

    /// Bytes `0, 1, 2, ...` scrambled so that no word repeats.
    fn buffer(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(157) ^ 0x5a)
            .collect()
    }

    #[test]
    fn words_pinned_vectors_at_lane_and_tail_boundaries() {
        // Lengths around the 8-byte word and the 32-byte block: empty,
        // bytes only, one word, block minus a byte, one block, block plus
        // a byte, block plus a word. Pinned so a change to the lane
        // schedule is a deliberate one.
        let pinned: [(usize, u64); 7] = [
            (0, 0xa601_57b1_e8a1_d1fc),
            (7, 0x728c_c67d_ba51_d0d5),
            (8, 0x5696_48d9_e719_7c12),
            (31, 0x835f_bdfd_405c_1feb),
            (32, 0xa932_010b_4784_8dac),
            (33, 0x0485_1c2a_863c_2922),
            (40, 0x0f0a_69f3_265a_3022),
        ];
        for (len, want) in pinned {
            let got = fnv64_words(FNV64_BASIS, &buffer(len));
            assert_eq!(got, want, "len {len}: got {got:#018x}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_words_digest() {
        for len in 0..=80 {
            let mut bytes = buffer(len);
            let clean = fnv64_words(FNV64_BASIS, &bytes);
            for i in 0..len {
                for bit in 0..8 {
                    bytes[i] ^= 1 << bit;
                    assert_ne!(
                        fnv64_words(FNV64_BASIS, &bytes),
                        clean,
                        "len {len}: flipping bit {bit} of byte {i} went unseen"
                    );
                    bytes[i] ^= 1 << bit;
                }
            }
            assert_eq!(fnv64_words(FNV64_BASIS, &bytes), clean);
        }
    }

    #[test]
    fn words_digest_depends_on_the_starting_state() {
        // A chain keeps a change in an earlier slice alive through a
        // later one, however short.
        for len in [0, 3, 8, 32, 45] {
            let bytes = buffer(len);
            assert_ne!(
                fnv64_words(FNV64_BASIS, &bytes),
                fnv64_words(FNV64_BASIS ^ 1, &bytes),
                "len {len}"
            );
        }
    }

    #[test]
    fn words_lanes_are_not_interchangeable() {
        // Swapping the first two words of every block swaps what lanes 0
        // and 1 see; the ordered fold must still tell the two apart.
        let a = buffer(64);
        let mut b = a.clone();
        for block in b.chunks_exact_mut(32) {
            let (w0, rest) = block.split_at_mut(8);
            w0.swap_with_slice(&mut rest[..8]);
        }
        assert_ne!(fnv64_words(FNV64_BASIS, &a), fnv64_words(FNV64_BASIS, &b));
    }
}
