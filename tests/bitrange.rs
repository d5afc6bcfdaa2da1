//! The bit-range moves — `SignVec::slice`, `assign_slice_of`, `splice` —
//! against a per-bit reference, at every offset within a word.
//!
//! All three are one word-parallel kernel (DESIGN.md §7); the collectives
//! cut segments wherever `d/m` falls, so a wrong mask at one `start % 64`
//! would corrupt consensus bits on exactly the shapes the goldens do not
//! cover. The reference below moves one bit at a time through the public
//! `get`/`set`.

use marsit::prelude::*;
use proptest::prelude::*;

const WORD: usize = 64;

/// Vector lengths of one to four words, on and around each word boundary.
const LENS: [usize; 12] = [1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256];

/// Range lengths on and around each word boundary.
const COUNTS: [usize; 13] = [0, 1, 2, 31, 63, 64, 65, 127, 128, 129, 191, 192, 193];

fn random_vec(len: usize, seed: u64) -> SignVec {
    SignVec::bernoulli_uniform(len, 0.5, &mut FastRng::new(seed, len as u64))
}

fn slice_per_bit(v: &SignVec, start: usize, count: usize) -> SignVec {
    (0..count).map(|i| v.get(start + i)).collect()
}

fn splice_per_bit(dst: &SignVec, start: usize, patch: &SignVec) -> SignVec {
    let mut out = dst.clone();
    for i in 0..patch.len() {
        out.set(start + i, patch.get(i));
    }
    out
}

/// `⌈len/64⌉` words, and no bit set at or above `len`.
fn assert_tail_invariant(v: &SignVec, label: &str) {
    assert_eq!(v.as_words().len(), v.len().div_ceil(WORD), "{label}: words");
    let rem = v.len() % WORD;
    if rem != 0 {
        let last = v.as_words()[v.len() / WORD];
        assert_eq!(last >> rem, 0, "{label}: bits above len");
    }
}

/// Every check for one `(v, start, count)`; `SignVec`'s `==` compares the
/// length and every word, so a stale word or a dirty tail fails it.
fn check_range(v: &SignVec, start: usize, count: usize) {
    let label = format!("len={} start={start} count={count}", v.len());
    let want = slice_per_bit(v, start, count);

    let got = v.slice(start, count);
    assert_eq!(got, want, "slice {label}");
    assert_tail_invariant(&got, &label);

    // A reused destination: longer, shorter, all ones — nothing may leak.
    for dirty_len in [0, 1, count + 70, 300] {
        let mut reused = SignVec::ones(dirty_len);
        reused.assign_slice_of(v, start, count);
        assert_eq!(reused, want, "assign_slice_of {label} dirty={dirty_len}");
        assert_tail_invariant(&reused, &label);
    }

    // Splice onto all-ones and all-zeros catches a mask that clears or
    // sets a neighbour; onto the complement, every bit is told apart.
    let patch = random_vec(count, 0xb17 + start as u64);
    for dst in [SignVec::ones(v.len()), SignVec::zeros(v.len()), v.not()] {
        let mut spliced = dst.clone();
        spliced.splice(start, &patch);
        assert_eq!(
            spliced,
            splice_per_bit(&dst, start, &patch),
            "splice {label}"
        );
        assert_tail_invariant(&spliced, &label);
    }

    let mut round_trip = v.not();
    round_trip.splice(start, &got);
    for i in 0..v.len() {
        let inside = (start..start + count).contains(&i);
        assert_eq!(
            round_trip.get(i) == v.get(i),
            inside,
            "round trip {label} bit {i}"
        );
    }
    let mut same = v.clone();
    same.splice(start, &got);
    assert_eq!(&same, v, "splice(slice) is the identity, {label}");
}

#[test]
fn every_offset_matches_the_per_bit_reference() {
    for len in LENS {
        let v = random_vec(len, 7);
        for start in 0..=len {
            let to_end = len - start;
            for count in COUNTS.into_iter().filter(|&c| c < to_end) {
                check_range(&v, start, count);
            }
            check_range(&v, start, to_end);
        }
    }
}

/// The shape the segmented collectives produce: consecutive ragged
/// segments cut out of one vector and spliced back into another.
#[test]
fn ragged_segments_reassemble() {
    for (d, m) in [(1031usize, 7usize), (257, 8), (200, 6), (129, 8), (5, 7)] {
        let v = random_vec(d, 11);
        let mut rebuilt = v.not();
        let mut start = 0;
        for s in 0..m {
            let len = d / m + usize::from(s < d % m);
            rebuilt.splice(start, &v.slice(start, len));
            start += len;
        }
        assert_eq!(rebuilt, v, "d={d} m={m}");
    }
}

#[test]
#[should_panic(expected = "slice out of bounds")]
fn slice_past_the_end_panics() {
    let _ = SignVec::zeros(100).slice(37, 64);
}

#[test]
#[should_panic(expected = "splice out of bounds")]
fn splice_past_the_end_panics() {
    SignVec::zeros(100).splice(37, &SignVec::zeros(64));
}

proptest! {
    #[test]
    fn random_ranges_match_the_per_bit_reference(
        len in 1usize..2000,
        a in any::<u64>(),
        b in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let start = a as usize % (len + 1);
        let count = b as usize % (len - start + 1);
        check_range(&random_vec(len, seed), start, count);
    }
}
