//! The byte mutator shared by the fuzz tests of the v1 loader and the
//! Google converter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes the mutator favours: the formats' separators, number syntax and
/// JSON punctuation, plus a byte that is never valid UTF-8.
const ALPHABET: &[u8] = b"0123456789,;.-+eE \n\r\"{}:naif\xff";

/// `fixture` with one to eight random edits, drawn from `seed`: byte
/// overwrites, insertions and deletions, runs of digits and duplicated
/// slices.
pub fn mutate(fixture: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = fixture.to_vec();
    for _ in 0..rng.gen_range(1..=8u32) {
        let at = rng.gen_range(0..bytes.len());
        let byte = if rng.gen_bool(0.75) {
            ALPHABET[rng.gen_range(0..ALPHABET.len())]
        } else {
            rng.gen_range(0..=u8::MAX)
        };
        match rng.gen_range(0..5u32) {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 => {
                bytes.remove(at);
            }
            3 => {
                // Integers past every column's range.
                let digits: Vec<u8> = (0..rng.gen_range(1..=24u32))
                    .map(|_| b'0' + rng.gen_range(0..10u8))
                    .collect();
                bytes.splice(at..at, digits);
            }
            _ => {
                // Repeated rows, ids and separators.
                let from = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(0..=64usize).min(bytes.len() - from);
                let slice = bytes[from..from + len].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    bytes
}
