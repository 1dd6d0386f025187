//! A minimal LZ77 byte packer for cached hit frames.
//!
//! Answer frames repeat themselves heavily: every schedule of one
//! linearization carries the same task order, and every row starts with
//! the same workflow/size/λ cells. Packing a frame typically shrinks it
//! to under a third, and unpacking costs a few microseconds, so the cache
//! can hold three times as many answers in the same memory.
//!
//! Format — a sequence of blocks, each
//!
//! ```text
//! varint(literal_len) ++ literal bytes ++ varint(match_len − 3) [++ varint(offset)]
//! ```
//!
//! where a `match_len − 3` of 0 ends the stream (no offset follows) and a
//! match copies `match_len ≥ 4` bytes starting `offset` bytes back in the
//! output (possibly overlapping itself). Varints are LEB128.

/// Hash-table size (log2) of the match finder.
const HASH_BITS: u32 = 12;
/// Shortest match worth encoding.
const MIN_MATCH: usize = 4;

/// Packs `src` (greedy, one candidate per 4-byte hash bucket).
pub(crate) fn pack(src: &[u8]) -> Vec<u8> {
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut out = Vec::with_capacity(src.len() / 3);
    let mut anchor = 0;
    let mut i = 0;
    while i + MIN_MATCH <= src.len() {
        let word = u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]]);
        let bucket = (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize;
        let cand = std::mem::replace(&mut table[bucket], i);
        if cand == usize::MAX || src[cand..cand + MIN_MATCH] != src[i..i + MIN_MATCH] {
            i += 1;
            continue;
        }
        let mut len = MIN_MATCH;
        while i + len < src.len() && src[cand + len] == src[i + len] {
            len += 1;
        }
        push_varint(&mut out, i - anchor);
        out.extend_from_slice(&src[anchor..i]);
        push_varint(&mut out, len - (MIN_MATCH - 1));
        push_varint(&mut out, i - cand);
        i += len;
        anchor = i;
    }
    push_varint(&mut out, src.len() - anchor);
    out.extend_from_slice(&src[anchor..]);
    push_varint(&mut out, 0);
    out
}

/// Unpacks the output of [`pack`] into `out` (cleared first, so a reused
/// buffer stops allocating once it has grown to the largest frame).
pub(crate) fn unpack_into(packed: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let mut pos = 0;
    loop {
        let literals = read_varint(packed, &mut pos);
        out.extend_from_slice(&packed[pos..pos + literals]);
        pos += literals;
        let code = read_varint(packed, &mut pos);
        if code == 0 {
            return;
        }
        let len = code + MIN_MATCH - 1;
        let start = out.len() - read_varint(packed, &mut pos);
        if start + len <= out.len() {
            out.extend_from_within(start..start + len);
        } else {
            // Overlapping match: a run that repeats its own output.
            for k in start..start + len {
                out.push(out[k]);
            }
        }
    }
}

fn push_varint(out: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(src: &[u8], pos: &mut usize) -> usize {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = src[*pos];
        *pos += 1;
        v |= usize::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &[u8]) -> usize {
        let packed = pack(src);
        let mut out = vec![1, 2, 3];
        unpack_into(&packed, &mut out);
        assert_eq!(out, src);
        packed.len()
    }

    #[test]
    fn short_empty_and_incompressible_inputs_roundtrip() {
        for src in [&b""[..], b"a", b"abc", b"abcd", b"abcdabcd"] {
            roundtrip(src);
        }
        // Pseudo-random bytes: nothing to match, still lossless.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let noise: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&noise);
    }

    #[test]
    fn repetitive_inputs_shrink_and_roundtrip() {
        // Overlapping matches (a run repeating its own output).
        assert!(roundtrip(&[b'x'; 10_000]) < 64);
        let row = br#"["CyberShake","50","1e-3","c=0.1w","DF-CkptW","1461.012556"],"#;
        let text: Vec<u8> = row.iter().copied().cycle().take(50_000).collect();
        assert!(roundtrip(&text) < text.len() / 20);
        // Long offsets and multibyte text.
        let mut mixed = "naïve café — 日本語 ".repeat(3000).into_bytes();
        mixed.extend((0..=255u8).cycle().take(70_000));
        mixed.extend_from_slice(&mixed.clone()[..1000]);
        roundtrip(&mixed);
    }
}
