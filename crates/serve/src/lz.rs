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
//! output (possibly overlapping itself). Varints are LEB128. Packer and
//! unpacker share a preset dictionary that counts as output preceding the
//! stream, so a match may reach back into it.

/// Hash-table size (log2) of the match finder.
const HASH_BITS: u32 = 12;
/// Shortest match worth encoding.
const MIN_MATCH: usize = 4;
/// Earlier positions with the same 4-byte hash tried per match search.
const CHAIN_DEPTH: usize = 16;
/// End of a hash chain.
const NONE: usize = usize::MAX;

/// Packs `src` against the preset dictionary `dict`: a match may reach
/// back into `dict` as if it preceded `src`, but `dict` itself is not
/// stored. Each position takes the longest of up to [`CHAIN_DEPTH`]
/// candidates, one byte later when the next position starts a longer
/// match (one-step lazy matching).
pub(crate) fn pack(dict: &[u8], src: &[u8]) -> Vec<u8> {
    let buf = [dict, src].concat();
    let mut finder = MatchFinder::new(&buf);
    let mut out = Vec::with_capacity(src.len() / 3);
    let mut anchor = dict.len();
    let mut i = dict.len();
    while i + MIN_MATCH <= buf.len() {
        let Some(mut m) = finder.longest(i) else {
            i += 1;
            continue;
        };
        if let Some(next) = finder.longest(i + 1) {
            if next.len > m.len {
                i += 1;
                m = next;
            }
        }
        push_varint(&mut out, i - anchor);
        out.extend_from_slice(&buf[anchor..i]);
        push_varint(&mut out, m.len - (MIN_MATCH - 1));
        push_varint(&mut out, m.offset);
        i += m.len;
        anchor = i;
    }
    push_varint(&mut out, buf.len() - anchor);
    out.extend_from_slice(&buf[anchor..]);
    push_varint(&mut out, 0);
    out
}

/// A match of `len` bytes starting `offset` bytes back.
struct Match {
    len: usize,
    offset: usize,
}

/// Hash chains over the 4-byte prefixes of `src`: `head[h]` is the latest
/// position with hash `h`, `prev[p]` the one before `p`. Every position
/// below `inserted` is chained, nearest first.
struct MatchFinder<'a> {
    src: &'a [u8],
    head: Vec<usize>,
    prev: Vec<usize>,
    inserted: usize,
}

impl<'a> MatchFinder<'a> {
    fn new(src: &'a [u8]) -> Self {
        MatchFinder {
            src,
            head: vec![NONE; 1 << HASH_BITS],
            prev: vec![NONE; src.len().saturating_sub(MIN_MATCH - 1)],
            inserted: 0,
        }
    }

    fn hash(&self, i: usize) -> usize {
        let s = self.src;
        let word = u32::from_le_bytes([s[i], s[i + 1], s[i + 2], s[i + 3]]);
        (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    /// The longest match for position `i` (nearest on ties) against the
    /// positions before it, if one reaches [`MIN_MATCH`]. Positions must
    /// be asked for in increasing order; `i` must leave [`MIN_MATCH`]
    /// bytes, or the answer is `None`.
    fn longest(&mut self, i: usize) -> Option<Match> {
        let src = self.src;
        if i + MIN_MATCH > src.len() {
            return None;
        }
        while self.inserted < i {
            let h = self.hash(self.inserted);
            self.prev[self.inserted] = std::mem::replace(&mut self.head[h], self.inserted);
            self.inserted += 1;
        }
        let mut best: Option<Match> = None;
        let mut cand = self.head[self.hash(i)];
        for _ in 0..CHAIN_DEPTH {
            if cand == NONE {
                break;
            }
            // A candidate that differs at the best length so far cannot
            // beat it. (`i + best.len` is in bounds: a match reaching the
            // end stops the search.)
            if best
                .as_ref()
                .is_some_and(|b| src[cand + b.len] != src[i + b.len])
            {
                cand = self.prev[cand];
                continue;
            }
            let len = common_prefix(&src[i..], &src[cand..]);
            if len >= MIN_MATCH && best.as_ref().is_none_or(|b| len > b.len) {
                best = Some(Match {
                    len,
                    offset: i - cand,
                });
                if i + len == src.len() {
                    break;
                }
            }
            cand = self.prev[cand];
        }
        best
    }
}

/// Length of the common prefix of `a` and `b`, eight bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("an 8-byte chunk"));
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Unpacks the output of [`pack`] with the same `dict` into `out`
/// (cleared first, so a reused buffer stops allocating once it has grown
/// to the largest frame) and returns the unpacked bytes: `out` holds
/// `dict` followed by them.
pub(crate) fn unpack_into<'a>(dict: &[u8], packed: &[u8], out: &'a mut Vec<u8>) -> &'a [u8] {
    out.clear();
    out.extend_from_slice(dict);
    let mut pos = 0;
    loop {
        let literals = read_varint(packed, &mut pos);
        out.extend_from_slice(&packed[pos..pos + literals]);
        pos += literals;
        let code = read_varint(packed, &mut pos);
        if code == 0 {
            return &out[dict.len()..];
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
    use proptest::prelude::*;

    fn roundtrip(src: &[u8]) -> usize {
        roundtrip_with(b"", src)
    }

    fn roundtrip_with(dict: &[u8], src: &[u8]) -> usize {
        let packed = pack(dict, src);
        let mut out = vec![1, 2, 3];
        assert_eq!(unpack_into(dict, &packed, &mut out), src);
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

    #[test]
    fn a_dictionary_replaces_first_occurrences() {
        let dict = br#"{"strategy":"","order":[],"checkpoints":[],"best_n":null}"#;
        let src = br#"[{"strategy":"DF-CkptW","order":[2,0,1],"checkpoints":[],"best_n":null}]"#;
        let plain = roundtrip(src);
        let with = roundtrip_with(dict, src);
        assert!(
            with + 20 < plain,
            "{with} B with the dictionary, {plain} B without"
        );
    }

    /// JSON fragments of the kind a cached answer frame repeats.
    const JSON_TOKENS: [&str; 12] = [
        r#"{"Cell":{"header":["#,
        r#""workflow","n","lambda","#,
        r#"["CyberShake","50","1e-3","#,
        r#""DF-CkptW","#,
        r#""BF-CkptPer","#,
        "1461.012556",
        "0.",
        "],",
        "[",
        r#"{"order":[3,1,4,1,5],"checkpointed":[true,false]}"#,
        ",",
        r#""cached":true}}"#,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_bytes_roundtrip(
            src in collection::vec(0u8..=255, 0..3000),
            dict in collection::vec(0u8..=255, 0..300),
        ) {
            roundtrip(&src);
            roundtrip_with(&dict, &src);
        }

        #[test]
        fn small_alphabet_bytes_roundtrip(src in collection::vec(0u8..4, 0..3000)) {
            roundtrip(&src);
        }

        #[test]
        fn json_like_text_roundtrips(
            tokens in collection::vec(0usize..JSON_TOKENS.len(), 0..600),
            digits in collection::vec(0u32..1_000_000, 0..600),
        ) {
            let mut text = String::new();
            for (k, &t) in tokens.iter().enumerate() {
                text.push_str(JSON_TOKENS[t]);
                if let Some(d) = digits.get(k) {
                    text.push_str(&d.to_string());
                }
            }
            roundtrip(text.as_bytes());
            roundtrip_with(JSON_TOKENS.concat().as_bytes(), text.as_bytes());
        }
    }
}
