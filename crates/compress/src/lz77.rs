//! Shared LZ77 match-finding machinery.
//!
//! Provides a hash-chain match finder with configurable search depth and a
//! greedy/lazy tokenizer producing a stream of [`Token`]s. lzo and lzo-rle
//! drive the finder directly; the entropy-coded codecs (deflate, zstd-lite)
//! go through [`tokenize`]. Only lz4 and lz4hc keep their own finders (a
//! single-probe table and a lazy chain parser over the lz4 format).

/// Minimum match length considered by the shared finder.
pub const MIN_MATCH: usize = 3;

/// A parsed LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Match length (>= [`MIN_MATCH`]).
        len: u32,
        /// Backward distance (>= 1).
        dist: u32,
    },
}

/// Hash-chain match finder over a single input buffer.
///
/// The hash-head and chain tables are taken from a thread-local scratch pool
/// so that per-page compression (the zswap hot path) performs no heap
/// allocation after warm-up.
///
/// Every position is visited through [`MatchFinder::find_and_insert`], which
/// hashes it once for both the search and the chain insert, or through
/// [`MatchFinder::insert`] for positions inside an emitted match.
#[derive(Debug)]
pub struct MatchFinder<'a> {
    src: &'a [u8],
    head: Vec<i32>,
    prev: Vec<i32>,
    window: usize,
    max_chain: usize,
    max_match: usize,
    hash_bits: u32,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<(Vec<i32>, Vec<i32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl<'a> MatchFinder<'a> {
    /// Create a finder over `src`.
    ///
    /// * `window` — maximum backward distance.
    /// * `max_chain` — chain probes per position (search effort).
    /// * `max_match` — longest match to report (at least [`MIN_MATCH`]).
    pub fn new(src: &'a [u8], window: usize, max_chain: usize, max_match: usize) -> Self {
        debug_assert!(max_match >= MIN_MATCH);
        // Small inputs (pages) get a small table: cheaper to reset.
        let hash_bits = if src.len() <= 4096 { 12 } else { 15 };
        let (mut head, mut prev) = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        head.clear();
        head.resize(1 << hash_bits, -1);
        // `prev[p]` is written when `p` is inserted, before any chain can
        // reach `p`, so stale entries from an earlier input are never read.
        prev.resize(src.len(), -1);
        MatchFinder {
            src,
            head,
            prev,
            window,
            max_chain,
            max_match,
            hash_bits,
        }
    }

    /// Hash of the [`MIN_MATCH`] bytes at `pos`, or `None` when fewer
    /// remain: such a position can neither match nor be matched.
    #[inline]
    fn hash(&self, pos: usize) -> Option<usize> {
        let b = self.src.get(pos..pos + MIN_MATCH)?;
        let v = (b[0] as u32) | ((b[1] as u32) << 8) | ((b[2] as u32) << 16);
        Some(((v.wrapping_mul(0x9E37_79B1)) >> (32 - self.hash_bits)) as usize)
    }

    /// Insert position `pos` into the chains (a no-op with fewer than
    /// [`MIN_MATCH`] bytes left).
    #[inline]
    pub fn insert(&mut self, pos: usize) {
        if let Some(h) = self.hash(pos) {
            self.prev[pos] = self.head[h];
            self.head[h] = pos as i32;
        }
    }

    /// Find the best match at `pos` among the positions inserted so far,
    /// then insert `pos`, hashing it once for both. Returns `(len, dist)`,
    /// or `None` when no match of at least [`MIN_MATCH`] bytes exists.
    #[inline]
    pub fn find_and_insert(&mut self, pos: usize) -> Option<(u32, u32)> {
        let h = self.hash(pos)?;
        let cand = self.head[h];
        self.prev[pos] = cand;
        self.head[h] = pos as i32;
        self.probe(pos, cand)
    }

    /// Walk the chain from `cand` for the longest match at `pos`. All
    /// per-position bounds are settled before the loop: `pos` has at least
    /// [`MIN_MATCH`] bytes left, and the window floor `lo >= 0` also stops
    /// the walk at the end-of-chain marker `-1`.
    #[inline]
    fn probe(&self, pos: usize, mut cand: i32) -> Option<(u32, u32)> {
        let src = self.src;
        let max_len = (src.len() - pos).min(self.max_match);
        let lo = pos.saturating_sub(self.window) as i32;
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0u32;
        let mut chain = self.max_chain;
        // Invariant: best_len < max_len (the walk stops on a maximal match).
        while cand >= lo && chain > 0 {
            let c = cand as usize;
            debug_assert!(c < pos);
            // Quick reject: compare the byte just past the current best.
            if src[c + best_len] == src[pos + best_len] {
                let len = common_prefix(src, c, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = (pos - c) as u32;
                    if len >= max_len {
                        break;
                    }
                }
            }
            cand = self.prev[c];
            chain -= 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len as u32, best_dist))
        } else {
            None
        }
    }
}

/// Append `len` bytes copied from `dist` bytes back in `dst` (LZ77 match
/// semantics). Non-overlapping copies go through one `extend_from_within`
/// memcpy; overlapping copies double the replicated span each round, so an
/// RLE-style distance-1 match of length N costs `O(log N)` memcpys.
///
/// The caller must have validated `0 < dist <= dst.len()`.
#[inline]
pub fn copy_match(dst: &mut Vec<u8>, dist: usize, len: usize) {
    debug_assert!(dist > 0 && dist <= dst.len());
    let mut remaining = len;
    let mut avail = dist;
    while remaining > 0 {
        let n = remaining.min(avail);
        let start = dst.len() - avail;
        dst.extend_from_within(start..start + n);
        remaining -= n;
        avail += n;
    }
}

impl Drop for MatchFinder<'_> {
    fn drop(&mut self) {
        // Return the tables to the thread-local pool for the next page.
        let head = std::mem::take(&mut self.head);
        let prev = std::mem::take(&mut self.prev);
        SCRATCH.with(|s| *s.borrow_mut() = (head, prev));
    }
}

/// Length of the common prefix of `src[a..]` and `src[b..]`, capped at `max`.
#[inline]
pub fn common_prefix(src: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut n = 0;
    // Word-at-a-time comparison; the tail is handled bytewise.
    while n + 8 <= max {
        let x = u64::from_le_bytes(src[a + n..a + n + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(src[b + n..b + n + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && src[a + n] == src[b + n] {
        n += 1;
    }
    n
}

/// Tokenize `src` with a lazy one-step-lookahead parse.
///
/// `window`/`max_chain`/`max_match` tune effort; `lazy` enables the
/// one-position deferral that deflate-style compressors use.
pub fn tokenize(
    src: &[u8],
    window: usize,
    max_chain: usize,
    max_match: usize,
    lazy: bool,
) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(src.len() / 2);
    if src.len() < MIN_MATCH + 1 {
        tokens.extend(src.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    let mut mf = MatchFinder::new(src, window, max_chain, max_match);
    let mut pos = 0usize;
    while pos < src.len() {
        let Some(cur) = mf.find_and_insert(pos) else {
            tokens.push(Token::Literal(src[pos]));
            pos += 1;
            continue;
        };
        let mut take = cur;
        // Next position to insert once the match is emitted.
        let mut next = pos + 1;
        if lazy {
            // Search `pos + 1` before inserting it. Whether or not the
            // deferral wins, `pos + 1` is the next position inserted, so the
            // fused step does both.
            next += 1;
            if let Some(ahead) = mf.find_and_insert(pos + 1) {
                if ahead.0 > cur.0 + 1 {
                    // Deferring wins: emit a literal, take next match.
                    tokens.push(Token::Literal(src[pos]));
                    pos += 1;
                    take = ahead;
                }
            }
        }
        tokens.push(Token::Match {
            len: take.0,
            dist: take.1,
        });
        let end = (pos + take.0 as usize).min(src.len());
        while next < end {
            mf.insert(next);
            next += 1;
        }
        pos = end;
    }
    tokens
}

/// Reconstruct the original bytes from a token stream.
///
/// # Errors
///
/// Returns [`crate::CodecError::Corrupt`] if a match references data before
/// the start of output.
pub fn detokenize(tokens: &[Token], dst: &mut Vec<u8>) -> crate::Result<()> {
    for &t in tokens {
        match t {
            Token::Literal(b) => dst.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                if dist == 0 || dist > dst.len() {
                    return Err(crate::CodecError::Corrupt("match distance out of range"));
                }
                copy_match(dst, dist, len as usize);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &[u8]) {
        let tokens = tokenize(src, 32 * 1024, 32, 258, true);
        let mut out = Vec::new();
        detokenize(&tokens, &mut out).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_finds_matches() {
        let src = b"abcabcabcabcabcabcabcabc";
        let tokens = tokenize(src, 1024, 16, 258, false);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        let mut out = Vec::new();
        detokenize(&tokens, &mut out).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn overlapping_match_rle() {
        // "aaaa..." should produce dist-1 overlapping matches.
        let src = vec![b'a'; 500];
        let tokens = tokenize(&src, 1024, 16, 258, true);
        assert!(tokens.len() < 20, "rle should collapse: {}", tokens.len());
        let mut out = Vec::new();
        detokenize(&tokens, &mut out).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn mixed_content() {
        let mut src = Vec::new();
        for i in 0..2000u32 {
            src.extend_from_slice(format!("key-{:04}=value-{:02};", i, i % 7).as_bytes());
        }
        round_trip(&src);
    }

    #[test]
    fn bad_distance_detected() {
        let tokens = [Token::Match { len: 4, dist: 10 }];
        let mut out = Vec::new();
        assert!(detokenize(&tokens, &mut out).is_err());
    }

    #[test]
    fn common_prefix_works() {
        let src = b"abcdefabcdxf";
        assert_eq!(common_prefix(src, 0, 6, 6), 4);
        let long = vec![7u8; 100];
        assert_eq!(common_prefix(&long, 0, 50, 50), 50);
    }
}
