//! Shared LZ77 match-finding machinery.
//!
//! Provides a hash-chain match finder with configurable search depth and a
//! greedy/lazy tokenizer producing a stream of [`Token`]s. lzo and lzo-rle
//! drive the finder directly; the entropy-coded codecs (deflate, zstd-lite)
//! go through [`tokenize`]. Only lz4 and lz4hc keep their own finders (a
//! single-probe table and a lazy chain parser over the lz4 format). The
//! finder's tables are sized at compile time: [`PageFinder`] for inputs of
//! at most a page, [`LargeFinder`] above.
//!
//! The lz4 and lzo decoders share the short-copy helpers here
//! (`copy_literals`, `copy_match_within`), which write into a slice
//! whose length the caller has checked.

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

/// Largest input the page geometry ([`PageFinder`]) serves.
pub const PAGE_INPUT: usize = 4096;

/// A [`MatchFinder`] for inputs of at most [`PAGE_INPUT`] bytes: 12 hash
/// bits and one chain link per input byte.
pub type PageFinder<'a> = MatchFinder<'a, 4096, PAGE_INPUT>;

/// A [`MatchFinder`] for larger inputs: 15 hash bits and a ring of 64 Ki
/// chain links, more than the widest window any codec uses (65535).
pub type LargeFinder<'a> = MatchFinder<'a, 32768, 65536>;

/// Hash-head and chain-link tables whose sizes are fixed at compile time:
/// `H` heads and a ring of `P` links indexed by position mod `P`, both
/// powers of two, so every table index is in range by construction.
struct Tables<const H: usize, const P: usize> {
    head: Box<[i32; H]>,
    prev: Box<[i32; P]>,
}

impl<const H: usize, const P: usize> Tables<H, P> {
    fn new() -> Box<Self> {
        fn table<const N: usize>() -> Box<[i32; N]> {
            vec![-1; N]
                .into_boxed_slice()
                .try_into()
                .expect("a vec of N slots")
        }
        Box::new(Tables {
            head: table(),
            prev: table(),
        })
    }
}

thread_local! {
    /// Tables of finished finders, one per geometry in use on this thread,
    /// so per-page compression (the zswap hot path) allocates nothing after
    /// warm-up.
    static SCRATCH: std::cell::RefCell<Vec<Box<dyn std::any::Any>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Hash-chain match finder over a single input buffer, with `H` hash heads
/// and `P` chain links (see [`PageFinder`] and [`LargeFinder`]).
///
/// Every position is visited through [`MatchFinder::find_and_insert`], which
/// hashes it once for both the search and the chain insert, or through
/// [`MatchFinder::insert`] for positions inside an emitted match.
pub struct MatchFinder<'a, const H: usize, const P: usize> {
    src: &'a [u8],
    head: &'a mut [i32; H],
    prev: &'a mut [i32; P],
    window: usize,
    max_chain: usize,
    max_match: usize,
}

impl<'a, const H: usize, const P: usize> MatchFinder<'a, H, P> {
    /// Right shift that leaves a hash in `0..H`. Evaluating it also checks
    /// at compile time that both sizes are powers of two.
    const SHIFT: u32 = {
        assert!(H.is_power_of_two() && P.is_power_of_two());
        32 - H.trailing_zeros()
    };

    /// Run `f` on a finder over `src`, backed by this thread's tables of
    /// this geometry.
    ///
    /// * `window` — maximum backward distance.
    /// * `max_chain` — chain probes per position (search effort).
    /// * `max_match` — longest match to report (at least [`MIN_MATCH`]).
    ///
    /// # Panics
    ///
    /// If `src` is longer than the link ring while `window` is not shorter
    /// than it: a chain could then read a link a later position overwrote.
    pub fn with<R>(
        src: &[u8],
        window: usize,
        max_chain: usize,
        max_match: usize,
        f: impl FnOnce(&mut MatchFinder<'_, H, P>) -> R,
    ) -> R {
        debug_assert!(max_match >= MIN_MATCH);
        assert!(
            src.len() <= P || window < P,
            "chain ring of {P} links is shorter than the {window}-byte window"
        );
        let reused = SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let i = s.iter().position(|t| t.is::<Tables<H, P>>())?;
            s.swap_remove(i).downcast::<Tables<H, P>>().ok()
        });
        let mut tables = reused.unwrap_or_else(Tables::new);
        // A link is written when its position is inserted, before any chain
        // can reach it, so stale links from an earlier input are never read.
        tables.head.fill(-1);
        let Tables { head, prev } = &mut *tables;
        let out = f(&mut MatchFinder {
            src,
            head,
            prev,
            window,
            max_chain,
            max_match,
        });
        SCRATCH.with(|s| s.borrow_mut().push(tables));
        out
    }

    /// The input this finder searches.
    pub fn source(&self) -> &'a [u8] {
        self.src
    }

    /// Hash of the [`MIN_MATCH`] bytes at `pos`; the caller has checked
    /// that they exist.
    #[inline]
    fn hash(&self, pos: usize) -> usize {
        let b = &self.src[pos..pos + MIN_MATCH];
        let v = (b[0] as u32) | ((b[1] as u32) << 8) | ((b[2] as u32) << 16);
        (v.wrapping_mul(0x9E37_79B1) >> Self::SHIFT) as usize
    }

    /// Link `pos` into the chain of hash `h`, returning the previous head.
    #[inline]
    fn link(&mut self, pos: usize, h: usize) -> i32 {
        let cand = self.head[h];
        self.prev[pos & (P - 1)] = cand;
        self.head[h] = pos as i32;
        cand
    }

    /// Insert position `pos` into the chains (a no-op with fewer than
    /// [`MIN_MATCH`] bytes left).
    #[inline]
    pub fn insert(&mut self, pos: usize) {
        if pos + MIN_MATCH <= self.src.len() {
            let h = self.hash(pos);
            self.link(pos, h);
        }
    }

    /// Find the best match at `pos` among the positions inserted so far,
    /// then insert `pos`, hashing it once for both. Returns `(len, dist)`,
    /// or `None` when no match of at least [`MIN_MATCH`] bytes exists.
    #[inline]
    pub fn find_and_insert(&mut self, pos: usize) -> Option<(u32, u32)> {
        if pos + MIN_MATCH > self.src.len() {
            return None;
        }
        let h = self.hash(pos);
        let cand = self.link(pos, h);
        self.probe(pos, cand)
    }

    /// The longest match at `pos` along the chain from `cand`. Each
    /// candidate is compared a word at a time: its first 8 bytes XOR the 8
    /// at `pos`, loaded once, then the following words while they match;
    /// the `trailing_zeros` of the first non-zero XOR give the length. The
    /// last partial word, and the last 7 positions of the input, go to
    /// [`common_prefix`].
    #[inline]
    fn probe(&self, pos: usize, cand: i32) -> Option<(u32, u32)> {
        let src = self.src;
        let max_len = (src.len() - pos).min(self.max_match);
        if max_len >= 8 {
            let word = load_u64(src, pos);
            self.walk(pos, cand, max_len, |c| {
                let mut n = 0;
                let mut diff = load_u64(src, c) ^ word;
                while diff == 0 {
                    n += 8;
                    if n + 8 > max_len {
                        return n + common_prefix(src, c + n, pos + n, max_len - n);
                    }
                    diff = load_u64(src, c + n) ^ load_u64(src, pos + n);
                }
                n + (diff.trailing_zeros() / 8) as usize
            })
        } else {
            self.walk(pos, cand, max_len, |c| common_prefix(src, c, pos, max_len))
        }
    }

    /// Walk the chain from `cand` for the longest match at `pos`, of at
    /// most `max_len` bytes, measuring each candidate `c` with `len_at(c)`.
    /// All per-position bounds are settled before the loop: `pos` has at
    /// least [`MIN_MATCH`] bytes left, and the window floor `lo >= 0` also
    /// stops the walk at the end-of-chain marker `-1`. A candidate no
    /// longer than the best so far is never taken, so measuring it in full
    /// picks the same match a first-byte reject would.
    #[inline(always)]
    fn walk(
        &self,
        pos: usize,
        mut cand: i32,
        max_len: usize,
        len_at: impl Fn(usize) -> usize,
    ) -> Option<(u32, u32)> {
        let lo = pos.saturating_sub(self.window) as i32;
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0u32;
        let mut chain = self.max_chain;
        while cand >= lo && chain > 0 {
            let c = cand as usize;
            debug_assert!(c < pos);
            let len = len_at(c);
            if len > best_len {
                best_len = len;
                best_dist = (pos - c) as u32;
                if len >= max_len {
                    break;
                }
            }
            cand = self.prev[c & (P - 1)];
            chain -= 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len as u32, best_dist))
        } else {
            None
        }
    }
}

/// The 8 bytes at `src[i..]` as a little-endian word.
#[inline]
fn load_u64(src: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(src[i..i + 8].try_into().expect("8 bytes"))
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

/// Width of the decoders' unconditional short copies.
const SHORT_COPY: usize = 16;

/// Copy the `len` literal bytes at `src[ip..]` to `out[op..]`; the caller
/// has checked both ranges. A run of at most [`SHORT_COPY`] bytes copies a
/// whole [`SHORT_COPY`]-byte block when both buffers have room for one:
/// the bytes past `len` are scratch that the next write overwrites, or that
/// lie past the decoded end. Near either end it copies exactly `len`.
#[inline]
pub(crate) fn copy_literals(src: &[u8], ip: usize, out: &mut [u8], op: usize, len: usize) {
    if len <= SHORT_COPY && ip + SHORT_COPY <= src.len() && op + SHORT_COPY <= out.len() {
        out[op..op + SHORT_COPY].copy_from_slice(&src[ip..ip + SHORT_COPY]);
    } else {
        out[op..op + len].copy_from_slice(&src[ip..ip + len]);
    }
}

/// Write an LZ77 match, `len` bytes copied from `dist` bytes back, at
/// `out[op..]`; the caller has checked `0 < dist <= op` and
/// `op + len <= out.len()`.
///
/// With `dist >= 16` the match is copied in whole [`SHORT_COPY`]-byte
/// blocks, each reading only bytes already final, when the rounded-up
/// length fits the buffer (the overshoot is scratch, as in
/// [`copy_literals`]). Otherwise: one exact copy when source and
/// destination do not overlap, and for an overlap a span that doubles each
/// round, so a distance-1 run of length N costs `O(log N)` copies.
#[inline]
pub(crate) fn copy_match_within(out: &mut [u8], op: usize, dist: usize, len: usize) {
    debug_assert!(dist > 0 && dist <= op && op + len <= out.len());
    let from = op - dist;
    if dist >= SHORT_COPY && op + len.next_multiple_of(SHORT_COPY) <= out.len() {
        let mut i = 0;
        while i < len {
            out.copy_within(from + i..from + i + SHORT_COPY, op + i);
            i += SHORT_COPY;
        }
    } else if dist >= len {
        out.copy_within(from..from + len, op);
    } else {
        // `out[from..op + done]` repeats with period `dist`, and `done` is a
        // multiple of `dist` until the last round, so copying from `from`
        // continues the pattern.
        let mut done = 0;
        while done < len {
            let n = (len - done).min(dist + done);
            out.copy_within(from..from + n, op + done);
            done += n;
        }
    }
}

/// Length of the common prefix of `src[a..]` and `src[b..]`, capped at
/// `max`: a word at a time (`u64` XOR, then `trailing_zeros` of the first
/// difference), the tail byte by byte.
#[inline]
pub fn common_prefix(src: &[u8], a: usize, b: usize, max: usize) -> usize {
    let (x, y) = (&src[a..a + max], &src[b..b + max]);
    let mut n = 0;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = u64::from_le_bytes(wx.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(wy.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + x[n..]
        .iter()
        .zip(&y[n..])
        .take_while(|(p, q)| p == q)
        .count()
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
    if src.len() <= PAGE_INPUT {
        PageFinder::with(src, window, max_chain, max_match, |mf| {
            lazy_parse(mf, lazy, &mut tokens)
        });
    } else {
        LargeFinder::with(src, window, max_chain, max_match, |mf| {
            lazy_parse(mf, lazy, &mut tokens)
        });
    }
    tokens
}

/// The parse loop of [`tokenize`], over either finder geometry.
fn lazy_parse<const H: usize, const P: usize>(
    mf: &mut MatchFinder<'_, H, P>,
    lazy: bool,
    tokens: &mut Vec<Token>,
) {
    let src = mf.source();
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

    /// A buffer whose first `prefix` bytes are a non-repeating pattern and
    /// the rest a marker the copies must overwrite or leave alone.
    fn seeded(prefix: usize, total: usize) -> Vec<u8> {
        (0..total)
            .map(|i| if i < prefix { (i * 7 + 1) as u8 } else { 0xEE })
            .collect()
    }

    /// The short-copy match path writes what a byte-by-byte LZ77 copy
    /// writes, for overlapping distances (1–15), the 16-byte block path,
    /// and matches ending 0–20 bytes before the end of the buffer.
    #[test]
    fn short_copy_matches_equal_bytewise_copies() {
        for dist in 1..=40usize {
            for len in 1..=70usize {
                for slack in 0..=20usize {
                    let op = dist + 5;
                    let total = op + len + slack;
                    let mut want = seeded(op, total);
                    for i in 0..len {
                        want[op + i] = want[op + i - dist];
                    }
                    let mut got = seeded(op, total);
                    copy_match_within(&mut got, op, dist, len);
                    assert_eq!(
                        got[..op + len],
                        want[..op + len],
                        "dist {dist} len {len} slack {slack}"
                    );
                }
            }
        }
    }

    /// Literal runs copy exactly `len` bytes of the source whether or not
    /// either buffer has room for a whole 16-byte block.
    #[test]
    fn short_copy_literals_equal_exact_copies() {
        let src: Vec<u8> = (0..64u8).collect();
        for len in 0..=40usize {
            for ip in [0, 10, 64 - len] {
                for slack in 0..=20usize {
                    let op = 3;
                    let mut out = seeded(op, op + len + slack);
                    copy_literals(&src, ip, &mut out, op, len);
                    assert_eq!(out[op..op + len], src[ip..ip + len]);
                    assert_eq!(out[..op], seeded(op, op)[..]);
                }
            }
        }
    }
}
