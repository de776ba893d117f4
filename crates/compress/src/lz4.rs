//! LZ4 block format compressor and decompressor.
//!
//! Implements the standard LZ4 block layout (token byte with 4-bit literal
//! and match length nibbles, byte-aligned literals, 16-bit little-endian
//! offsets, 255-extension bytes for long lengths). [`Lz4`] uses the classic
//! single-probe hash-table greedy parser; [`Lz4hc`] reuses the same format
//! with a chained lazy parser for a better ratio at higher compression cost.
//! Both decode through [`decode`], as in the reference design: it writes
//! into a slice whose length bounds the output and fails before any write
//! past it.

use crate::lz77::{copy_literals, copy_match_within};
use crate::{
    compress_below, decompress_growing, Algorithm, Below, Codec, CodecError, Result, PAST_BOUND,
};

/// Minimum LZ4 match length.
const MIN_MATCH: usize = 4;
/// Matches cannot start within this many bytes of the end (format rule).
const LAST_LITERALS: usize = 5;
/// Maximum backward offset (u16).
const MAX_OFFSET: usize = 65535;

/// Fast greedy LZ4 compressor.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lz4;

impl Lz4 {
    /// Create a new LZ4 codec.
    pub fn new() -> Self {
        Lz4
    }
}

/// High-compression LZ4 variant (same stream format, stronger parser).
#[derive(Debug, Default, Clone, Copy)]
pub struct Lz4hc;

impl Lz4hc {
    /// Create an LZ4HC codec.
    pub fn new() -> Self {
        Lz4hc
    }
}

/// Chain probes per position of [`Lz4hc`]'s parser.
const HC_DEPTH: usize = 64;

#[inline]
fn hash4(bytes: &[u8], bits: u32) -> usize {
    let v = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    (v.wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize
}

/// Bytes [`emit_sequence`] writes for `lit_len` literals and a match of
/// `match_len` (0 for none).
fn sequence_len(lit_len: usize, match_len: usize) -> usize {
    let ext = |n: usize| if n >= 15 { (n - 15) / 255 + 1 } else { 0 };
    let mat = if match_len == 0 {
        0
    } else {
        2 + ext(match_len - MIN_MATCH)
    };
    1 + ext(lit_len) + lit_len + mat
}

/// Emit one LZ4 sequence, after checking that it leaves the output able to
/// end below the input length: `literals` then a match. A `match_len` of 0
/// means "final literals-only sequence".
fn emit_sequence(
    dst: &mut Vec<u8>,
    below: Below,
    literals: &[u8],
    offset: usize,
    match_len: usize,
) -> Result<()> {
    below.check(dst.len() + sequence_len(literals.len(), match_len))?;
    let lit_len = literals.len();
    let lit_nibble = lit_len.min(15) as u8;
    let mat_extra = if match_len == 0 {
        0
    } else {
        match_len - MIN_MATCH
    };
    let mat_nibble = mat_extra.min(15) as u8;
    dst.push((lit_nibble << 4) | if match_len == 0 { 0 } else { mat_nibble });
    if lit_len >= 15 {
        let mut rem = lit_len - 15;
        while rem >= 255 {
            dst.push(255);
            rem -= 255;
        }
        dst.push(rem as u8);
    }
    dst.extend_from_slice(literals);
    if match_len > 0 {
        dst.extend_from_slice(&(offset as u16).to_le_bytes());
        if mat_extra >= 15 {
            let mut rem = mat_extra - 15;
            while rem >= 255 {
                dst.push(255);
                rem -= 255;
            }
            dst.push(rem as u8);
        }
    }
    Ok(())
}

thread_local! {
    static GREEDY_TABLE: std::cell::RefCell<Vec<u32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Greedy hash-table bits.
const GREEDY_HASH_BITS: u32 = 12;

fn compress_greedy(src: &[u8], dst: &mut Vec<u8>, below: Below) -> Result<()> {
    let mut table = GREEDY_TABLE.with(|t| std::mem::take(&mut *t.borrow_mut()));
    table.clear();
    table.resize(1 << GREEDY_HASH_BITS, u32::MAX);
    let result = parse_greedy(src, dst, below, &mut table);
    GREEDY_TABLE.with(|t| *t.borrow_mut() = table);
    result
}

fn parse_greedy(src: &[u8], dst: &mut Vec<u8>, below: Below, table: &mut [u32]) -> Result<()> {
    let mut anchor = 0usize;
    let mut pos = 0usize;
    let match_limit = src.len().saturating_sub(LAST_LITERALS + MIN_MATCH);
    while pos < match_limit {
        let h = hash4(&src[pos..], GREEDY_HASH_BITS);
        let cand = table[h] as usize;
        table[h] = pos as u32;
        let found = cand != u32::MAX as usize
            && pos - cand <= MAX_OFFSET
            && src[cand..cand + 4] == src[pos..pos + 4];
        if !found {
            pos += 1;
            continue;
        }
        // Extend match forward, bounded so LAST_LITERALS remain.
        let max_len = src.len() - LAST_LITERALS - pos;
        let len = crate::lz77::common_prefix(src, cand, pos, max_len);
        if len < MIN_MATCH {
            pos += 1;
            continue;
        }
        emit_sequence(dst, below, &src[anchor..pos], pos - cand, len)?;
        pos += len;
        anchor = pos;
        // Seed the table inside the match region sparsely for future matches.
        if pos < match_limit {
            let h2 = hash4(&src[pos - 2..], GREEDY_HASH_BITS);
            table[h2] = (pos - 2) as u32;
        }
    }
    emit_sequence(dst, below, &src[anchor..], 0, 0)
}

fn compress_hc(src: &[u8], dst: &mut Vec<u8>, below: Below) -> Result<()> {
    const HASH_BITS: u32 = 15;
    let mut head = vec![i32::MIN; 1 << HASH_BITS];
    let mut prev = vec![i32::MIN; src.len()];
    let match_limit = src.len().saturating_sub(LAST_LITERALS + MIN_MATCH);

    let insert = |head: &mut [i32], prev: &mut [i32], p: usize| {
        let h = hash4(&src[p..], HASH_BITS);
        prev[p] = head[h];
        head[h] = p as i32;
    };
    let best_at = |head: &[i32], prev: &[i32], p: usize| -> Option<(usize, usize)> {
        let max_len = src.len() - LAST_LITERALS - p;
        if max_len < MIN_MATCH {
            return None;
        }
        let h = hash4(&src[p..], HASH_BITS);
        let mut cand = head[h];
        let mut best = (0usize, 0usize);
        let mut probes = HC_DEPTH;
        while cand != i32::MIN && probes > 0 {
            let c = cand as usize;
            if p - c > MAX_OFFSET {
                break;
            }
            if best.0 < max_len
                && src[c + best.0.min(max_len - 1)] == src[p + best.0.min(max_len - 1)]
            {
                let len = crate::lz77::common_prefix(src, c, p, max_len);
                if len > best.0 {
                    best = (len, p - c);
                    if len >= max_len {
                        break;
                    }
                }
            }
            cand = prev[c];
            probes -= 1;
        }
        if best.0 >= MIN_MATCH {
            Some(best)
        } else {
            None
        }
    };

    let mut anchor = 0usize;
    let mut pos = 0usize;
    // Positions in [0, cursor) are inserted into the chains exactly once;
    // a position is never inserted before it is searched, so a match can
    // never reference itself (distance 0).
    let mut cursor = 0usize;
    let insert_up_to =
        |head: &mut Vec<i32>, prev: &mut Vec<i32>, cursor: &mut usize, upto: usize| {
            let limit = upto.min(src.len().saturating_sub(MIN_MATCH - 1));
            while *cursor < limit {
                insert(head, prev, *cursor);
                *cursor += 1;
            }
        };
    while pos < match_limit {
        insert_up_to(&mut head, &mut prev, &mut cursor, pos);
        let Some((mut len, mut off)) = best_at(&head, &prev, pos) else {
            pos += 1;
            continue;
        };
        // Lazy: prefer a strictly better match one byte ahead.
        if pos + 1 < match_limit {
            insert_up_to(&mut head, &mut prev, &mut cursor, pos + 1);
            if let Some((nlen, noff)) = best_at(&head, &prev, pos + 1) {
                if nlen > len + 1 {
                    len = nlen;
                    off = noff;
                    pos += 1;
                }
            }
        }
        emit_sequence(dst, below, &src[anchor..pos], off, len)?;
        let end = pos + len;
        insert_up_to(&mut head, &mut prev, &mut cursor, end);
        pos = end;
        anchor = pos;
    }
    emit_sequence(dst, below, &src[anchor..], 0, 0)
}

/// Read the 255-extension bytes of an lz4 length nibble onto `len`.
#[inline]
fn read_len(src: &[u8], ip: &mut usize, mut len: usize, what: &'static str) -> Result<usize> {
    loop {
        let b = *src.get(*ip).ok_or(CodecError::Corrupt(what))?;
        *ip += 1;
        len += b as usize;
        if b != 255 {
            return Ok(len);
        }
    }
}

/// Decode an LZ4 block into `out`, whose length bounds the output; returns
/// the bytes written. Shared by both codecs.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] on malformed input, and before any write
/// that would pass the end of `out`.
pub fn decode(src: &[u8], out: &mut [u8]) -> Result<usize> {
    let mut ip = 0usize;
    let mut op = 0usize;
    loop {
        let token = *src
            .get(ip)
            .ok_or(CodecError::Corrupt("lz4: missing token"))?;
        ip += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len = read_len(src, &mut ip, lit_len, "lz4: litlen truncated")?;
        }
        if lit_len > src.len() - ip {
            return Err(CodecError::Corrupt("lz4: literals truncated"));
        }
        if lit_len > out.len() - op {
            return Err(CodecError::Corrupt(PAST_BOUND));
        }
        copy_literals(src, ip, out, op, lit_len);
        ip += lit_len;
        op += lit_len;
        if ip == src.len() {
            // Final literals-only sequence.
            return Ok(op);
        }
        if ip + 2 > src.len() {
            return Err(CodecError::Corrupt("lz4: offset truncated"));
        }
        let offset = u16::from_le_bytes([src[ip], src[ip + 1]]) as usize;
        ip += 2;
        if offset == 0 || offset > op {
            return Err(CodecError::Corrupt("lz4: bad offset"));
        }
        let mut mat_len = (token & 0xf) as usize + MIN_MATCH;
        if token & 0xf == 15 {
            mat_len = read_len(src, &mut ip, mat_len, "lz4: matlen truncated")?;
        }
        if mat_len > out.len() - op {
            return Err(CodecError::Corrupt(PAST_BOUND));
        }
        copy_match_within(out, op, offset, mat_len);
        op += mat_len;
    }
}

/// Compress with the greedy or (`hc`) the chained parser; inputs too short
/// for a match are one literals-only sequence.
fn compress_checked(src: &[u8], dst: &mut Vec<u8>, hc: bool) -> Result<usize> {
    compress_below(src.len(), dst, |dst, below| {
        if src.len() < MIN_MATCH + LAST_LITERALS {
            emit_sequence(dst, below, src, 0, 0)
        } else if hc {
            compress_hc(src, dst, below)
        } else {
            compress_greedy(src, dst, below)
        }
    })
}

impl Codec for Lz4 {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Lz4
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        compress_checked(src, dst, false)
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        decompress_growing(src, dst, decode)
    }

    fn decompress_into(&self, src: &[u8], out: &mut [u8]) -> Result<usize> {
        decode(src, out)
    }
}

impl Codec for Lz4hc {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Lz4hc
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        compress_checked(src, dst, true)
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        decompress_growing(src, dst, decode)
    }

    fn decompress_into(&self, src: &[u8], out: &mut [u8]) -> Result<usize> {
        decode(src, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_trip;

    fn text(n: usize) -> Vec<u8> {
        b"All work and no play makes Jack a dull boy. "
            .iter()
            .copied()
            .cycle()
            .take(n)
            .collect()
    }

    #[test]
    fn greedy_round_trip_text() {
        let data = text(8192);
        let (clen, out) = round_trip(&Lz4::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < data.len() / 2, "clen={clen}");
    }

    #[test]
    fn hc_round_trip_and_beats_greedy() {
        let mut data = Vec::new();
        for i in 0..400u32 {
            data.extend_from_slice(
                format!("record:{:05} payload={:08x};", i * 7 % 91, i).as_bytes(),
            );
        }
        let mut g = Vec::new();
        let glen = Lz4::new().compress(&data, &mut g).unwrap();
        let mut h = Vec::new();
        let hlen = Lz4hc::new().compress(&data, &mut h).unwrap();
        assert!(hlen <= glen, "hc {hlen} vs greedy {glen}");
        let (_, out) = round_trip(&Lz4hc::new(), &data).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn tiny_inputs() {
        for n in 0..12usize {
            let data: Vec<u8> = (0..n as u8).collect();
            match round_trip(&Lz4::new(), &data) {
                Ok((_, out)) => assert_eq!(out, data),
                Err(CodecError::Incompressible { .. }) => {}
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }

    #[test]
    fn long_literal_and_match_extensions() {
        // > 15 literals followed by a > 19-byte match exercises extension bytes.
        let mut data: Vec<u8> = (0..100u8).collect();
        data.extend(std::iter::repeat_n(b'z', 1000));
        let (_, out) = round_trip(&Lz4::new(), &data).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn random_data_rejected() {
        let mut x = 1234567u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (x >> 33) as u8
            })
            .collect();
        let mut out = Vec::new();
        assert!(matches!(
            Lz4::new().compress(&data, &mut out),
            Err(CodecError::Incompressible { .. })
        ));
    }

    #[test]
    fn corrupt_streams_detected() {
        let data = text(4096);
        let mut comp = Vec::new();
        Lz4::new().compress(&data, &mut comp).unwrap();
        // Truncation.
        let mut out = Vec::new();
        assert!(Lz4::new()
            .decompress(&comp[..comp.len() / 2], &mut out)
            .is_err());
        // Bad offset: zero the first offset bytes we can find.
        let mut bad = comp.clone();
        // Token at 0; find offset position after literals.
        let lit = (bad[0] >> 4) as usize;
        if lit < 15 && 1 + lit + 2 <= bad.len() {
            bad[1 + lit] = 0;
            bad[1 + lit + 1] = 0;
            let mut out2 = Vec::new();
            assert!(Lz4::new().decompress(&bad, &mut out2).is_err());
        }
    }

    #[test]
    fn zero_page() {
        let data = vec![0u8; 4096];
        let (clen, out) = round_trip(&Lz4::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < 64, "zero page should collapse, clen={clen}");
    }
}
