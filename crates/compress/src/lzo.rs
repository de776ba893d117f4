//! LZO-style byte-aligned compressors: [`Lzo`] and [`LzoRle`].
//!
//! The format is byte-aligned with single-byte control codes, like LZO1X:
//!
//! * `0b0LLLLLLL` — literal run of `L + 1` bytes (1..=128), bytes follow.
//! * `0b1MMMMMMM off_lo off_hi` — match of `M + 3` bytes at `off` (1..=65535).
//!   `M == 0x7f` extends the length with a varint (`len = 130 + varint`).
//!   `off == 0` switches the op to RLE: a single byte follows and is repeated
//!   `len` times ([`LzoRle`] only; plain [`Lzo`] never emits it but its
//!   decoder accepts it, mirroring how lzo-rle is a superset of lzo).
//!
//! Compression uses a depth-limited hash chain (deeper than LZ4's single
//! probe, hence slightly slower and slightly denser), min match 3: the
//! shared [`crate::lz77::MatchFinder`]. Each position the parser stops at
//! goes through its fused `find_and_insert` step, which hashes the position
//! once to search the chain and then to link the position into it; positions
//! inside an emitted match are only inserted. The parser gives up before the
//! first op that would take its output to the input length, since the page
//! is rejected as incompressible at that point whatever follows. One parse
//! loop serves both finder geometries (a page, or a larger input).
//!
//! [`decode`] is the one decoder of both codecs: it writes into a slice whose
//! length bounds the output and fails before any write past it.

use crate::bitio::{read_varint, varint_len, write_varint};
use crate::lz77::{
    copy_literals, copy_match_within, LargeFinder, MatchFinder, PageFinder, PAGE_INPUT,
};
use crate::{
    compress_below, decompress_growing, Algorithm, Below, Codec, CodecError, Result, PAST_BOUND,
};

const MIN_MATCH: usize = 3;
const MAX_OFFSET: usize = 65535;
/// Run length at which the RLE fast path kicks in.
const RLE_THRESHOLD: usize = 16;

/// Plain LZO-style codec.
#[derive(Debug, Clone, Copy)]
pub struct Lzo {
    depth: usize,
}

impl Lzo {
    /// Create an LZO codec with default effort.
    pub fn new() -> Self {
        Lzo { depth: 4 }
    }
}

impl Default for Lzo {
    fn default() -> Self {
        Self::new()
    }
}

/// LZO with the run-length fast path (kernel `lzo-rle`).
#[derive(Debug, Clone, Copy)]
pub struct LzoRle {
    depth: usize,
}

impl LzoRle {
    /// Create an LZO-RLE codec with default effort.
    pub fn new() -> Self {
        LzoRle { depth: 4 }
    }
}

impl Default for LzoRle {
    fn default() -> Self {
        Self::new()
    }
}

/// Bytes [`emit_literals`] writes for `n` literals.
fn literals_len(n: usize) -> usize {
    n + n.div_ceil(128)
}

/// Bytes [`emit_match`] writes for a match of `len` ([`emit_rle`] writes
/// one more).
fn match_op_len(len: usize) -> usize {
    let m = len - MIN_MATCH;
    3 + if m < 0x7f {
        0
    } else {
        varint_len((m - 0x7f) as u64)
    }
}

fn emit_literals(dst: &mut Vec<u8>, lits: &[u8]) {
    for chunk in lits.chunks(128) {
        dst.push((chunk.len() - 1) as u8);
        dst.extend_from_slice(chunk);
    }
}

fn emit_match(dst: &mut Vec<u8>, len: usize, offset: usize) {
    debug_assert!(len >= MIN_MATCH);
    debug_assert!(offset <= MAX_OFFSET);
    let m = len - MIN_MATCH;
    if m < 0x7f {
        dst.push(0x80 | m as u8);
    } else {
        dst.push(0xff);
        write_varint(dst, (m - 0x7f) as u64);
    }
    dst.extend_from_slice(&(offset as u16).to_le_bytes());
}

fn emit_rle(dst: &mut Vec<u8>, len: usize, byte: u8) {
    debug_assert!(len >= MIN_MATCH);
    let m = len - MIN_MATCH;
    if m < 0x7f {
        dst.push(0x80 | m as u8);
    } else {
        dst.push(0xff);
        write_varint(dst, (m - 0x7f) as u64);
    }
    dst.extend_from_slice(&0u16.to_le_bytes());
    dst.push(byte);
}

fn run_length(src: &[u8], pos: usize) -> usize {
    let b = src[pos];
    let mut n = 1;
    while pos + n < src.len() && src[pos + n] == b {
        n += 1;
    }
    n
}

fn compress_impl(src: &[u8], dst: &mut Vec<u8>, depth: usize, rle: bool) -> Result<usize> {
    compress_below(src.len(), dst, |dst, below| {
        if src.len() < MIN_MATCH {
            below.check(dst.len() + literals_len(src.len()))?;
            emit_literals(dst, src);
            Ok(())
        } else if src.len() <= PAGE_INPUT {
            PageFinder::with(src, MAX_OFFSET, depth, src.len(), |mf| {
                parse(mf, dst, below, rle)
            })
        } else {
            LargeFinder::with(src, MAX_OFFSET, depth, src.len(), |mf| {
                parse(mf, dst, below, rle)
            })
        }
    })
}

/// The parse loop of lzo and lzo-rle, over either finder geometry. Each op
/// is checked against `below` together with the literals pending before it.
fn parse<const H: usize, const P: usize>(
    mf: &mut MatchFinder<'_, H, P>,
    dst: &mut Vec<u8>,
    below: Below,
    rle: bool,
) -> Result<()> {
    let src = mf.source();
    let mut anchor = 0usize;
    let mut pos = 0usize;
    let limit = src.len() - MIN_MATCH + 1;
    while pos < limit {
        // RLE fast path: long runs bypass the chain search entirely.
        if rle {
            let run = run_length(src, pos);
            if run >= RLE_THRESHOLD {
                below.check(dst.len() + literals_len(pos - anchor) + match_op_len(run) + 1)?;
                emit_literals(dst, &src[anchor..pos]);
                emit_rle(dst, run, src[pos]);
                // Insert the head so later matches can reach the run.
                mf.insert(pos);
                pos += run;
                anchor = pos;
                continue;
            }
        }
        if let Some((len, off)) = mf.find_and_insert(pos) {
            let (best_len, best_off) = (len as usize, off as usize);
            below.check(dst.len() + literals_len(pos - anchor) + match_op_len(best_len))?;
            emit_literals(dst, &src[anchor..pos]);
            emit_match(dst, best_len, best_off);
            let end = pos + best_len;
            let mut p = pos + 1;
            // Sparse insertion keeps compression cost bounded on long matches.
            while p < end.min(limit) {
                mf.insert(p);
                p += if best_len > 64 { 8 } else { 1 };
            }
            pos = end;
            anchor = pos;
        } else {
            pos += 1;
        }
    }
    below.check(dst.len() + literals_len(src.len() - anchor))?;
    emit_literals(dst, &src[anchor..]);
    Ok(())
}

/// Decode an LZO/LZO-RLE stream into `out`, whose length bounds the
/// output; returns the bytes written. The decoder accepts both op sets.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] on malformed input, and before any write
/// that would pass the end of `out`.
pub fn decode(src: &[u8], out: &mut [u8]) -> Result<usize> {
    let mut ip = 0usize;
    let mut op = 0usize;
    while ip < src.len() {
        let ctrl = src[ip];
        ip += 1;
        if ctrl & 0x80 == 0 {
            let len = (ctrl & 0x7f) as usize + 1;
            if len > src.len() - ip {
                return Err(CodecError::Corrupt("lzo: literal run truncated"));
            }
            if len > out.len() - op {
                return Err(CodecError::Corrupt(PAST_BOUND));
            }
            copy_literals(src, ip, out, op, len);
            ip += len;
            op += len;
        } else {
            let mut len = (ctrl & 0x7f) as usize + MIN_MATCH;
            if ctrl == 0xff {
                // An extension past the output bound is rejected whole, so
                // no length arithmetic can overflow.
                let extra = read_varint(src, &mut ip)?;
                len += usize::try_from(extra)
                    .ok()
                    .filter(|&e| e <= out.len() - op)
                    .ok_or(CodecError::Corrupt(PAST_BOUND))?;
            }
            if len > out.len() - op {
                return Err(CodecError::Corrupt(PAST_BOUND));
            }
            if ip + 2 > src.len() {
                return Err(CodecError::Corrupt("lzo: offset truncated"));
            }
            let off = u16::from_le_bytes([src[ip], src[ip + 1]]) as usize;
            ip += 2;
            if off == 0 {
                // RLE op: one byte repeated `len` times.
                let b = *src
                    .get(ip)
                    .ok_or(CodecError::Corrupt("lzo: rle byte missing"))?;
                ip += 1;
                out[op..op + len].fill(b);
            } else {
                if off > op {
                    return Err(CodecError::Corrupt("lzo: bad match offset"));
                }
                copy_match_within(out, op, off, len);
            }
            op += len;
        }
    }
    Ok(op)
}

impl Codec for Lzo {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Lzo
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        compress_impl(src, dst, self.depth, false)
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        decompress_growing(src, dst, decode)
    }

    fn decompress_into(&self, src: &[u8], out: &mut [u8]) -> Result<usize> {
        decode(src, out)
    }
}

impl Codec for LzoRle {
    fn algorithm(&self) -> Algorithm {
        Algorithm::LzoRle
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        compress_impl(src, dst, self.depth, true)
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

    #[test]
    fn lzo_round_trip_text() {
        let data: Vec<u8> = b"to be or not to be, that is the question; "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let (clen, out) = round_trip(&Lzo::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < data.len() / 2);
    }

    #[test]
    fn rle_collapses_zero_page() {
        let zeros = vec![0u8; 4096];
        let mut plain = Vec::new();
        let plain_len = Lzo::new().compress(&zeros, &mut plain).unwrap();
        let mut rle = Vec::new();
        let rle_len = LzoRle::new().compress(&zeros, &mut rle).unwrap();
        assert!(rle_len <= plain_len);
        assert!(rle_len < 16, "rle_len={rle_len}");
        let (_, out) = round_trip(&LzoRle::new(), &zeros).unwrap();
        assert_eq!(out, zeros);
    }

    #[test]
    fn mixed_runs_and_text() {
        let mut data = Vec::new();
        for i in 0..50 {
            data.extend(std::iter::repeat_n(i as u8, 40));
            data.extend_from_slice(b"separator text in between runs ");
        }
        for codec in [&LzoRle::new() as &dyn Codec, &Lzo::new() as &dyn Codec] {
            let (_, out) = round_trip(codec, &data).unwrap();
            assert_eq!(out, data, "{}", codec.name());
        }
    }

    #[test]
    fn long_match_extension() {
        let mut data = b"prefix-".to_vec();
        let block: Vec<u8> = (0..200u8).collect();
        data.extend_from_slice(&block);
        data.extend_from_slice(&block); // 200-byte match needs extended length.
        data.extend_from_slice(&block);
        let (_, out) = round_trip(&Lzo::new(), &data).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn corrupt_detected() {
        let data: Vec<u8> = b"abcabcabcabcabcabcabc"
            .iter()
            .copied()
            .cycle()
            .take(2048)
            .collect();
        let mut comp = Vec::new();
        LzoRle::new().compress(&data, &mut comp).unwrap();
        let mut out = Vec::new();
        assert!(LzoRle::new()
            .decompress(&comp[..comp.len() - 3], &mut out)
            .is_err());
    }

    #[test]
    fn empty_input() {
        let mut out = Vec::new();
        // Empty compresses to empty (written == len == 0 is not "incompressible").
        assert_eq!(Lzo::new().compress(&[], &mut out).unwrap(), 0);
        let mut dec = Vec::new();
        assert_eq!(Lzo::new().decompress(&out, &mut dec).unwrap(), 0);
    }

    /// A match length extension of `u64::MAX` used to overflow the length
    /// arithmetic; now it runs past the bound and is rejected whole.
    #[test]
    fn huge_length_extension_is_corrupt() {
        let mut stream = vec![0x00, b'a', 0xff];
        stream.extend([0xff; 9]);
        stream.extend([0x01, 0x01, 0x00]);
        let mut page = vec![0u8; 4096];
        assert_eq!(
            decode(&stream, &mut page),
            Err(CodecError::Corrupt(PAST_BOUND))
        );
    }

    /// Ten bytes that ask for a 268,435,587-byte output: the bounded decode
    /// stops at the page, and the unbounded one at its 64 MiB cap.
    #[test]
    fn overlong_stream_stops_at_the_bound() {
        let stream = [0x00, 0x61, 0xff, 0x80, 0x80, 0x80, 0x80, 0x01, 0x01, 0x00];
        let mut page = vec![0u8; 4096];
        for codec in [&Lzo::new() as &dyn Codec, &LzoRle::new() as &dyn Codec] {
            assert_eq!(
                codec.decompress_into(&stream, &mut page),
                Err(CodecError::Corrupt(PAST_BOUND))
            );
        }
        let mut out = Vec::new();
        assert!(Lzo::new().decompress(&stream, &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn lzo_decoder_accepts_rle_stream() {
        let data = vec![7u8; 1000];
        let mut comp = Vec::new();
        LzoRle::new().compress(&data, &mut comp).unwrap();
        let mut out = Vec::new();
        Lzo::new().decompress(&comp, &mut out).unwrap();
        assert_eq!(out, data);
    }
}
