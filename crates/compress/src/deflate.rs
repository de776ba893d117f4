//! Deflate-style codec: LZ77 with lazy parsing + canonical Huffman coding.
//!
//! The symbol alphabets (literal/length with extra bits, distance with extra
//! bits) follow RFC 1951's tables, while the container is this crate's own:
//!
//! ```text
//! [varint original_len][litlen code lengths][dist code lengths][bitstream]
//! ```
//!
//! Among the codecs in this crate, deflate has the best compression ratio and
//! the highest compression and decompression cost — the "high TCO savings,
//! high latency" end of TierScape's tier spectrum.

use crate::bitio::{read_varint, varint_len, write_varint, BitReader, BitWriter};
use crate::huffman::{code_lengths, lengths_len, read_lengths, write_lengths, Decoder, Encoder};
use crate::lz77::{tokenize, Token};
use crate::{compress_below, decompress_declared, Algorithm, Codec, CodecError, Result, MAX_OUT};

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Literal/length alphabet size (256 literals + EOB + 29 length codes).
const LITLEN_SYMS: usize = 286;
/// Distance alphabet size.
const DIST_SYMS: usize = 30;

/// `(base_length, extra_bits)` for length codes 257..=285.
const LEN_TABLE: [(u32, u32); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance codes 0..=29.
const DIST_TABLE: [(u32, u32); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Map a match length (3..=258) to `(symbol, extra_bits, extra_value)`.
fn length_code(len: u32) -> (usize, u32, u32) {
    debug_assert!((3..=258).contains(&len));
    // Linear scan over 29 entries is fine at page granularity; find the last
    // entry whose base <= len such that len fits in base + (1<<extra) - 1.
    for (i, &(base, extra)) in LEN_TABLE.iter().enumerate().rev() {
        if len >= base {
            let sym = 257 + i;
            let extra_val = len - base;
            debug_assert!(extra_val < (1 << extra) || (extra == 0 && extra_val == 0));
            return (sym, extra, extra_val);
        }
    }
    unreachable!("length {len} out of range");
}

/// Map a distance (1..=32768) to `(symbol, extra_bits, extra_value)`.
fn dist_code(dist: u32) -> (usize, u32, u32) {
    debug_assert!((1..=32768).contains(&dist));
    for (i, &(base, extra)) in DIST_TABLE.iter().enumerate().rev() {
        if dist >= base {
            return (i, extra, dist - base);
        }
    }
    unreachable!("distance {dist} out of range");
}

/// Deflate-style codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct Deflate;

impl Deflate {
    /// Create a deflate codec.
    pub fn new() -> Self {
        Deflate
    }
}

/// Hash-chain probes per position of [`Deflate`]'s lazy parser.
const MAX_CHAIN: usize = 64;

/// Entropy-encode a token stream with dynamic canonical Huffman tables
/// (shared by [`Deflate`] and [`crate::zstd_lite::ZstdLite`]). The encoded
/// size follows exactly from the histograms, the code lengths and the extra
/// bits, so a stream that would not shrink is rejected before any of it is
/// written.
///
/// # Errors
///
/// Returns [`CodecError::Incompressible`] when the encoded stream does not
/// shrink below `src_len`.
pub(crate) fn encode_tokens(tokens: &[Token], src_len: usize, dst: &mut Vec<u8>) -> Result<usize> {
    compress_below(src_len, dst, |dst, below| {
        // Histogram both alphabets, and count the extra bits.
        let mut lit_freq = vec![0u64; LITLEN_SYMS];
        let mut dist_freq = vec![0u64; DIST_SYMS];
        let mut extra_bits = 0u64;
        for t in tokens {
            match *t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    let (sym, ebits, _) = length_code(len);
                    let (dsym, debits, _) = dist_code(dist);
                    lit_freq[sym] += 1;
                    dist_freq[dsym] += 1;
                    extra_bits += u64::from(ebits + debits);
                }
            }
        }
        lit_freq[EOB] += 1;

        let lit_lens = code_lengths(&lit_freq);
        let dist_lens = code_lengths(&dist_freq);
        let coded_bits = |freq: &[u64], lens: &[u32]| -> u64 {
            freq.iter().zip(lens).map(|(&f, &l)| f * u64::from(l)).sum()
        };
        let bits =
            coded_bits(&lit_freq, &lit_lens) + coded_bits(&dist_freq, &dist_lens) + extra_bits;
        let header = varint_len(src_len as u64) + lengths_len(&lit_lens) + lengths_len(&dist_lens);
        let end = dst.len() + header + bits.div_ceil(8) as usize;
        below.check(end)?;

        let lit_enc = Encoder::from_lengths(&lit_lens);
        let dist_enc = Encoder::from_lengths(&dist_lens);
        write_varint(dst, src_len as u64);
        write_lengths(dst, &lit_lens);
        write_lengths(dst, &dist_lens);

        let mut w = BitWriter::new();
        for t in tokens {
            match *t {
                Token::Literal(b) => lit_enc.encode(&mut w, b as usize),
                Token::Match { len, dist } => {
                    let (sym, ebits, eval) = length_code(len);
                    lit_enc.encode(&mut w, sym);
                    if ebits > 0 {
                        w.write_bits(eval as u64, ebits);
                    }
                    let (dsym, debits, deval) = dist_code(dist);
                    dist_enc.encode(&mut w, dsym);
                    if debits > 0 {
                        w.write_bits(deval as u64, debits);
                    }
                }
            }
        }
        lit_enc.encode(&mut w, EOB);
        dst.extend_from_slice(&w.finish());
        debug_assert_eq!(dst.len(), end, "predicted deflate size");
        Ok(())
    })
}

/// Decode a stream produced by [`encode_tokens`] (shared decoder).
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] on malformed input.
pub(crate) fn decode_stream(src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
    let start = dst.len();
    let mut pos = 0usize;
    let out_len = read_varint(src, &mut pos)?;
    if out_len > MAX_OUT as u64 {
        return Err(CodecError::OutputOverflow);
    }
    let lit_lens = read_lengths(src, &mut pos)?;
    let dist_lens = read_lengths(src, &mut pos)?;
    if lit_lens.len() != LITLEN_SYMS || dist_lens.len() != DIST_SYMS {
        return Err(CodecError::Corrupt("deflate: bad alphabet sizes"));
    }
    let lit_dec = Decoder::from_lengths(&lit_lens)?;
    let dist_dec = Decoder::from_lengths(&dist_lens)?;
    let mut r = BitReader::new(&src[pos..]);
    loop {
        let sym = lit_dec.decode(&mut r)? as usize;
        if sym < 256 {
            dst.push(sym as u8);
        } else if sym == EOB {
            break;
        } else {
            let idx = sym - 257;
            if idx >= LEN_TABLE.len() {
                return Err(CodecError::Corrupt("deflate: bad length symbol"));
            }
            let (base, extra) = LEN_TABLE[idx];
            let len = base
                + if extra > 0 {
                    r.read_bits(extra)? as u32
                } else {
                    0
                };
            let dsym = dist_dec.decode(&mut r)? as usize;
            if dsym >= DIST_TABLE.len() {
                return Err(CodecError::Corrupt("deflate: bad distance symbol"));
            }
            let (dbase, dextra) = DIST_TABLE[dsym];
            let dist = dbase
                + if dextra > 0 {
                    r.read_bits(dextra)? as u32
                } else {
                    0
                };
            let dist = dist as usize;
            if dist == 0 || dist > dst.len() - start {
                return Err(CodecError::Corrupt("deflate: distance out of range"));
            }
            if (dst.len() - start) as u64 + len as u64 > out_len {
                return Err(CodecError::Corrupt("deflate: output longer than header"));
            }
            crate::lz77::copy_match(dst, dist, len as usize);
        }
        if (dst.len() - start) as u64 > out_len {
            return Err(CodecError::Corrupt("deflate: output longer than header"));
        }
    }
    if (dst.len() - start) as u64 != out_len {
        return Err(CodecError::Corrupt("deflate: output length mismatch"));
    }
    Ok(dst.len() - start)
}

impl Codec for Deflate {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Deflate
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        let tokens = tokenize(src, 32 * 1024, MAX_CHAIN, 258, true);
        encode_tokens(&tokens, src.len(), dst)
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        decode_stream(src, dst)
    }

    fn decompress_into(&self, src: &[u8], out: &mut [u8]) -> Result<usize> {
        decompress_declared(src, out, decode_stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_trip;

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_code(3), (257, 0, 0));
        assert_eq!(length_code(10), (264, 0, 0));
        assert_eq!(length_code(11), (265, 1, 0));
        assert_eq!(length_code(12), (265, 1, 1));
        assert_eq!(length_code(258), (285, 0, 0));
        assert_eq!(length_code(257), (284, 5, 30));
    }

    #[test]
    fn dist_code_boundaries() {
        assert_eq!(dist_code(1), (0, 0, 0));
        assert_eq!(dist_code(4), (3, 0, 0));
        assert_eq!(dist_code(5), (4, 1, 0));
        assert_eq!(dist_code(32768), (29, 13, 8191));
    }

    #[test]
    fn round_trip_text() {
        let data: Vec<u8> = b"It is a truth universally acknowledged, that a single man "
            .iter()
            .copied()
            .cycle()
            .take(16384)
            .collect();
        let (clen, out) = round_trip(&Deflate::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < data.len() / 4, "clen={clen}");
    }

    #[test]
    fn beats_lz4_on_structured_data() {
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.extend_from_slice(format!("<row id='{i}'><v>{}</v></row>", i % 13).as_bytes());
        }
        let mut d = Vec::new();
        let dlen = Deflate::new().compress(&data, &mut d).unwrap();
        let mut l = Vec::new();
        let llen = crate::lz4::Lz4::new().compress(&data, &mut l).unwrap();
        assert!(dlen < llen, "deflate {dlen} vs lz4 {llen}");
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8)
            .flat_map(|b| std::iter::repeat_n(b, 16))
            .collect();
        let (_, out) = round_trip(&Deflate::new(), &data).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn tiny_inputs() {
        for n in [0usize, 1, 2, 3, 5] {
            let data = vec![b'x'; n];
            match round_trip(&Deflate::new(), &data) {
                Ok((_, out)) => assert_eq!(out, data),
                Err(CodecError::Incompressible { .. }) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }

    #[test]
    fn corrupt_header_detected() {
        let data = vec![b'a'; 4096];
        let mut comp = Vec::new();
        Deflate::new().compress(&data, &mut comp).unwrap();
        let mut out = Vec::new();
        assert!(Deflate::new().decompress(&comp[..4], &mut out).is_err());
    }

    #[test]
    fn truncated_bitstream_detected() {
        let data: Vec<u8> = b"some moderately compressible content "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let mut comp = Vec::new();
        Deflate::new().compress(&data, &mut comp).unwrap();
        let mut out = Vec::new();
        let res = Deflate::new().decompress(&comp[..comp.len() - 8], &mut out);
        assert!(res.is_err());
    }
}
