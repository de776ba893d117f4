//! Software 842-style codec.
//!
//! Modeled on IBM's 842 (as in the kernel's `sw842` fallback): the input is
//! processed as 8-byte words, and each word is emitted through one of four
//! 2-bit templates that reference previously decoded data at word or
//! half-word granularity:
//!
//! * `00` — literal: 64 raw bits follow.
//! * `01` — whole-word back-reference: 13-bit backward distance in words.
//! * `10` — two half-word back-references: 2 x 14-bit distances in half-words.
//! * `11` — first half referenced (14-bit distance), second half literal.
//!
//! A raw tail (< 8 bytes) follows the bitstream. 842 trades ratio for very
//! regular, hardware-friendly decode — it sits near LZ4 on speed with a
//! typically worse ratio, which is why the paper lists it in Table 1 but
//! selects other codecs for its evaluation tiers.

use crate::bitio::{read_varint, write_varint, BitReader, BitWriter};
use crate::{decompress_declared, Algorithm, Codec, CodecError, Result, MAX_OUT};
use std::collections::HashMap;

const TPL_LIT: u64 = 0b00;
const TPL_WORD: u64 = 0b01;
const TPL_HALF2: u64 = 0b10;
const TPL_HALF_LIT: u64 = 0b11;

/// Backward distance bits for word references (8192-word = 64 KiB window).
const WORD_DIST_BITS: u32 = 13;
/// Backward distance bits for half-word references.
const HALF_DIST_BITS: u32 = 14;

/// 842-style codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sw842;

impl Sw842 {
    /// Create a new 842 codec.
    pub fn new() -> Self {
        Sw842
    }
}

impl Codec for Sw842 {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Sw842
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        let before = dst.len();
        let nwords = src.len() / 8;
        write_varint(dst, src.len() as u64);
        write_varint(dst, nwords as u64);

        let mut word_dict: HashMap<u64, u32> = HashMap::with_capacity(nwords);
        let mut half_dict: HashMap<u32, u32> = HashMap::with_capacity(nwords * 2);
        let mut w = BitWriter::new();

        for i in 0..nwords {
            let word = u64::from_le_bytes(src[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            let lo = word as u32;
            let hi = (word >> 32) as u32;
            let wi = i as u32;
            let hi_idx = wi * 2 + 1; // Half-word index of the high half.
            let lo_idx = wi * 2;

            let word_hit = word_dict
                .get(&word)
                .map(|&p| wi - p)
                .filter(|&d| (1..(1 << WORD_DIST_BITS)).contains(&d));
            let half_hit = |dict: &HashMap<u32, u32>, v: u32, cur_half: u32| {
                dict.get(&v)
                    .map(|&p| cur_half - p)
                    .filter(|&d| (1..(1 << HALF_DIST_BITS)).contains(&d))
            };

            if let Some(d) = word_hit {
                w.write_bits(TPL_WORD, 2);
                w.write_bits(d as u64, WORD_DIST_BITS);
            } else {
                let lo_hit = half_hit(&half_dict, lo, lo_idx);
                // `hi` may reference `lo` of the same word (distance 1).
                let hi_hit = if lo == hi {
                    Some(1)
                } else {
                    half_hit(&half_dict, hi, hi_idx)
                };
                match (lo_hit, hi_hit) {
                    (Some(dl), Some(dh)) => {
                        w.write_bits(TPL_HALF2, 2);
                        w.write_bits(dl as u64, HALF_DIST_BITS);
                        w.write_bits(dh as u64, HALF_DIST_BITS);
                    }
                    (Some(dl), None) => {
                        w.write_bits(TPL_HALF_LIT, 2);
                        w.write_bits(dl as u64, HALF_DIST_BITS);
                        w.write_bits(hi as u64, 32);
                    }
                    _ => {
                        w.write_bits(TPL_LIT, 2);
                        // 64 bits exceed the single-call limit; split.
                        w.write_bits(word & 0xffff_ffff, 32);
                        w.write_bits(word >> 32, 32);
                    }
                }
            }
            word_dict.insert(word, wi);
            half_dict.insert(lo, lo_idx);
            half_dict.insert(hi, hi_idx);
        }
        dst.extend_from_slice(&w.finish());
        dst.extend_from_slice(&src[nwords * 8..]);

        let written = dst.len() - before;
        if written >= src.len() && !src.is_empty() {
            dst.truncate(before);
            return Err(CodecError::Incompressible {
                input_len: src.len(),
            });
        }
        Ok(written)
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        let start = dst.len();
        let mut pos = 0usize;
        let out_len = read_varint(src, &mut pos)? as usize;
        if out_len > MAX_OUT {
            return Err(CodecError::OutputOverflow);
        }
        let nwords = read_varint(src, &mut pos)? as usize;
        if nwords * 8 > out_len {
            return Err(CodecError::Corrupt("842: word count exceeds output"));
        }
        let tail_len = out_len - nwords * 8;

        let mut words: Vec<u64> = Vec::with_capacity(nwords);
        {
            let mut r = BitReader::new(&src[pos..]);
            for i in 0..nwords {
                let tpl = r.read_bits(2)?;
                let word = match tpl {
                    TPL_LIT => {
                        let lo = r.read_bits(32)?;
                        let hi = r.read_bits(32)?;
                        lo | (hi << 32)
                    }
                    TPL_WORD => {
                        let d = r.read_bits(WORD_DIST_BITS)? as usize;
                        if d == 0 || d > i {
                            return Err(CodecError::Corrupt("842: bad word distance"));
                        }
                        words[i - d]
                    }
                    TPL_HALF2 | TPL_HALF_LIT => {
                        let read_half = |r: &mut BitReader<'_>,
                                         words: &[u64],
                                         cur_half: usize|
                         -> Result<u32> {
                            let d = r.read_bits(HALF_DIST_BITS)? as usize;
                            if d == 0 || d > cur_half {
                                return Err(CodecError::Corrupt("842: bad half distance"));
                            }
                            let idx = cur_half - d;
                            let word = words[idx / 2];
                            Ok(if idx.is_multiple_of(2) {
                                word as u32
                            } else {
                                (word >> 32) as u32
                            })
                        };
                        let lo = read_half(&mut r, &words, i * 2)?;
                        let hi = if tpl == TPL_HALF2 {
                            // The high half may reference the low half just
                            // decoded (distance 1), so splice it in.
                            let d = r.read_bits(HALF_DIST_BITS)? as usize;
                            let cur_half = i * 2 + 1;
                            if d == 0 || d > cur_half {
                                return Err(CodecError::Corrupt("842: bad half distance"));
                            }
                            let idx = cur_half - d;
                            if idx == i * 2 {
                                lo
                            } else {
                                let word = words[idx / 2];
                                if idx.is_multiple_of(2) {
                                    word as u32
                                } else {
                                    (word >> 32) as u32
                                }
                            }
                        } else {
                            r.read_bits(32)? as u32
                        };
                        (lo as u64) | ((hi as u64) << 32)
                    }
                    _ => unreachable!("2-bit template"),
                };
                words.push(word);
            }
        }
        for word in &words {
            dst.extend_from_slice(&word.to_le_bytes());
        }
        if tail_len > src.len() {
            return Err(CodecError::Corrupt("842: tail truncated"));
        }
        let tail = &src[src.len() - tail_len..];
        dst.extend_from_slice(tail);
        if dst.len() - start != out_len {
            return Err(CodecError::Corrupt("842: output length mismatch"));
        }
        Ok(out_len)
    }

    fn decompress_into(&self, src: &[u8], out: &mut [u8]) -> Result<usize> {
        decompress_declared(src, out, |src, dst| self.decompress(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_trip;

    #[test]
    fn round_trip_repetitive() {
        let data: Vec<u8> = b"0123456789abcdef"
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let (clen, out) = round_trip(&Sw842::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < data.len() / 2, "clen={clen}");
    }

    #[test]
    fn round_trip_with_tail() {
        let data: Vec<u8> = b"words-words-words-"
            .iter()
            .copied()
            .cycle()
            .take(1003)
            .collect();
        let (_, out) = round_trip(&Sw842::new(), &data).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn half_word_template_exercised() {
        // Words share halves but not whole words.
        let mut data = Vec::new();
        for i in 0..256u32 {
            data.extend_from_slice(&0xAABBCCDDu32.to_le_bytes());
            data.extend_from_slice(&i.to_le_bytes());
        }
        let (clen, out) = round_trip(&Sw842::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < data.len(), "clen={clen}");
    }

    #[test]
    fn zero_page() {
        let data = vec![0u8; 4096];
        let (clen, out) = round_trip(&Sw842::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < data.len() / 3, "clen={clen}");
    }

    #[test]
    fn tiny_inputs() {
        for n in [0usize, 1, 7, 8, 9, 16] {
            let data = vec![0x5Au8; n];
            match round_trip(&Sw842::new(), &data) {
                Ok((_, out)) => assert_eq!(out, data),
                Err(CodecError::Incompressible { .. }) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }

    #[test]
    fn corrupt_detected() {
        let data: Vec<u8> = b"structured.".iter().copied().cycle().take(2048).collect();
        let mut comp = Vec::new();
        Sw842::new().compress(&data, &mut comp).unwrap();
        let mut out = Vec::new();
        assert!(Sw842::new().decompress(&comp[..3], &mut out).is_err());
    }
}
