#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # ts-compress — compression codecs for TierScape compressed tiers
//!
//! From-scratch implementations of the codec families the Linux kernel offers
//! for zswap (see Table 1 of the TierScape paper): LZ4, LZ4HC, LZO, LZO-RLE,
//! Deflate, Zstd and 842. Each codec occupies a distinct point in the
//! (compression speed, decompression speed, compression ratio) space, which is
//! exactly the property TierScape exploits to build multiple compressed tiers.
//!
//! The on-wire formats are this crate's own (we control both the compressor
//! and the decompressor), but the algorithmic structure matches the originals:
//!
//! * [`lz4`] — greedy LZ77 with a single-probe hash table, byte-aligned
//!   token/literal/offset encoding. Fastest; ratio around 2x on text.
//! * [`lz4hc`] — the same format produced by a chained-match lazy parser:
//!   slower compression, same decompression speed, better ratio.
//! * [`lzo`] — byte-aligned LZ77 with short match ops; between LZ4 and
//!   Deflate in both speed and ratio.
//! * [`lzo_rle`] — LZO plus a run-length fast path (the kernel's preferred
//!   zram default); dramatically better on zero/rle-heavy pages.
//! * [`deflate`] — LZ77 with lazy parsing plus canonical Huffman coding of
//!   literals/lengths/distances. Best ratio, slowest.
//! * [`zstd_lite`] — lazy LZ77 parse with Huffman-coded literal section and
//!   varint-coded sequences; ratio close to Deflate at notably lower cost.
//! * [`sw842`] — 8-byte-word template compressor modeled on the nx842
//!   software fallback.
//!
//! # Examples
//!
//! ```
//! use ts_compress::{Algorithm, Codec};
//!
//! let codec = Algorithm::Lz4.codec();
//! let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox".to_vec();
//! let mut compressed = Vec::new();
//! codec.compress(&data, &mut compressed).unwrap();
//! let mut restored = Vec::new();
//! codec.decompress(&compressed, &mut restored).unwrap();
//! assert_eq!(data, restored);
//! ```

pub mod bitio;
pub mod deflate;
pub mod entropy;
pub mod huffman;
pub mod lz4;
pub mod lz77;
pub mod lzo;
pub mod sw842;
pub mod zstd_lite;

use std::fmt;

/// Error type for compression and decompression failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input expanded past the configured limit; the caller should store
    /// the page uncompressed instead (zswap rejects such pages).
    Incompressible {
        /// Size of the input that failed to compress.
        input_len: usize,
    },
    /// The compressed stream is malformed (truncated, bad offsets, ...).
    Corrupt(&'static str),
    /// The decompressed output would exceed the caller-provided bound.
    OutputOverflow,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Incompressible { input_len } => {
                write!(f, "input of {input_len} bytes is incompressible")
            }
            CodecError::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
            CodecError::OutputOverflow => write!(f, "decompressed output exceeds bound"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CodecError>;

/// The [`CodecError::Corrupt`] reason of a stream that decodes past the
/// caller's output bound.
pub const PAST_BOUND: &str = "output exceeds the bound";

/// Largest output any [`Codec::decompress`] produces (a sanity bound, 64 MiB).
const MAX_OUT: usize = 64 << 20;

/// [`Codec::decompress`] over a bounded decoder (`decode`, writing into a
/// slice): decode into `dst`'s spare capacity, at least one page, and
/// double that room while the stream runs past it, up to [`MAX_OUT`].
fn decompress_growing(
    src: &[u8],
    dst: &mut Vec<u8>,
    decode: fn(&[u8], &mut [u8]) -> Result<usize>,
) -> Result<usize> {
    let start = dst.len();
    let mut room = (dst.capacity() - start).max(4096);
    loop {
        dst.resize(start + room, 0);
        match decode(src, &mut dst[start..]) {
            Ok(n) => {
                dst.truncate(start + n);
                return Ok(n);
            }
            Err(CodecError::Corrupt(PAST_BOUND)) if room < MAX_OUT => room *= 2,
            Err(e) => {
                dst.truncate(start);
                return Err(e);
            }
        }
    }
}

/// [`Codec::decompress_into`] for a stream that opens with its output
/// length as a varint (deflate, zstd-lite, 842): a declared length past
/// `out.len()` is rejected before decoding, and the rest decodes in full.
fn decompress_declared(
    src: &[u8],
    out: &mut [u8],
    decompress: impl FnOnce(&[u8], &mut Vec<u8>) -> Result<usize>,
) -> Result<usize> {
    if bitio::read_varint(src, &mut 0)? > out.len() as u64 {
        return Err(CodecError::Corrupt(PAST_BOUND));
    }
    let mut buf = Vec::with_capacity(out.len());
    let n = decompress(src, &mut buf)?;
    out.get_mut(..n)
        .ok_or(CodecError::Corrupt(PAST_BOUND))?
        .copy_from_slice(&buf);
    Ok(n)
}

/// A compression algorithm as configurable for a zswap tier.
///
/// The set mirrors Table 1 of the paper. `Store` is an identity codec used
/// for testing and for modeling an uncompressed passthrough tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// LZ4 block compression (fast, ~2x ratio).
    Lz4,
    /// LZ4HC: LZ4 format with a high-compression parser.
    Lz4hc,
    /// LZO1X-style byte-aligned compression.
    Lzo,
    /// LZO with run-length-encoding fast path.
    LzoRle,
    /// LZ77 + canonical Huffman (best ratio, slowest).
    Deflate,
    /// Zstandard-like: lazy parse + entropy-coded literals.
    Zstd,
    /// IBM 842-style word template compression.
    Sw842,
    /// Identity codec (no compression).
    Store,
}

impl Algorithm {
    /// All real compression algorithms (excludes [`Algorithm::Store`]).
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Deflate,
        Algorithm::Lzo,
        Algorithm::LzoRle,
        Algorithm::Lz4,
        Algorithm::Zstd,
        Algorithm::Sw842,
        Algorithm::Lz4hc,
    ];

    /// Short lowercase name matching the Linux kernel's codec naming.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Lz4 => "lz4",
            Algorithm::Lz4hc => "lz4hc",
            Algorithm::Lzo => "lzo",
            Algorithm::LzoRle => "lzo-rle",
            Algorithm::Deflate => "deflate",
            Algorithm::Zstd => "zstd",
            Algorithm::Sw842 => "842",
            Algorithm::Store => "store",
        }
    }

    /// Parse a kernel-style codec name.
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Some(match name {
            "lz4" => Algorithm::Lz4,
            "lz4hc" => Algorithm::Lz4hc,
            "lzo" => Algorithm::Lzo,
            "lzo-rle" | "lzorle" => Algorithm::LzoRle,
            "deflate" => Algorithm::Deflate,
            "zstd" => Algorithm::Zstd,
            "842" | "sw842" => Algorithm::Sw842,
            "store" => Algorithm::Store,
            _ => return None,
        })
    }

    /// Return a boxed codec instance implementing this algorithm.
    pub fn codec(self) -> Box<dyn Codec> {
        match self {
            Algorithm::Lz4 => Box::new(lz4::Lz4::new()),
            Algorithm::Lz4hc => Box::new(lz4::Lz4hc::new()),
            Algorithm::Lzo => Box::new(lzo::Lzo::new()),
            Algorithm::LzoRle => Box::new(lzo::LzoRle::new()),
            Algorithm::Deflate => Box::new(deflate::Deflate::new()),
            Algorithm::Zstd => Box::new(zstd_lite::ZstdLite::new()),
            Algorithm::Sw842 => Box::new(sw842::Sw842::new()),
            Algorithm::Store => Box::new(Store),
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A block compressor/decompressor.
///
/// Implementations are stateless with respect to the data stream: every call
/// compresses an independent block, as zswap compresses each page
/// independently.
pub trait Codec: Send + Sync {
    /// The algorithm this codec implements.
    fn algorithm(&self) -> Algorithm;

    /// Compress `src` appending to `dst`; returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Incompressible`] if the output would be at least
    /// as large as the input (mirroring zswap's rejection of pages that do
    /// not compress); the contents of `dst` are unspecified in that case.
    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize>;

    /// Decompress `src` appending to `dst`; returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if the stream is malformed.
    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize>;

    /// Decompress `src` into `out`, whose length bounds the output; returns
    /// the number of bytes written. The bytes of `out` past that count are
    /// unspecified. lz4, lz4hc, lzo and lzo-rle stop before the first
    /// write past the bound. deflate, zstd-lite and 842 reject a stream
    /// whose header declares more than `out.len()` bytes before decoding
    /// any of it. Only the store codec copies in full, then checks.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if the stream is malformed or
    /// decodes to more than `out.len()` bytes.
    fn decompress_into(&self, src: &[u8], out: &mut [u8]) -> Result<usize> {
        let mut buf = Vec::with_capacity(out.len());
        let n = self.decompress(src, &mut buf)?;
        out.get_mut(..n)
            .ok_or(CodecError::Corrupt(PAST_BOUND))?
            .copy_from_slice(&buf);
        Ok(n)
    }

    /// Short name of the codec.
    fn name(&self) -> &'static str {
        self.algorithm().name()
    }
}

/// Identity codec: stores data unmodified. Useful as a control in tests and
/// benchmarks; always "compresses" to exactly the input size + 0 overhead and
/// therefore always reports [`CodecError::Incompressible`] under the standard
/// rejection rule, so it bypasses that rule.
#[derive(Debug, Default, Clone, Copy)]
pub struct Store;

impl Codec for Store {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Store
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        dst.extend_from_slice(src);
        Ok(src.len())
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        dst.extend_from_slice(src);
        Ok(src.len())
    }
}

/// Round-trip helper: compress and immediately decompress, returning
/// `(compressed_len, decompressed)`. Used heavily in tests and calibration.
///
/// # Errors
///
/// Propagates any codec error from either direction.
pub fn round_trip(codec: &dyn Codec, src: &[u8]) -> Result<(usize, Vec<u8>)> {
    let mut compressed = Vec::with_capacity(src.len());
    let clen = codec.compress(src, &mut compressed)?;
    let mut restored = Vec::with_capacity(src.len());
    codec.decompress(&compressed[..clen], &mut restored)?;
    Ok((clen, restored))
}

/// Compression ratio (compressed size / original size) for `codec` on `src`.
///
/// Returns `1.0` for incompressible input (stored raw), matching the paper's
/// definition where the ratio cannot exceed 1 because zswap rejects
/// uncompressible objects.
pub fn compression_ratio(codec: &dyn Codec, src: &[u8]) -> f64 {
    if src.is_empty() {
        return 1.0;
    }
    let mut out = Vec::with_capacity(src.len());
    match codec.compress(src, &mut out) {
        Ok(clen) => (clen as f64 / src.len() as f64).min(1.0),
        Err(_) => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_inputs() -> Vec<Vec<u8>> {
        vec![
            Vec::new(),
            vec![0u8; 4096],
            b"hello".to_vec(),
            b"abcabcabcabcabcabcabcabcabcabcabc".to_vec(),
            (0..=255u8).cycle().take(4096).collect(),
            {
                // Pseudo-random (incompressible-ish) block via an LCG so the
                // test is deterministic without pulling in `rand`.
                let mut x = 0x9e3779b97f4a7c15u64;
                (0..4096)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (x >> 33) as u8
                    })
                    .collect()
            },
        ]
    }

    #[test]
    fn all_algorithms_round_trip_all_samples() {
        for algo in Algorithm::ALL {
            let codec = algo.codec();
            for input in sample_inputs() {
                match round_trip(codec.as_ref(), &input) {
                    Ok((_, restored)) => assert_eq!(restored, input, "{algo} round trip"),
                    Err(CodecError::Incompressible { .. }) => {
                        // Acceptable for random data; zswap stores it raw.
                    }
                    Err(e) => panic!("{algo}: unexpected error {e}"),
                }
            }
        }
    }

    #[test]
    fn store_codec_is_identity() {
        let data = b"identity".to_vec();
        let (clen, restored) = round_trip(&Store, &data).unwrap();
        assert_eq!(clen, data.len());
        assert_eq!(restored, data);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(algo.name()), Some(algo));
        }
        assert_eq!(Algorithm::from_name("store"), Some(Algorithm::Store));
        assert_eq!(Algorithm::from_name("nope"), None);
    }

    #[test]
    fn ratio_ordering_on_text() {
        // Deflate and zstd must beat lz4 on prose-like text; all must beat 1.
        // Word soup avoids degenerate full-period repetition, where the
        // entropy coders' table headers would dominate a ~60-byte output.
        let words: [&str; 12] = [
            "the",
            "memory",
            "tier",
            "compressed",
            "page",
            "cost",
            "model",
            "and",
            "of",
            "server",
            "data",
            "region",
        ];
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut text = Vec::new();
        while text.len() < 4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            text.extend_from_slice(words[(x >> 33) as usize % words.len()].as_bytes());
            text.push(b' ');
        }
        text.truncate(4096);
        let r_lz4 = compression_ratio(Algorithm::Lz4.codec().as_ref(), &text);
        let r_deflate = compression_ratio(Algorithm::Deflate.codec().as_ref(), &text);
        let r_zstd = compression_ratio(Algorithm::Zstd.codec().as_ref(), &text);
        assert!(r_deflate < r_lz4, "deflate {r_deflate} vs lz4 {r_lz4}");
        assert!(r_zstd < r_lz4, "zstd {r_zstd} vs lz4 {r_lz4}");
        assert!(r_lz4 < 1.0);
    }

    /// An 8 KiB stream is rejected by a 4 KiB bound from its header alone:
    /// a stream cut right after the header gets the same answer.
    #[test]
    fn declared_length_past_the_bound_is_rejected_before_decoding() {
        let data: Vec<u8> = b"bounded decoders read the header first; "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        for algo in [Algorithm::Deflate, Algorithm::Zstd, Algorithm::Sw842] {
            let codec = algo.codec();
            let mut stream = Vec::new();
            codec.compress(&data, &mut stream).unwrap();
            let mut page = vec![0u8; 4096];
            let header_len = 2; // varint(8192)
            for src in [&stream[..], &stream[..header_len]] {
                assert_eq!(
                    codec.decompress_into(src, &mut page),
                    Err(CodecError::Corrupt(PAST_BOUND)),
                    "{algo}"
                );
            }
            let mut full = vec![0u8; 8192];
            assert_eq!(codec.decompress_into(&stream, &mut full), Ok(8192));
            assert_eq!(full, data);
            let cut = codec.decompress_into(&stream[..header_len], &mut full);
            assert!(
                cut.is_err() && cut != Err(CodecError::Corrupt(PAST_BOUND)),
                "{algo}: {cut:?}"
            );
        }
    }

    #[test]
    fn zero_page_compresses_extremely_well() {
        let zeros = vec![0u8; 4096];
        for algo in [Algorithm::LzoRle, Algorithm::Lz4, Algorithm::Deflate] {
            let r = compression_ratio(algo.codec().as_ref(), &zeros);
            assert!(r < 0.05, "{algo} ratio on zero page was {r}");
        }
    }
}
