//! Synthetic data corpora with controlled compressibility.
//!
//! The paper characterizes tiers on two Silesia corpus files: `nci` (chemical
//! database, highly compressible) and `dickens` (English prose, moderately
//! compressible). Those files are not redistributable here, so this module
//! synthesizes data with matching *compression behaviour* (see DESIGN.md §2):
//!
//! * [`fill_nci_like`] — repetitive, line-structured records with a tiny
//!   alphabet and heavy long-range repetition; deflate reaches ~10:1+ on
//!   real nci and on this generator.
//! * [`fill_dickens_like`] — prose with English-like word/sentence structure;
//!   ~2.5–3.5:1 under deflate, ~2:1 under lz4, as for real dickens.
//! * [`fill_binary_like`] — struct-of-arrays binary data (graph indices,
//!   float features): mildly compressible.
//! * [`fill_noise`] — incompressible high-entropy filler.
//!
//! All generators are deterministic functions of `(seed, page_index)` so a
//! page's content can be regenerated at any time instead of being stored.

/// Content classes a page can carry, used by workloads to describe their
/// address-space layout and by the modeled-fidelity calibrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageClass {
    /// Untouched/zero page.
    Zero,
    /// nci-like highly compressible structured text.
    HighlyCompressible,
    /// dickens-like natural text.
    Text,
    /// Binary arrays (indices, floats).
    Binary,
    /// High-entropy data (encrypted/compressed payloads).
    Incompressible,
}

impl PageClass {
    /// All classes.
    pub const ALL: [PageClass; 5] = [
        PageClass::Zero,
        PageClass::HighlyCompressible,
        PageClass::Text,
        PageClass::Binary,
        PageClass::Incompressible,
    ];

    /// Fill `buf` with this class's content, deterministically from
    /// `(seed, index)`.
    pub fn fill(self, seed: u64, index: u64, buf: &mut [u8]) {
        match self {
            PageClass::Zero => buf.fill(0),
            PageClass::HighlyCompressible => fill_nci_like(seed, index, buf),
            PageClass::Text => fill_dickens_like(seed, index, buf),
            PageClass::Binary => fill_binary_like(seed, index, buf),
            PageClass::Incompressible => fill_noise(seed, index, buf),
        }
    }
}

#[inline]
fn mix(seed: u64, index: u64) -> u64 {
    // splitmix64 over the pair.
    let mut z = seed ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

struct Lcg(u64);

impl Lcg {
    #[inline]
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    #[inline]
    fn below(&mut self, n: usize) -> usize {
        ((self.next() >> 33) as usize) % n
    }
}

/// Highly compressible chemical-database-like records (nci analogue).
pub fn fill_nci_like(seed: u64, index: u64, buf: &mut [u8]) {
    let mut rng = Lcg(mix(seed, index));
    // A handful of templates repeated with tiny numeric variations, giving
    // long-range redundancy like nci's SDF records.
    const TEMPLATES: [&str; 3] = [
        "  -OEChem-010203  C1=CC=C(C=C1)O  0  0  0  0  0  0\n",
        "M  END\n> <CAS>\n000-00-0\n\n$$$$\n",
        "  1  2  1  0  0  0  0\n  2  3  2  0  0  0  0\n",
    ];
    let mut pos = 0usize;
    while pos < buf.len() {
        let t = TEMPLATES[rng.below(3)].as_bytes();
        let n = t.len().min(buf.len() - pos);
        buf[pos..pos + n].copy_from_slice(&t[..n]);
        // Sparse digit perturbation keeps entropy > 0 without hurting ratio.
        if n > 8 && rng.below(4) == 0 {
            buf[pos + 2] = b'0' + (rng.below(10) as u8);
        }
        pos += n;
    }
}

/// Zipf weights of [`fill_dickens_like`]'s 64 words: word `w` weighs
/// `64 - w`, and `ZIPF_CUMULATIVE[w]` is the total weight of words `0..=w`.
const ZIPF_CUMULATIVE: [usize; 64] = {
    let mut table = [0usize; 64];
    let (mut w, mut total) = (0, 0);
    while w < 64 {
        total += 64 - w;
        table[w] = total;
        w += 1;
    }
    table
};

/// Total Zipf weight: draws range over `0..ZIPF_TOTAL`.
const ZIPF_TOTAL: usize = ZIPF_CUMULATIVE[63];

/// The word each Zipf draw `r < ZIPF_TOTAL` picks: the first whose
/// cumulative weight exceeds `r`.
const ZIPF_WORD: [u8; ZIPF_TOTAL] = {
    let mut table = [0u8; ZIPF_TOTAL];
    let (mut r, mut w) = (0, 0);
    while r < ZIPF_TOTAL {
        while ZIPF_CUMULATIVE[w] <= r {
            w += 1;
        }
        table[r] = w as u8;
        r += 1;
    }
    table
};

/// [`fill_dickens_like`]'s vocabulary, most frequent first.
const WORDS: [&str; 64] = [
    "the", "of", "and", "a", "to", "in", "he", "was", "that", "it", "his", "her", "with", "as",
    "had", "for", "at", "not", "on", "but", "be", "they", "you", "which", "she", "him", "all",
    "were", "this", "have", "said", "from", "one", "when", "who", "them", "been", "would", "there",
    "what", "little", "old", "time", "upon", "great", "such", "never", "very", "much", "over",
    "again", "down", "house", "himself", "before", "through", "hand", "head", "night", "without",
    "looked", "found", "thought", "young",
];

/// [`WORDS`] zero-padded to 8 bytes (every word is shorter), so a word
/// away from the end of the buffer copies as one fixed-size block.
const PADDED_WORDS: [[u8; 8]; 64] = {
    let mut table = [[0u8; 8]; 64];
    let mut w = 0;
    while w < 64 {
        let word = WORDS[w].as_bytes();
        assert!(word.len() < 8);
        let mut i = 0;
        while i < word.len() {
            table[w][i] = word[i];
            i += 1;
        }
        w += 1;
    }
    table
};

/// English-prose-like text (dickens analogue): Zipf-weighted word soup with
/// sentence and paragraph structure.
pub fn fill_dickens_like(seed: u64, index: u64, buf: &mut [u8]) {
    let mut rng = Lcg(mix(seed, index));
    let mut pos = 0usize;
    let mut words_in_sentence = 0usize;
    let mut capitalize = true;
    while pos < buf.len() {
        // Zipf-ish pick: prefer low indices.
        let w = ZIPF_WORD[rng.below(ZIPF_TOTAL)] as usize;
        let n = WORDS[w].len().min(buf.len() - pos);
        match buf.get_mut(pos..pos + 8) {
            // The padding lands past the word, on bytes written later.
            Some(dst) => dst.copy_from_slice(&PADDED_WORDS[w]),
            None => buf[pos..pos + n].copy_from_slice(&PADDED_WORDS[w][..n]),
        }
        if capitalize && n > 0 {
            buf[pos] = buf[pos].to_ascii_uppercase();
            capitalize = false;
        }
        pos += n;
        words_in_sentence += 1;
        if pos < buf.len() {
            if words_in_sentence >= 6 + rng.below(10) {
                buf[pos] = b'.';
                pos += 1;
                capitalize = true;
                words_in_sentence = 0;
                if pos < buf.len() {
                    buf[pos] = if rng.below(8) == 0 { b'\n' } else { b' ' };
                    pos += 1;
                }
            } else {
                buf[pos] = b' ';
                pos += 1;
            }
        }
    }
}

/// Binary array data: 32-bit deltas and quantized floats (graph/ML pages).
pub fn fill_binary_like(seed: u64, index: u64, buf: &mut [u8]) {
    let mut rng = Lcg(mix(seed, index));
    let mut v: u32 = (rng.next() >> 40) as u32;
    for chunk in buf.chunks_mut(4) {
        // Small deltas keep top bytes similar across words: mildly
        // compressible, like CSR neighbor lists and quantized features.
        v = v.wrapping_add((rng.below(64)) as u32);
        let bytes = v.to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
}

/// High-entropy noise (incompressible).
pub fn fill_noise(seed: u64, index: u64, buf: &mut [u8]) {
    let mut rng = Lcg(mix(seed, index));
    for chunk in buf.chunks_mut(8) {
        let bytes = rng.next().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_compress::{compression_ratio, Algorithm};

    fn page(class: PageClass, idx: u64) -> Vec<u8> {
        let mut buf = vec![0u8; 4096];
        class.fill(1234, idx, &mut buf);
        buf
    }

    #[test]
    fn deterministic_regeneration() {
        for class in PageClass::ALL {
            assert_eq!(page(class, 7), page(class, 7), "{class:?}");
            if class != PageClass::Zero {
                assert_ne!(page(class, 7), page(class, 8), "{class:?}");
            }
        }
    }

    #[test]
    fn nci_like_is_highly_compressible() {
        let deflate = Algorithm::Deflate.codec();
        let p = page(PageClass::HighlyCompressible, 3);
        let r = compression_ratio(deflate.as_ref(), &p);
        assert!(r < 0.2, "nci-like deflate ratio {r}");
    }

    #[test]
    fn dickens_like_is_moderately_compressible() {
        let deflate = Algorithm::Deflate.codec();
        let lz4 = Algorithm::Lz4.codec();
        let p = page(PageClass::Text, 3);
        let rd = compression_ratio(deflate.as_ref(), &p);
        let rl = compression_ratio(lz4.as_ref(), &p);
        assert!(rd > 0.2 && rd < 0.55, "dickens-like deflate ratio {rd}");
        assert!(rl > rd, "lz4 {rl} should be worse than deflate {rd}");
        assert!(rl < 0.95, "lz4 must still compress text, got {rl}");
    }

    #[test]
    fn noise_is_incompressible() {
        let lz4 = Algorithm::Lz4.codec();
        let p = page(PageClass::Incompressible, 3);
        let r = compression_ratio(lz4.as_ref(), &p);
        assert!(r > 0.98, "noise ratio {r}");
    }

    #[test]
    fn class_compressibility_ordering() {
        let zstd = Algorithm::Zstd.codec();
        let ratios: Vec<f64> = [
            PageClass::Zero,
            PageClass::HighlyCompressible,
            PageClass::Text,
            PageClass::Binary,
            PageClass::Incompressible,
        ]
        .iter()
        .map(|&c| compression_ratio(zstd.as_ref(), &page(c, 11)))
        .collect();
        for w in ratios.windows(2) {
            assert!(w[0] <= w[1] + 0.05, "ordering violated: {ratios:?}");
        }
    }

    #[test]
    fn partial_page_fills() {
        for class in PageClass::ALL {
            for len in [0usize, 1, 7, 100, 4095] {
                let mut buf = vec![0xEE; len];
                class.fill(9, 1, &mut buf);
                assert_eq!(buf.len(), len);
            }
        }
    }

    /// The linear Zipf scan `fill_dickens_like` used before its lookup
    /// tables: the reference [`ZIPF_WORD`] must agree with.
    fn zipf_scan(r: usize) -> usize {
        let mut w = 0usize;
        let mut acc = 64usize;
        let mut weight = 64usize;
        while acc <= r && weight > 1 {
            weight -= 1;
            acc += weight;
            w += 1;
        }
        w
    }

    #[test]
    fn zipf_lookup_matches_the_linear_scan() {
        // One entry per draw: the table's type fixes its length at ZIPF_TOTAL.
        for (r, &word) in ZIPF_WORD.iter().enumerate() {
            assert_eq!(usize::from(word), zipf_scan(r), "r = {r}");
        }
    }

    /// FNV-1a digest of every class's content over several seeds, pages
    /// and buffer lengths, pinned to the generator's output: page content
    /// feeds every compressed size, so it must never drift.
    #[test]
    fn fill_output_is_pinned() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for seed in [0u64, 1, 42, 1234, u64::MAX] {
            for idx in [0u64, 1, 7, 4095, 1 << 20, 123_456_789] {
                for class in PageClass::ALL {
                    for len in [4096usize, 1000, 37] {
                        let mut buf = vec![0u8; len];
                        class.fill(seed, idx, &mut buf);
                        for b in buf {
                            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(hash, 0x7fb9_2f48_7f36_190d);
    }
}
