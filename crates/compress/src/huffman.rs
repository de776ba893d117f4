//! Canonical, length-limited Huffman coding.
//!
//! Used by the [`crate::deflate`] and [`crate::zstd_lite`] codecs. Code
//! lengths are limited to [`MAX_CODE_LEN`] bits so the decoder can use a
//! single-level lookup table that is cheap to rebuild per block.

use crate::bitio::{varint_len, BitReader, BitWriter};
use crate::{CodecError, Result};

/// Maximum code length in bits. 12 bits keeps the decode table at 4096
/// entries, small enough to rebuild for every compressed page.
pub const MAX_CODE_LEN: u32 = 12;

/// Compute length-limited Huffman code lengths for `freqs`.
///
/// Returns one length per symbol; zero for symbols with zero frequency.
/// If only one symbol occurs it is assigned length 1 (a decodable degenerate
/// tree). Lengths never exceed [`MAX_CODE_LEN`].
pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let n = freqs.len();
    let mut lens = vec![0u32; n];
    let active: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match active.len() {
        0 => return lens,
        1 => {
            lens[active[0]] = 1;
            return lens;
        }
        _ => {}
    }

    // Standard heap-based Huffman on (freq, node). Node indices >= n are
    // internal nodes.
    #[derive(PartialEq, Eq)]
    struct Item(u64, usize);
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap via BinaryHeap.
            other.0.cmp(&self.0).then(other.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = std::collections::BinaryHeap::new();
    // parent[i] for leaf or internal node i; usize::MAX = root.
    let mut parent = vec![usize::MAX; n + active.len()];
    for &i in &active {
        heap.push(Item(freqs[i], i));
    }
    let mut next_internal = n;
    while heap.len() > 1 {
        let a = heap.pop().expect("heap has >= 2 items");
        let b = heap.pop().expect("heap has >= 2 items");
        let node = next_internal;
        next_internal += 1;
        parent[a.1] = node;
        parent[b.1] = node;
        heap.push(Item(a.0.saturating_add(b.0), node));
    }

    for &i in &active {
        let mut depth = 0u32;
        let mut node = i;
        while parent[node] != usize::MAX {
            node = parent[node];
            depth += 1;
        }
        lens[i] = depth.max(1);
    }

    limit_lengths(&mut lens, MAX_CODE_LEN);
    lens
}

/// Clamp code lengths to `max_len`, restoring Kraft validity.
///
/// Uses the classic "overflowed leaves are pushed down, then slack is
/// redistributed" adjustment (as in zlib / kernel lib/zlib_deflate).
fn limit_lengths(lens: &mut [u32], max_len: u32) {
    let mut kraft: u64 = 0;
    let unit = 1u64 << max_len;
    let mut any_over = false;
    for l in lens.iter_mut() {
        if *l == 0 {
            continue;
        }
        if *l > max_len {
            *l = max_len;
            any_over = true;
        }
        kraft += unit >> *l;
    }
    if !any_over && kraft <= unit {
        return;
    }
    // While the code over-subscribes the space, lengthen the shortest
    // subscribed codes (cheapest fix in expected bits).
    while kraft > unit {
        // Find a symbol with the smallest length < max_len and bump it.
        let mut best: Option<usize> = None;
        for (i, &l) in lens.iter().enumerate() {
            if l > 0 && l < max_len && best.map(|b| l < lens[b]).unwrap_or(true) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                kraft -= unit >> lens[i];
                lens[i] += 1;
                kraft += unit >> lens[i];
            }
            None => break, // All at max_len: cannot happen with n <= 2^max_len.
        }
    }
    // Optionally shorten codes to absorb slack (not required for validity).
    let _ = kraft;
}

/// Assign canonical codes given code lengths. Returns `(code, len)` pairs,
/// `(0, 0)` for absent symbols. Codes are MSB-first values of `len` bits.
pub fn canonical_codes(lens: &[u32]) -> Vec<(u32, u32)> {
    let max = lens.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; (max + 1) as usize];
    for &l in lens {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; (max + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=max {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lens.iter()
        .map(|&l| {
            if l == 0 {
                (0, 0)
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                (c, l)
            }
        })
        .collect()
}

/// Table-driven canonical Huffman decoder.
#[derive(Debug)]
pub struct Decoder {
    /// `table[peeked_bits] = (symbol, code_len)`; index width = `max_len`.
    table: Vec<(u16, u8)>,
    max_len: u32,
}

impl Decoder {
    /// Build a decoder from code lengths.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if the lengths do not describe a
    /// prefix-valid (possibly incomplete) code or exceed [`MAX_CODE_LEN`].
    pub fn from_lengths(lens: &[u32]) -> Result<Decoder> {
        let max_len = lens.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return Ok(Decoder {
                table: Vec::new(),
                max_len: 0,
            });
        }
        if max_len > MAX_CODE_LEN {
            return Err(CodecError::Corrupt("code length exceeds limit"));
        }
        if lens.len() > u16::MAX as usize {
            return Err(CodecError::Corrupt("alphabet too large"));
        }
        // Kraft check: reject over-subscribed codes.
        let unit = 1u64 << max_len;
        let used: u64 = lens.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
        if used > unit {
            return Err(CodecError::Corrupt("over-subscribed Huffman code"));
        }
        let codes = canonical_codes(lens);
        let mut table = vec![(u16::MAX, 0u8); 1usize << max_len];
        for (sym, &(code, len)) in codes.iter().enumerate() {
            if len == 0 {
                continue;
            }
            // The bitstream is LSB-first with codes written bit-reversed, so
            // the table is indexed by the reversed code with all possible
            // suffixes.
            let rev = crate::bitio::reverse_bits(code, len);
            let step = 1usize << len;
            let mut idx = rev as usize;
            while idx < table.len() {
                table[idx] = (sym as u16, len as u8);
                idx += step;
            }
        }
        Ok(Decoder { table, max_len })
    }

    /// Decode one symbol from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] on invalid codes or underrun.
    #[inline]
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16> {
        if self.max_len == 0 {
            return Err(CodecError::Corrupt("empty Huffman table"));
        }
        let peek = reader.peek_bits(self.max_len) as usize;
        let (sym, len) = self.table[peek];
        if len == 0 {
            return Err(CodecError::Corrupt("invalid Huffman code"));
        }
        reader.consume(len as u32)?;
        Ok(sym)
    }
}

/// Encoder-side code table.
#[derive(Debug)]
pub struct Encoder {
    codes: Vec<(u32, u32)>,
}

impl Encoder {
    /// Build an encoder from code lengths.
    pub fn from_lengths(lens: &[u32]) -> Encoder {
        Encoder {
            codes: canonical_codes(lens),
        }
    }

    /// Emit the code for `sym` into `writer`.
    #[inline]
    pub fn encode(&self, writer: &mut BitWriter, sym: usize) {
        let (code, len) = self.codes[sym];
        debug_assert!(len > 0, "encoding absent symbol {sym}");
        writer.write_code(code, len);
    }
}

/// Serialize code lengths compactly: pairs of (length nibble-packed RLE).
///
/// Format: varint count, then bytes `(len << 4) | min(run,15)` with varint
/// continuation when run > 15.
pub fn write_lengths(dst: &mut Vec<u8>, lens: &[u32]) {
    crate::bitio::write_varint(dst, lens.len() as u64);
    for (l, run) in length_runs(lens) {
        debug_assert!(l <= 15);
        if run < 15 {
            dst.push(((l as u8) << 4) | run as u8);
        } else {
            dst.push(((l as u8) << 4) | 15);
            crate::bitio::write_varint(dst, (run - 15) as u64);
        }
    }
}

/// Bytes [`write_lengths`] writes for `lens`.
pub fn lengths_len(lens: &[u32]) -> usize {
    let runs: usize = length_runs(lens)
        .map(|(_, run)| match run {
            0..15 => 1,
            _ => 1 + varint_len((run - 15) as u64),
        })
        .sum();
    varint_len(lens.len() as u64) + runs
}

/// The `(length, run)` pairs of equal lengths that [`write_lengths`]
/// encodes, in order.
fn length_runs(lens: &[u32]) -> impl Iterator<Item = (u32, usize)> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let l = *lens.get(i)?;
        let run = lens[i..].iter().take_while(|&&x| x == l).count();
        i += run;
        Some((l, run))
    })
}

/// Deserialize code lengths written by [`write_lengths`].
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] on truncation or count mismatch.
pub fn read_lengths(src: &[u8], pos: &mut usize) -> Result<Vec<u32>> {
    let count = crate::bitio::read_varint(src, pos)? as usize;
    if count > 1 << 20 {
        return Err(CodecError::Corrupt("absurd alphabet size"));
    }
    let mut lens = Vec::with_capacity(count);
    while lens.len() < count {
        let byte = *src
            .get(*pos)
            .ok_or(CodecError::Corrupt("lengths truncated"))?;
        *pos += 1;
        let l = (byte >> 4) as u32;
        let mut run = (byte & 0xf) as usize;
        if run == 15 {
            run = 15 + crate::bitio::read_varint(src, pos)? as usize;
        }
        if lens.len() + run > count {
            return Err(CodecError::Corrupt("length run overflows alphabet"));
        }
        lens.extend(std::iter::repeat_n(l, run));
    }
    Ok(lens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::{BitReader, BitWriter};

    #[test]
    fn skewed_frequencies_round_trip() {
        let mut freqs = vec![0u64; 64];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = ((i * i) % 97) as u64;
        }
        freqs[3] = 100_000; // Force a very short code somewhere.
        let lens = code_lengths(&freqs);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();

        let symbols: Vec<usize> = (0..64).filter(|&s| freqs[s] > 0).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn single_symbol_alphabet() {
        let freqs = vec![0u64, 0, 7, 0];
        let lens = code_lengths(&freqs);
        assert_eq!(lens[2], 1);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for _ in 0..5 {
            enc.encode(&mut w, 2);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for _ in 0..5 {
            assert_eq!(dec.decode(&mut r).unwrap(), 2);
        }
    }

    #[test]
    fn lengths_respect_limit() {
        // Fibonacci-ish frequencies produce maximally skewed trees.
        let mut freqs = vec![1u64; 40];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
        // Kraft inequality must hold.
        let unit = 1u64 << MAX_CODE_LEN;
        let used: u64 = lens.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
        assert!(used <= unit, "kraft violated: {used} > {unit}");
    }

    #[test]
    fn lengths_serialization_round_trip() {
        let lens: Vec<u32> = vec![
            0, 0, 0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 3, 2, 0,
        ];
        let mut buf = Vec::new();
        write_lengths(&mut buf, &lens);
        assert_eq!(buf.len(), lengths_len(&lens));
        let mut pos = 0;
        let restored = read_lengths(&buf, &mut pos).unwrap();
        assert_eq!(restored, lens);
        assert_eq!(pos, buf.len());
        // A run past 15 + 127 takes a two-byte varint.
        let long = vec![7u32; 300];
        let mut buf = Vec::new();
        write_lengths(&mut buf, &long);
        assert_eq!(buf.len(), lengths_len(&long));
    }

    #[test]
    fn oversubscribed_code_rejected() {
        // Three symbols of length 1 is invalid.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }
}
