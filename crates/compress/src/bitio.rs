//! Bit-granular readers and writers used by the entropy-coded codecs.
//!
//! Bits are packed least-significant-first within each byte, matching the
//! DEFLATE convention, so canonical Huffman codes can be emitted directly.

use crate::{CodecError, Result};

/// Append-only bit writer over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits accumulated but not yet flushed to `buf` (LSB-first).
    acc: u64,
    /// Number of valid bits in `acc` (always < 8 after `flush_acc`).
    nbits: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `count` bits of `bits` (LSB-first). `count` must be <= 57.
    #[inline]
    pub fn write_bits(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 57);
        debug_assert!(count == 64 || bits < (1u64 << count));
        self.acc |= bits << self.nbits;
        self.nbits += count;
        while self.nbits >= 8 {
            self.buf.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Write a canonical Huffman code. Codes are stored MSB-first in their
    /// `len`-bit representation, so reverse before emitting LSB-first.
    #[inline]
    pub fn write_code(&mut self, code: u32, len: u32) {
        let rev = reverse_bits(code, len);
        self.write_bits(rev as u64, len);
    }

    /// Pad to a byte boundary with zero bits and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.buf.push(self.acc as u8);
        }
        self.buf
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }
}

/// Reverse the low `len` bits of `code`.
#[inline]
pub fn reverse_bits(code: u32, len: u32) -> u32 {
    if len == 0 {
        return 0;
    }
    code.reverse_bits() >> (32 - len)
}

/// Bit reader over a byte slice, LSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.buf.len() {
            self.acc |= (self.buf[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `count` bits (LSB-first).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if the stream is exhausted.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        debug_assert!(count <= 57);
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CodecError::Corrupt("bitstream underrun"));
            }
        }
        let mask = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        let v = self.acc & mask;
        self.acc >>= count;
        self.nbits -= count;
        Ok(v)
    }

    /// Peek up to `count` bits without consuming. Missing trailing bits are
    /// zero-filled (needed by table-driven Huffman decode at stream end).
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u64 {
        if self.nbits < count {
            self.refill();
        }
        let mask = if count >= 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        self.acc & mask
    }

    /// Consume `count` bits previously peeked.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if fewer than `count` bits remain.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<()> {
        if self.nbits < count {
            return Err(CodecError::Corrupt("bitstream underrun on consume"));
        }
        self.acc >>= count;
        self.nbits -= count;
        Ok(())
    }
}

/// Write an unsigned LEB128 varint to `dst`.
pub fn write_varint(dst: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            dst.push(byte);
            return;
        }
        dst.push(byte | 0x80);
    }
}

/// Bytes [`write_varint`] writes for `v`.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Read an unsigned LEB128 varint from `src` starting at `*pos`.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] on truncation or overlong encoding.
pub fn read_varint(src: &[u8], pos: &mut usize) -> Result<u64> {
    let mut shift = 0u32;
    let mut v = 0u64;
    loop {
        let byte = *src
            .get(*pos)
            .ok_or(CodecError::Corrupt("varint truncated"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint overlong"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        let mut w = BitWriter::new();
        let values: Vec<(u64, u32)> = vec![
            (0b1, 1),
            (0b1010, 4),
            (0x3ff, 10),
            (0, 3),
            (0x1ffff, 17),
            (42, 7),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    #[test]
    fn peek_then_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0b1101, 4);
        w.write_bits(0b111, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4) & 0xf, 0b1101);
        r.consume(4).unwrap();
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
    }

    #[test]
    fn underrun_is_error() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b10, 2), 0b01);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0, 0), 0);
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let before = buf.len();
            write_varint(&mut buf, v);
            assert_eq!(buf.len() - before, varint_len(v), "{v}");
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncated_is_error() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }
}
