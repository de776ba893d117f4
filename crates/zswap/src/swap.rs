//! The backing swap device of pool-limit writeback.
//!
//! Kernel zswap bounds its pools (`max_pool_percent`) and, under pressure,
//! writes the oldest compressed objects back to the real swap device. A
//! [`SwapDevice`] models that block device (milliseconds-class latency,
//! near-zero $/GB); the simulator (`ts_sim`) decides which objects leave a
//! tier and when. TierScape's daemon normally keeps pools bounded via the
//! §6.7 filter, but writeback is the kernel's backstop when it cannot.

use crate::{ZswapError, ZswapResult};
use std::collections::BTreeMap;

/// A slot on the swap device holding one written-back page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwapSlot(pub u64);

/// Modeled swap block device.
#[derive(Debug, Default)]
pub struct SwapDevice {
    slots: BTreeMap<u64, Vec<u8>>,
    next: u64,
}

impl SwapDevice {
    /// Read latency of one page-sized I/O (NVMe-class), in ns.
    pub const READ_NS: f64 = 80_000.0;
    /// Write latency of one page-sized I/O, in ns.
    pub const WRITE_NS: f64 = 20_000.0;
    /// $/GB of swap-backing flash, normalized to DRAM = 3.0.
    pub const COST_PER_GB: f64 = 0.03;

    /// Create an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `data`, returning the slot.
    pub fn write(&mut self, data: Vec<u8>) -> SwapSlot {
        let slot = self.next;
        self.next += 1;
        self.slots.insert(slot, data);
        SwapSlot(slot)
    }

    /// Read and free a slot.
    ///
    /// # Errors
    ///
    /// [`ZswapError::Pool`] (stale handle semantics) when the slot is free.
    pub fn read(&mut self, slot: SwapSlot) -> ZswapResult<Vec<u8>> {
        self.slots
            .remove(&slot.0)
            .ok_or(ZswapError::Pool(ts_zpool::PoolError::BadHandle))
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.slots.values().map(|v| v.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TierConfig;
    use crate::tier::{CompressedTier, TierId};
    use std::sync::Arc;
    use ts_mem::{Machine, MediaKind, PAGE_SIZE};

    fn tier() -> CompressedTier {
        let machine = Arc::new(
            Machine::builder()
                .node(MediaKind::Dram, 32 << 20)
                .node(MediaKind::Nvmm, 32 << 20)
                .build(),
        );
        CompressedTier::new(TierId(0), TierConfig::ct1(), machine).unwrap()
    }

    fn page(tag: u8) -> Vec<u8> {
        let mut p = Vec::with_capacity(PAGE_SIZE);
        while p.len() < PAGE_SIZE {
            p.extend_from_slice(&[tag, b'-', tag.wrapping_add(3), b';']);
        }
        p.truncate(PAGE_SIZE);
        p
    }

    #[test]
    fn swapped_in_bytes_decompress_to_the_original_page() {
        let mut t = tier();
        let mut dev = SwapDevice::new();
        let s = t.store(&page(9)).unwrap();
        let slot = dev.write(t.peek_compressed(s).unwrap());
        t.invalidate(s).unwrap();
        assert_eq!(t.pool_stats().pool_bytes(), 0);
        let bytes = dev.read(slot).unwrap();
        let codec = t.config().algorithm.codec();
        let mut out = vec![0u8; PAGE_SIZE];
        crate::decode_page(codec.as_ref(), &bytes, &mut out).unwrap();
        assert_eq!(out, page(9));
        // Slot freed after read.
        assert!(dev.read(slot).is_err());
        assert_eq!(dev.used_bytes(), 0);
        // A truncated slot is a codec error on swap-in, whether the cut
        // lands inside an op or between two (a short page).
        for cut in 1..bytes.len() {
            let slot = dev.write(bytes[..cut].to_vec());
            let short = dev.read(slot).unwrap();
            assert!(
                matches!(
                    crate::decode_page(codec.as_ref(), &short, &mut out),
                    Err(crate::ZswapError::Codec(_))
                ),
                "slot cut to {cut} of {} bytes",
                bytes.len()
            );
        }
    }

    // Pins the cost-model geometry the writeback economics rely on.
    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn swap_is_by_far_the_cheapest_medium() {
        assert!(SwapDevice::COST_PER_GB < 0.2);
        assert!(
            SwapDevice::READ_NS > 10.0 * 2_500.0,
            "and by far the slowest"
        );
    }
}
