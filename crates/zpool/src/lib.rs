#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # ts-zpool — compressed-object pool allocators
//!
//! Reimplements the three pool managers Linux offers for zswap (paper §2):
//!
//! * [`zsmalloc`](ZsmallocPool) — size-class allocator that densely packs
//!   compressed objects into multi-page "zspages". Best space efficiency,
//!   highest management overhead.
//! * [`zbud`](BuddiedPool) (`slots = 2`) — at most two objects per 4 KiB
//!   page, bounding space savings at 50 %, with very low overhead.
//! * [`z3fold`](BuddiedPool) (`slots = 3`) — three objects per page,
//!   bounding savings at ≈66 %.
//!
//! Pools draw their backing pages from a [`ts_mem::NumaNode`], so a pool can
//! be placed on DRAM, NVMM or CXL — the "backing media" dimension TierScape
//! adds to the Linux configuration space.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ts_mem::{Machine, MediaKind};
//! use ts_zpool::{PoolKind, ZPool};
//!
//! let machine = Arc::new(
//!     Machine::builder().node(MediaKind::Dram, 1 << 20).build(),
//! );
//! let mut pool = PoolKind::Zsmalloc.create(machine.clone(), ts_mem::NodeId(0));
//! let handle = pool.store(b"compressed bytes").unwrap();
//! let mut out = Vec::new();
//! pool.load(handle, &mut out).unwrap();
//! assert_eq!(out, b"compressed bytes");
//! pool.remove(handle).unwrap();
//! ```

pub mod buddied;
pub mod zsmalloc;

pub use buddied::BuddiedPool;
pub use zsmalloc::ZsmallocPool;

use std::sync::Arc;
use ts_mem::{Machine, NodeId, PAGE_SIZE};

/// Errors returned by pool operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The object is larger than a pool can store (> one page).
    ObjectTooLarge {
        /// Size of the rejected object.
        size: usize,
    },
    /// The backing node could not supply more pages.
    OutOfMemory,
    /// The handle does not name a live object.
    BadHandle,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::ObjectTooLarge { size } => write!(f, "object of {size} bytes too large"),
            PoolError::OutOfMemory => write!(f, "backing node out of memory"),
            PoolError::BadHandle => write!(f, "stale or invalid pool handle"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Opaque handle to a stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(pub u64);

/// The pool manager kinds supported by the kernel (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PoolKind {
    /// Dense size-class allocator.
    Zsmalloc,
    /// Two objects per page.
    Zbud,
    /// Three objects per page.
    Z3fold,
}

impl PoolKind {
    /// All pool kinds.
    pub const ALL: [PoolKind; 3] = [PoolKind::Zsmalloc, PoolKind::Zbud, PoolKind::Z3fold];

    /// Kernel-style lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PoolKind::Zsmalloc => "zsmalloc",
            PoolKind::Zbud => "zbud",
            PoolKind::Z3fold => "z3fold",
        }
    }

    /// Short code used in tier labels (Figure 2 encoding: ZS, ZB).
    pub fn short_name(self) -> &'static str {
        match self {
            PoolKind::Zsmalloc => "ZS",
            PoolKind::Zbud => "ZB",
            PoolKind::Z3fold => "Z3",
        }
    }

    /// Parse a kernel-style name.
    pub fn from_name(name: &str) -> Option<PoolKind> {
        Some(match name {
            "zsmalloc" => PoolKind::Zsmalloc,
            "zbud" => PoolKind::Zbud,
            "z3fold" => PoolKind::Z3fold,
            _ => return None,
        })
    }

    /// Instantiate a pool of this kind backed by `node` of `machine`.
    pub fn create(self, machine: Arc<Machine>, node: NodeId) -> Box<dyn ZPool> {
        match self {
            PoolKind::Zsmalloc => Box::new(ZsmallocPool::new(machine, node)),
            PoolKind::Zbud => Box::new(BuddiedPool::new(machine, node, 2)),
            PoolKind::Z3fold => Box::new(BuddiedPool::new(machine, node, 3)),
        }
    }

    /// Modeled per-operation management overhead in nanoseconds.
    ///
    /// zsmalloc's dense packing costs more bookkeeping per map/unmap than the
    /// buddied pools (paper §2: "relatively high memory management
    /// overheads"); these constants reproduce that ordering in the latency
    /// model and are validated by the characterization experiment (Fig. 2a).
    pub fn mgmt_overhead_ns(self) -> f64 {
        match self {
            PoolKind::Zsmalloc => 600.0,
            PoolKind::Zbud => 150.0,
            PoolKind::Z3fold => 250.0,
        }
    }

    /// Upper bound on achievable space savings for this pool: the maximum
    /// fraction of a page that can be reclaimed (zbud 50 %, z3fold ~66 %,
    /// zsmalloc bounded only by the compression ratio).
    pub fn max_savings(self) -> f64 {
        match self {
            PoolKind::Zsmalloc => 1.0,
            PoolKind::Zbud => 0.5,
            PoolKind::Z3fold => 2.0 / 3.0,
        }
    }
}

impl std::fmt::Display for PoolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregate statistics of a pool.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Live stored objects.
    pub objects: u64,
    /// Sum of payload sizes of live objects, in bytes.
    pub stored_bytes: u64,
    /// Backing pages currently allocated from the node.
    pub pool_pages: u64,
    /// Total store operations ever.
    pub stores: u64,
    /// Total remove operations ever.
    pub removes: u64,
}

impl PoolStats {
    /// Bytes of backing memory currently held.
    pub fn pool_bytes(&self) -> u64 {
        self.pool_pages * PAGE_SIZE as u64
    }

    /// Total pool operations ever (stores + removes); the cheap
    /// single-number activity counter the observability layer snapshots
    /// per window.
    pub fn ops_total(&self) -> u64 {
        self.stores + self.removes
    }

    /// Packing density: payload bytes per backing byte, in `[0, 1]`.
    ///
    /// Higher is better; zsmalloc approaches 1.0, zbud is bounded near the
    /// per-page slot economics.
    pub fn density(&self) -> f64 {
        let pb = self.pool_bytes();
        if pb == 0 {
            0.0
        } else {
            self.stored_bytes as f64 / pb as f64
        }
    }
}

/// A compressed-object pool.
///
/// Each object keeps its bytes in its own allocation; the pool accounts
/// for the slots, zspages or frames it occupies, which is what
/// [`PoolStats`] reports. `Sync` lets the migration engine's phase-A
/// threads read pooled objects ([`ZPool::get`]) through a shared borrow.
pub trait ZPool: Send + Sync {
    /// Which pool manager this is.
    fn kind(&self) -> PoolKind;

    /// Store `data`, taking ownership of its bytes, and return a handle.
    ///
    /// # Errors
    ///
    /// [`PoolError::ObjectTooLarge`] if `data` exceeds one page;
    /// [`PoolError::OutOfMemory`] if the backing node is exhausted.
    fn store_owned(&mut self, data: Box<[u8]>) -> Result<Handle, PoolError>;

    /// Store a copy of `data`, returning a handle.
    ///
    /// # Errors
    ///
    /// See [`ZPool::store_owned`].
    fn store(&mut self, data: &[u8]) -> Result<Handle, PoolError> {
        self.store_owned(data.into())
    }

    /// Borrow the object behind `handle`.
    ///
    /// # Errors
    ///
    /// [`PoolError::BadHandle`] if `handle` is stale.
    fn get(&self, handle: Handle) -> Result<&[u8], PoolError>;

    /// Read the object behind `handle`, appending to `dst`.
    ///
    /// # Errors
    ///
    /// [`PoolError::BadHandle`] if `handle` is stale.
    fn load(&self, handle: Handle, dst: &mut Vec<u8>) -> Result<usize, PoolError> {
        let data = self.get(handle)?;
        dst.extend_from_slice(data);
        Ok(data.len())
    }

    /// Remove the object behind `handle`, freeing its slot, and return
    /// its bytes.
    ///
    /// # Errors
    ///
    /// [`PoolError::BadHandle`] if `handle` is stale.
    fn take(&mut self, handle: Handle) -> Result<Box<[u8]>, PoolError>;

    /// Remove the object behind `handle`, freeing its slot.
    ///
    /// # Errors
    ///
    /// [`PoolError::BadHandle`] if `handle` is stale.
    fn remove(&mut self, handle: Handle) -> Result<(), PoolError> {
        self.take(handle).map(drop)
    }

    /// Current statistics.
    fn stats(&self) -> PoolStats;

    /// Per-operation management overhead in nanoseconds (modeled).
    fn mgmt_overhead_ns(&self) -> f64 {
        self.kind().mgmt_overhead_ns()
    }

    /// Install (or clear) a deterministic fault-injection plan.
    ///
    /// When a plan is present, `store` trips [`PoolError::OutOfMemory`]
    /// at the plan's `pool_alloc` rate, keyed by `salt ^ stores-count`
    /// so decisions are deterministic on single-writer paths. The
    /// default implementation ignores the plan (no injection).
    fn set_fault_plan(&mut self, _plan: Option<Arc<ts_faults::FaultPlan>>, _salt: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Arc<Machine> {
        Arc::new(
            Machine::builder()
                .node(ts_mem::MediaKind::Dram, 8 << 20)
                .build(),
        )
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in PoolKind::ALL {
            assert_eq!(PoolKind::from_name(kind.name()), Some(kind));
        }
        assert!(PoolKind::from_name("bogus").is_none());
    }

    #[test]
    fn overhead_ordering() {
        assert!(PoolKind::Zbud.mgmt_overhead_ns() < PoolKind::Z3fold.mgmt_overhead_ns());
        assert!(PoolKind::Z3fold.mgmt_overhead_ns() < PoolKind::Zsmalloc.mgmt_overhead_ns());
    }

    #[test]
    fn all_pools_store_load_remove() {
        let m = machine();
        for kind in PoolKind::ALL {
            let mut pool = kind.create(m.clone(), NodeId(0));
            let payloads: Vec<Vec<u8>> = (0..50)
                .map(|i| vec![i as u8; 100 + (i * 37) % 1800])
                .collect();
            let handles: Vec<_> = payloads.iter().map(|p| pool.store(p).unwrap()).collect();
            for (h, p) in handles.iter().zip(&payloads) {
                let mut out = Vec::new();
                pool.load(*h, &mut out).unwrap();
                assert_eq!(&out, p, "{kind}");
            }
            let stats = pool.stats();
            assert_eq!(stats.objects, 50);
            assert_eq!(
                stats.stored_bytes,
                payloads.iter().map(|p| p.len() as u64).sum::<u64>()
            );
            for h in handles {
                pool.remove(h).unwrap();
            }
            assert_eq!(pool.stats().objects, 0);
        }
    }

    #[test]
    fn density_ordering_zsmalloc_best() {
        let m = machine();
        // 1200-byte objects: zbud fits 2/page (wastes ~41%), z3fold fits 3
        // (wastes ~12%), zsmalloc packs near-perfectly.
        let mut densities = Vec::new();
        for kind in [PoolKind::Zbud, PoolKind::Z3fold, PoolKind::Zsmalloc] {
            let mut pool = kind.create(m.clone(), NodeId(0));
            for _ in 0..300 {
                pool.store(&vec![0xA5u8; 1200]).unwrap();
            }
            densities.push((kind, pool.stats().density()));
        }
        assert!(densities[0].1 < densities[1].1, "{densities:?}");
        assert!(densities[1].1 < densities[2].1, "{densities:?}");
    }

    #[test]
    fn stale_handle_rejected_everywhere() {
        let m = machine();
        for kind in PoolKind::ALL {
            let mut pool = kind.create(m.clone(), NodeId(0));
            let h = pool.store(b"x").unwrap();
            pool.remove(h).unwrap();
            let mut out = Vec::new();
            assert_eq!(pool.load(h, &mut out), Err(PoolError::BadHandle), "{kind}");
            assert_eq!(pool.get(h), Err(PoolError::BadHandle), "{kind}");
            assert_eq!(pool.take(h), Err(PoolError::BadHandle), "{kind}");
            assert_eq!(pool.remove(h), Err(PoolError::BadHandle), "{kind}");
        }
    }

    /// Objects of assorted sizes, several to a page in every pool.
    fn payloads() -> Vec<Vec<u8>> {
        (0..60u32)
            .map(|i| (0..40 + (i * 71) % 1900).map(|j| (i ^ j) as u8).collect())
            .collect()
    }

    #[test]
    fn take_matches_load_then_remove() {
        let m = machine();
        for kind in PoolKind::ALL {
            let (mut a, mut b) = (
                kind.create(m.clone(), NodeId(0)),
                kind.create(m.clone(), NodeId(0)),
            );
            let objects = payloads();
            let handles: Vec<_> = objects
                .iter()
                .map(|o| (a.store(o).unwrap(), b.store(o).unwrap()))
                .collect();
            // Every other object, so pages keep survivors and empty out.
            for (i, &(ha, hb)) in handles.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
                let mut loaded = Vec::new();
                a.load(ha, &mut loaded).unwrap();
                a.remove(ha).unwrap();
                let taken = b.take(hb).unwrap();
                assert_eq!(&*taken, &loaded[..], "{kind}: object {i}");
                assert_eq!(&*taken, &objects[i][..], "{kind}: object {i}");
                assert_eq!(a.stats(), b.stats(), "{kind}: object {i}");
            }
            for (i, &(ha, hb)) in handles.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
                assert_eq!(b.get(hb).unwrap(), &objects[i][..], "{kind}: survivor {i}");
                a.remove(ha).unwrap();
                b.take(hb).unwrap();
            }
            assert_eq!(a.stats(), b.stats(), "{kind}");
            assert_eq!(b.stats().pool_pages, 0, "{kind}");
        }
    }

    #[test]
    fn store_owned_matches_store() {
        let m = machine();
        for kind in PoolKind::ALL {
            let (mut a, mut b) = (
                kind.create(m.clone(), NodeId(0)),
                kind.create(m.clone(), NodeId(0)),
            );
            for o in payloads() {
                let ha = a.store(&o).unwrap();
                let hb = b.store_owned(o.clone().into_boxed_slice()).unwrap();
                assert_eq!(ha, hb, "{kind}");
                assert_eq!(b.get(hb).unwrap(), &o[..], "{kind}");
                assert_eq!(a.stats(), b.stats(), "{kind}");
            }
            let big = vec![0u8; PAGE_SIZE + 1].into_boxed_slice();
            assert_eq!(
                b.store_owned(big),
                Err(PoolError::ObjectTooLarge {
                    size: PAGE_SIZE + 1
                }),
                "{kind}"
            );
        }
    }

    #[test]
    fn oversized_object_rejected() {
        let m = machine();
        for kind in PoolKind::ALL {
            let mut pool = kind.create(m.clone(), NodeId(0));
            let big = vec![0u8; PAGE_SIZE + 1];
            assert_eq!(
                pool.store(&big),
                Err(PoolError::ObjectTooLarge {
                    size: PAGE_SIZE + 1
                }),
                "{kind}"
            );
        }
    }

    #[test]
    fn pool_pages_released_on_remove() {
        let m = machine();
        for kind in PoolKind::ALL {
            let mut pool = kind.create(m.clone(), NodeId(0));
            let handles: Vec<_> = (0..100)
                .map(|_| pool.store(&[1u8; 2000]).unwrap())
                .collect();
            assert!(pool.stats().pool_pages > 0);
            for h in handles {
                pool.remove(h).unwrap();
            }
            assert_eq!(
                pool.stats().pool_pages,
                0,
                "{kind} should release all pages"
            );
        }
    }
}
