//! zsmalloc: size-class allocator with multi-page zspages.
//!
//! Objects are rounded up to a 16-byte size class. Each class stores objects
//! in "zspages" — groups of 1..=4 backing pages sized to minimize per-class
//! waste (as in the kernel's `get_pages_per_zspage`). Each object takes one
//! `class_size` slot, so the achievable density approaches the raw
//! compression ratio — the paper's "best space efficiency" pool, at the
//! price of the highest management overhead. An object's bytes live in
//! their own allocation; the zspages account for the slots and backing
//! frames the kernel's layout would occupy.

use crate::{Handle, PoolError, PoolKind, PoolStats, ZPool};
use std::collections::HashMap;
use std::sync::Arc;
use ts_mem::{FrameNumber, Machine, NodeId, PAGE_SIZE};

/// Size-class granularity (kernel: `ZS_SIZE_CLASS_DELTA` ≈ 16).
const CLASS_DELTA: usize = 16;
/// Smallest class.
const MIN_CLASS: usize = 32;
/// Largest zspage in pages (kernel: `ZS_MAX_PAGES_PER_ZSPAGE` = 4).
const MAX_PAGES_PER_ZSPAGE: usize = 4;

/// Round `size` up to its class size.
fn class_size_for(size: usize) -> usize {
    size.max(MIN_CLASS).div_ceil(CLASS_DELTA) * CLASS_DELTA
}

/// Pages per zspage minimizing tail waste for `class_size`.
fn pages_per_zspage(class_size: usize) -> usize {
    let mut best = 1;
    let mut best_waste_per_page = usize::MAX;
    for n in 1..=MAX_PAGES_PER_ZSPAGE {
        let total = n * PAGE_SIZE;
        let waste = total % class_size;
        // Compare waste normalized per page to avoid biasing to large n.
        let scaled = waste * (MAX_PAGES_PER_ZSPAGE / n).max(1);
        if scaled < best_waste_per_page {
            best_waste_per_page = scaled;
            best = n;
        }
    }
    best
}

#[derive(Debug)]
struct Zspage {
    frames: Vec<FrameNumber>,
    /// The object in each slot, `None` for a free slot.
    objects: Vec<Option<Box<[u8]>>>,
    used_count: usize,
}

#[derive(Debug)]
struct SizeClass {
    pages_per_zspage: usize,
    objs_per_zspage: usize,
    zspages: Vec<Option<Zspage>>,
    free_zspage_ids: Vec<usize>,
    /// (zspage id, slot) pairs with a free slot.
    free_slots: Vec<(usize, usize)>,
}

impl SizeClass {
    fn new(class_size: usize) -> Self {
        let ppz = pages_per_zspage(class_size);
        SizeClass {
            pages_per_zspage: ppz,
            objs_per_zspage: ppz * PAGE_SIZE / class_size,
            zspages: Vec::new(),
            free_zspage_ids: Vec::new(),
            free_slots: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Location {
    class_idx: usize,
    zspage: usize,
    slot: usize,
}

/// zsmalloc-style dense pool.
pub struct ZsmallocPool {
    machine: Arc<Machine>,
    node: NodeId,
    classes: HashMap<usize, SizeClass>,
    handles: HashMap<u64, Location>,
    next_handle: u64,
    stats: PoolStats,
    faults: Option<Arc<ts_faults::FaultPlan>>,
    fault_salt: u64,
}

impl ZsmallocPool {
    /// Create a pool backed by `node` of `machine`.
    pub fn new(machine: Arc<Machine>, node: NodeId) -> Self {
        ZsmallocPool {
            machine,
            node,
            classes: HashMap::new(),
            handles: HashMap::new(),
            next_handle: 1,
            stats: PoolStats::default(),
            faults: None,
            fault_salt: 0,
        }
    }

    fn alloc_zspage(
        machine: &Machine,
        node: NodeId,
        class: &SizeClass,
    ) -> Result<Zspage, PoolError> {
        let mut frames = Vec::with_capacity(class.pages_per_zspage);
        for _ in 0..class.pages_per_zspage {
            match machine.node(node.0).alloc_frame() {
                Ok(f) => frames.push(f),
                Err(_) => {
                    for f in frames {
                        machine
                            .node(node.0)
                            .free_frame(f)
                            .expect("frames just allocated are valid");
                    }
                    return Err(PoolError::OutOfMemory);
                }
            }
        }
        let mut objects = Vec::new();
        objects.resize_with(class.objs_per_zspage, || None);
        Ok(Zspage {
            frames,
            objects,
            used_count: 0,
        })
    }
}

impl ZPool for ZsmallocPool {
    fn kind(&self) -> PoolKind {
        PoolKind::Zsmalloc
    }

    fn store_owned(&mut self, data: Box<[u8]>) -> Result<Handle, PoolError> {
        let len = data.len();
        if len > PAGE_SIZE {
            return Err(PoolError::ObjectTooLarge { size: len });
        }
        if let Some(plan) = &self.faults {
            // Keyed by the pool's store count: single-writer per tier, so
            // the decision sequence is scheduling-independent.
            if plan.trips(
                ts_faults::FaultSite::PoolAlloc,
                self.fault_salt ^ self.stats.stores,
            ) {
                return Err(PoolError::OutOfMemory);
            }
        }
        let class_size = class_size_for(len);
        let class = self
            .classes
            .entry(class_size)
            .or_insert_with(|| SizeClass::new(class_size));

        let (zsp_id, slot) = match class.free_slots.pop() {
            Some(pair) => pair,
            None => {
                let zspage = Self::alloc_zspage(&self.machine, self.node, class)?;
                self.stats.pool_pages += class.pages_per_zspage as u64;
                let id = if let Some(id) = class.free_zspage_ids.pop() {
                    class.zspages[id] = Some(zspage);
                    id
                } else {
                    class.zspages.push(Some(zspage));
                    class.zspages.len() - 1
                };
                // Publish all slots but the one we take now.
                for s in 1..class.objs_per_zspage {
                    class.free_slots.push((id, s));
                }
                (id, 0)
            }
        };
        let zsp = class.zspages[zsp_id].as_mut().expect("live zspage");
        debug_assert!(zsp.objects[slot].is_none());
        zsp.objects[slot] = Some(data);
        zsp.used_count += 1;

        let handle = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(
            handle,
            Location {
                class_idx: class_size,
                zspage: zsp_id,
                slot,
            },
        );
        self.stats.objects += 1;
        self.stats.stored_bytes += len as u64;
        self.stats.stores += 1;
        Ok(Handle(handle))
    }

    fn get(&self, handle: Handle) -> Result<&[u8], PoolError> {
        let loc = self.handles.get(&handle.0).ok_or(PoolError::BadHandle)?;
        self.classes
            .get(&loc.class_idx)
            .and_then(|class| class.zspages[loc.zspage].as_ref())
            .and_then(|zsp| zsp.objects[loc.slot].as_deref())
            .ok_or(PoolError::BadHandle)
    }

    fn take(&mut self, handle: Handle) -> Result<Box<[u8]>, PoolError> {
        let loc = self.handles.remove(&handle.0).ok_or(PoolError::BadHandle)?;
        let class = self
            .classes
            .get_mut(&loc.class_idx)
            .expect("class exists for live handle");
        let (data, emptied) = {
            let zsp = class.zspages[loc.zspage].as_mut().expect("live zspage");
            let data = zsp.objects[loc.slot].take().expect("live slot");
            zsp.used_count -= 1;
            (data, zsp.used_count == 0)
        };
        self.stats.objects -= 1;
        self.stats.stored_bytes -= data.len() as u64;
        self.stats.removes += 1;
        if emptied {
            // Release the whole zspage and drop its published free slots.
            let zsp = class.zspages[loc.zspage].take().expect("live zspage");
            for f in zsp.frames {
                self.machine
                    .node(self.node.0)
                    .free_frame(f)
                    .expect("zspage frames are valid by construction");
            }
            self.stats.pool_pages -= class.pages_per_zspage as u64;
            class.free_slots.retain(|&(z, _)| z != loc.zspage);
            class.free_zspage_ids.push(loc.zspage);
        } else {
            class.free_slots.push((loc.zspage, loc.slot));
        }
        Ok(data)
    }

    fn stats(&self) -> PoolStats {
        self.stats
    }

    fn set_fault_plan(&mut self, plan: Option<Arc<ts_faults::FaultPlan>>, salt: u64) {
        self.faults = plan;
        self.fault_salt = salt;
    }
}

impl std::fmt::Debug for ZsmallocPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZsmallocPool")
            .field("classes", &self.classes.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_mem::MediaKind;

    fn pool() -> ZsmallocPool {
        let m = Arc::new(Machine::builder().node(MediaKind::Dram, 16 << 20).build());
        ZsmallocPool::new(m, NodeId(0))
    }

    #[test]
    fn class_size_rounding() {
        assert_eq!(class_size_for(1), 32);
        assert_eq!(class_size_for(32), 32);
        assert_eq!(class_size_for(33), 48);
        assert_eq!(class_size_for(4096), 4096);
    }

    #[test]
    fn pages_per_zspage_minimizes_waste() {
        // 4096-byte class: exactly one object per page, zero waste at n=1.
        assert_eq!(pages_per_zspage(4096), 1);
        // 2048: two per page, zero waste.
        assert_eq!(pages_per_zspage(2048), 1);
        // 3072: n=1 wastes 1024; n=3 wastes 0.
        assert_eq!(pages_per_zspage(3072), 3);
    }

    #[test]
    fn dense_packing_density() {
        let mut p = pool();
        for _ in 0..1000 {
            p.store(&[7u8; 2048]).unwrap();
        }
        let d = p.stats().density();
        assert!(d > 0.95, "density {d}");
    }

    #[test]
    fn store_load_many_sizes() {
        let mut p = pool();
        let mut items = Vec::new();
        for i in 0..500usize {
            let n = 1 + (i * 97) % 4000;
            let v = (i % 251) as u8;
            let h = p.store(&vec![v; n]).unwrap();
            items.push((h, v, n));
        }
        for (h, v, n) in &items {
            let mut out = Vec::new();
            assert_eq!(p.load(*h, &mut out).unwrap(), *n);
            assert_eq!(out, vec![*v; *n]);
        }
        for (h, _, _) in items {
            p.remove(h).unwrap();
        }
        assert_eq!(p.stats().pool_pages, 0);
    }

    #[test]
    fn zspage_released_only_when_empty() {
        let mut p = pool();
        // 2048-byte class: 2 objects per zspage (1 page).
        let a = p.store(&[1u8; 2048]).unwrap();
        let b = p.store(&[2u8; 2048]).unwrap();
        assert_eq!(p.stats().pool_pages, 1);
        p.remove(a).unwrap();
        assert_eq!(p.stats().pool_pages, 1);
        p.remove(b).unwrap();
        assert_eq!(p.stats().pool_pages, 0);
    }

    #[test]
    fn freed_slot_reused_before_new_zspage() {
        let mut p = pool();
        let a = p.store(&[1u8; 2048]).unwrap();
        let _b = p.store(&[2u8; 2048]).unwrap();
        p.remove(a).unwrap();
        let _c = p.store(&[3u8; 2048]).unwrap();
        assert_eq!(p.stats().pool_pages, 1);
    }

    #[test]
    fn reused_slot_loads_only_the_new_object() {
        let mut p = pool();
        let a = p.store(&[0xFFu8; 100]).unwrap();
        p.remove(a).unwrap();
        // Reuse the same slot with a shorter object; the load must not
        // resurrect old bytes.
        let b = p.store(&[0x11u8; 40]).unwrap();
        let mut out = Vec::new();
        p.load(b, &mut out).unwrap();
        assert_eq!(out, vec![0x11u8; 40]);
    }

    #[test]
    fn out_of_memory_propagates() {
        let m = Arc::new(Machine::builder().node(MediaKind::Dram, 8 * 4096).build());
        let mut p = ZsmallocPool::new(m, NodeId(0));
        let mut stored = 0;
        loop {
            match p.store(&[9u8; 4096]) {
                Ok(_) => stored += 1,
                Err(PoolError::OutOfMemory) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(stored, 8);
    }
}
