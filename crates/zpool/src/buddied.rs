//! Buddied pools: zbud (2 slots/page) and z3fold (3 slots/page).
//!
//! Each backing page holds at most `slots` compressed objects whose sizes
//! sum to at most one page; a removal frees its bytes for the page's next
//! object (z3fold's in-page compaction). Pages with free slots are indexed
//! by free-space buckets at 64-byte "chunk" granularity, exactly like
//! zbud's unbuddied lists. An object's bytes live in their own allocation;
//! the pages account for the frames the kernel's layout would occupy.

use crate::{Handle, PoolError, PoolKind, PoolStats, ZPool};
use std::collections::HashMap;
use std::sync::Arc;
use ts_mem::{FrameNumber, Machine, NodeId, PAGE_SIZE};

/// zbud/z3fold chunk size for free-space bucketing.
const CHUNK: usize = 64;
const NBUCKETS: usize = PAGE_SIZE / CHUNK + 1;

#[derive(Debug)]
struct Slot {
    handle: u64,
    data: Box<[u8]>,
}

#[derive(Debug)]
struct Page {
    frame: FrameNumber,
    slots: Vec<Slot>,
    /// Index of the bucket this page currently sits in (or `usize::MAX`).
    bucket: usize,
    /// Position within that bucket's vector (for O(1) removal).
    bucket_pos: usize,
}

impl Page {
    fn used(&self) -> usize {
        self.slots.iter().map(|s| s.data.len()).sum()
    }

    fn free(&self) -> usize {
        PAGE_SIZE - self.used()
    }
}

/// A zbud/z3fold-style pool: bounded objects per page, chunk-bucketed reuse.
pub struct BuddiedPool {
    machine: Arc<Machine>,
    node: NodeId,
    max_slots: usize,
    pages: Vec<Option<Page>>,
    free_page_ids: Vec<usize>,
    /// `buckets[c]` = page ids with >= `c` free chunks and a free slot.
    buckets: Vec<Vec<usize>>,
    /// Live handle -> page id.
    handles: HashMap<u64, usize>,
    next_handle: u64,
    stats: PoolStats,
    faults: Option<Arc<ts_faults::FaultPlan>>,
    fault_salt: u64,
}

impl BuddiedPool {
    /// Create a pool with `max_slots` objects per page (2 = zbud, 3 = z3fold).
    ///
    /// # Panics
    ///
    /// Panics if `max_slots` is not 2 or 3 (the only kernel pool shapes).
    pub fn new(machine: Arc<Machine>, node: NodeId, max_slots: usize) -> Self {
        assert!(
            max_slots == 2 || max_slots == 3,
            "only zbud/z3fold shapes supported"
        );
        BuddiedPool {
            machine,
            node,
            max_slots,
            pages: Vec::new(),
            free_page_ids: Vec::new(),
            buckets: vec![Vec::new(); NBUCKETS],
            handles: HashMap::new(),
            next_handle: 1,
            stats: PoolStats::default(),
            faults: None,
            fault_salt: 0,
        }
    }

    fn bucket_of(free: usize, has_free_slot: bool) -> usize {
        if !has_free_slot {
            return usize::MAX;
        }
        free / CHUNK
    }

    fn unlink_from_bucket(&mut self, page_id: usize) {
        let (bucket, pos) = {
            let p = self.pages[page_id].as_ref().expect("live page");
            (p.bucket, p.bucket_pos)
        };
        if bucket == usize::MAX {
            return;
        }
        let vec = &mut self.buckets[bucket];
        let last = vec.len() - 1;
        vec.swap(pos, last);
        vec.pop();
        if pos < vec.len() {
            let moved = vec[pos];
            self.pages[moved].as_mut().expect("live page").bucket_pos = pos;
        }
        let p = self.pages[page_id].as_mut().expect("live page");
        p.bucket = usize::MAX;
    }

    fn link_to_bucket(&mut self, page_id: usize) {
        let (free, nslots) = {
            let p = self.pages[page_id].as_ref().expect("live page");
            (p.free(), p.slots.len())
        };
        let bucket = Self::bucket_of(free, nslots < self.max_slots);
        if bucket == usize::MAX {
            let p = self.pages[page_id].as_mut().expect("live page");
            p.bucket = usize::MAX;
            return;
        }
        let pos = self.buckets[bucket].len();
        self.buckets[bucket].push(page_id);
        let p = self.pages[page_id].as_mut().expect("live page");
        p.bucket = bucket;
        p.bucket_pos = pos;
    }

    /// Find a page able to take `size` bytes, preferring the fullest fit
    /// (first-fit ascending from the needed chunk count).
    fn find_page(&self, size: usize) -> Option<usize> {
        let need = size.div_ceil(CHUNK);
        (need..NBUCKETS).find_map(|b| self.buckets[b].first().copied())
    }

    fn new_page(&mut self) -> Result<usize, PoolError> {
        let frame = self
            .machine
            .node(self.node.0)
            .alloc_frame()
            .map_err(|_| PoolError::OutOfMemory)?;
        let page = Page {
            frame,
            slots: Vec::with_capacity(self.max_slots),
            bucket: usize::MAX,
            bucket_pos: 0,
        };
        let id = if let Some(id) = self.free_page_ids.pop() {
            self.pages[id] = Some(page);
            id
        } else {
            self.pages.push(Some(page));
            self.pages.len() - 1
        };
        self.stats.pool_pages += 1;
        Ok(id)
    }

    fn release_page(&mut self, page_id: usize) {
        let page = self.pages[page_id].take().expect("live page");
        self.machine
            .node(self.node.0)
            .free_frame(page.frame)
            .expect("pool frame is valid by construction");
        self.free_page_ids.push(page_id);
        self.stats.pool_pages -= 1;
    }
}

impl ZPool for BuddiedPool {
    fn kind(&self) -> PoolKind {
        if self.max_slots == 2 {
            PoolKind::Zbud
        } else {
            PoolKind::Z3fold
        }
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
        let page_id = match self.find_page(len) {
            Some(id) => {
                self.unlink_from_bucket(id);
                id
            }
            None => self.new_page()?,
        };
        let handle = self.next_handle;
        self.next_handle += 1;
        {
            let page = self.pages[page_id].as_mut().expect("live page");
            debug_assert!(page.used() + len <= PAGE_SIZE);
            debug_assert!(page.slots.len() < self.max_slots);
            page.slots.push(Slot { handle, data });
        }
        self.link_to_bucket(page_id);
        self.handles.insert(handle, page_id);
        self.stats.objects += 1;
        self.stats.stored_bytes += len as u64;
        self.stats.stores += 1;
        Ok(Handle(handle))
    }

    fn get(&self, handle: Handle) -> Result<&[u8], PoolError> {
        let &page_id = self.handles.get(&handle.0).ok_or(PoolError::BadHandle)?;
        let page = self.pages[page_id].as_ref().expect("live page");
        page.slots
            .iter()
            .find(|s| s.handle == handle.0)
            .map(|s| &*s.data)
            .ok_or(PoolError::BadHandle)
    }

    fn take(&mut self, handle: Handle) -> Result<Box<[u8]>, PoolError> {
        let page_id = self.handles.remove(&handle.0).ok_or(PoolError::BadHandle)?;
        self.unlink_from_bucket(page_id);
        let (data, emptied) = {
            let page = self.pages[page_id].as_mut().expect("live page");
            let idx = page
                .slots
                .iter()
                .position(|s| s.handle == handle.0)
                .ok_or(PoolError::BadHandle)?;
            let removed = page.slots.swap_remove(idx);
            (removed.data, page.slots.is_empty())
        };
        self.stats.objects -= 1;
        self.stats.stored_bytes -= data.len() as u64;
        if emptied {
            self.release_page(page_id);
        } else {
            self.link_to_bucket(page_id);
        }
        self.stats.removes += 1;
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

impl std::fmt::Debug for BuddiedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuddiedPool")
            .field("kind", &self.kind())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_mem::MediaKind;

    fn pool(slots: usize) -> BuddiedPool {
        let m = Arc::new(Machine::builder().node(MediaKind::Dram, 4 << 20).build());
        BuddiedPool::new(m, NodeId(0), slots)
    }

    #[test]
    fn zbud_two_objects_share_a_page() {
        let mut p = pool(2);
        let a = p.store(&[1u8; 1000]).unwrap();
        let b = p.store(&[2u8; 1000]).unwrap();
        assert_eq!(p.stats().pool_pages, 1);
        let c = p.store(&[3u8; 1000]).unwrap();
        assert_eq!(p.stats().pool_pages, 2, "third object needs a new page");
        for (h, v) in [(a, 1u8), (b, 2), (c, 3)] {
            let mut out = Vec::new();
            p.load(h, &mut out).unwrap();
            assert_eq!(out, vec![v; 1000]);
        }
    }

    #[test]
    fn z3fold_three_objects_share_a_page() {
        let mut p = pool(3);
        for i in 0..3u8 {
            p.store(&[i; 1300]).unwrap();
        }
        assert_eq!(p.stats().pool_pages, 1);
        p.store(&[9u8; 1300]).unwrap();
        assert_eq!(p.stats().pool_pages, 2);
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut p = pool(2);
        let a = p.store(&[1u8; 2000]).unwrap();
        let _b = p.store(&[2u8; 2000]).unwrap();
        p.remove(a).unwrap();
        // Freed slot should be reused, not a new page.
        let _c = p.store(&[3u8; 2000]).unwrap();
        assert_eq!(p.stats().pool_pages, 1);
    }

    #[test]
    fn removal_frees_space_and_keeps_survivors() {
        let mut p = pool(3);
        let a = p.store(&[0xAAu8; 700]).unwrap();
        let b = p.store(&[0xBBu8; 900]).unwrap();
        let c = p.store(&[0xCCu8; 1100]).unwrap();
        p.remove(b).unwrap();
        for (h, v, n) in [(a, 0xAAu8, 700usize), (c, 0xCC, 1100)] {
            let mut out = Vec::new();
            p.load(h, &mut out).unwrap();
            assert_eq!(out, vec![v; n]);
        }
        // Reuse the freed space.
        let d = p.store(&[0xDDu8; 900]).unwrap();
        assert_eq!(p.stats().pool_pages, 1);
        let mut out = Vec::new();
        p.load(d, &mut out).unwrap();
        assert_eq!(out, vec![0xDD; 900]);
    }

    #[test]
    fn big_object_cannot_share() {
        let mut p = pool(2);
        p.store(&[1u8; PAGE_SIZE]).unwrap();
        assert_eq!(p.stats().pool_pages, 1);
        p.store(&[2u8; 10]).unwrap();
        assert_eq!(p.stats().pool_pages, 2, "full page has no free space");
    }

    #[test]
    fn page_released_when_empty() {
        let mut p = pool(2);
        let a = p.store(&[1u8; 100]).unwrap();
        let b = p.store(&[2u8; 100]).unwrap();
        p.remove(a).unwrap();
        assert_eq!(p.stats().pool_pages, 1);
        p.remove(b).unwrap();
        assert_eq!(p.stats().pool_pages, 0);
    }

    #[test]
    fn interleaved_stress() {
        let mut p = pool(3);
        let mut live: Vec<(Handle, u8, usize)> = Vec::new();
        let mut x = 7u64;
        for round in 0..2000u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (x >> 33) as usize;
            if live.len() > 300 || (!live.is_empty() && r.is_multiple_of(3)) {
                let idx = r % live.len();
                let (h, v, n) = live.swap_remove(idx);
                let mut out = Vec::new();
                p.load(h, &mut out).unwrap();
                assert_eq!(out, vec![v; n], "round {round}");
                p.remove(h).unwrap();
            } else {
                let n = 64 + r % 1900;
                let v = (round % 251) as u8;
                let h = p.store(&vec![v; n]).unwrap();
                live.push((h, v, n));
            }
        }
        // Everything left must still load correctly.
        for (h, v, n) in live {
            let mut out = Vec::new();
            p.load(h, &mut out).unwrap();
            assert_eq!(out, vec![v; n]);
            p.remove(h).unwrap();
        }
        assert_eq!(p.stats().pool_pages, 0);
        assert_eq!(p.stats().objects, 0);
    }
}
