//! Co-located workloads (§9(v): "support for co-located applications").
//!
//! Multi-tenant cloud hosts run several applications with different access
//! skews and data compressibility on one machine — the paper's §3.4
//! motivation for multiple compressed tiers. [`CoLocated`] interleaves any
//! number of tenant workloads into one address space: each tenant gets a
//! contiguous, region-aligned address slice, and accesses are drawn from the
//! tenants in a configurable ratio.

use crate::corpus::PageClass;
use crate::{Access, Workload, PAGE_SIZE};

/// Per-tenant entry.
struct Tenant {
    workload: Box<dyn Workload>,
    /// Byte offset of this tenant's slice in the combined address space.
    base: u64,
    /// Relative access weight.
    weight: u64,
}

/// Several workloads sharing one machine/address space.
pub struct CoLocated {
    name: String,
    description: String,
    tenants: Vec<Tenant>,
    total_bytes: u64,
    /// Weighted round-robin state.
    tick: u64,
    weight_sum: u64,
}

impl CoLocated {
    /// Alignment of tenant slices: 2 MiB so tenants never share a region.
    const SLICE_ALIGN: u64 = 2 << 20;

    /// Combine `workloads` with equal access weights.
    pub fn equal(workloads: Vec<Box<dyn Workload>>) -> Self {
        let n = workloads.len();
        Self::weighted(workloads.into_iter().map(|w| (w, 1u64)).collect(), n)
    }

    /// Combine weighted tenants. `_hint` is unused (kept for call-site
    /// clarity about the tenant count).
    pub fn weighted(tenants_in: Vec<(Box<dyn Workload>, u64)>, _hint: usize) -> Self {
        assert!(!tenants_in.is_empty(), "at least one tenant");
        let mut tenants = Vec::with_capacity(tenants_in.len());
        let mut base = 0u64;
        let mut names = Vec::new();
        let mut weight_sum = 0u64;
        for (w, weight) in tenants_in {
            let weight = weight.max(1);
            names.push(w.name().to_string());
            let bytes = w.rss_bytes().div_ceil(Self::SLICE_ALIGN) * Self::SLICE_ALIGN;
            tenants.push(Tenant {
                workload: w,
                base,
                weight,
            });
            base += bytes;
            weight_sum += weight;
        }
        CoLocated {
            name: format!("colocated({})", names.join("+")),
            description: format!(
                "{} co-located tenants sharing one tiered machine",
                names.len()
            ),
            tenants,
            total_bytes: base,
            tick: 0,
            weight_sum,
        }
    }

    /// The address range (bytes) of tenant `i`.
    pub fn tenant_range(&self, i: usize) -> std::ops::Range<u64> {
        let t = &self.tenants[i];
        t.base..t.base + t.workload.rss_bytes()
    }

    fn tenant_of_page(&self, page: u64) -> Option<(usize, u64)> {
        let addr = page * PAGE_SIZE as u64;
        for (i, t) in self.tenants.iter().enumerate() {
            if addr >= t.base && addr < t.base + t.workload.rss_bytes() {
                return Some((i, (addr - t.base) / PAGE_SIZE as u64));
            }
        }
        None
    }
}

impl Workload for CoLocated {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn rss_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn page_class(&self, page: u64) -> PageClass {
        match self.tenant_of_page(page) {
            Some((i, local)) => self.tenants[i].workload.page_class(local),
            None => PageClass::Zero, // Alignment padding between slices.
        }
    }

    fn content_seed(&self) -> u64 {
        // Tenants use their own seeds via fill_page below.
        0xC01C0
    }

    fn fill_page(&self, page: u64, buf: &mut [u8]) {
        match self.tenant_of_page(page) {
            Some((i, local)) => self.tenants[i].workload.fill_page(local, buf),
            None => buf.fill(0),
        }
    }

    fn next_access(&mut self) -> Access {
        // Weighted round-robin over tenants.
        self.tick += 1;
        let mut slot = self.tick % self.weight_sum;
        let mut idx = 0;
        for (i, t) in self.tenants.iter().enumerate() {
            if slot < t.weight {
                idx = i;
                break;
            }
            slot -= t.weight;
        }
        let base = self.tenants[idx].base;
        let a = self.tenants[idx].workload.next_access();
        Access {
            addr: base + a.addr,
            is_store: a.is_store,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, WorkloadId};

    fn co() -> CoLocated {
        CoLocated::weighted(
            vec![
                (WorkloadId::MemcachedYcsb.build(Scale::TEST, 1), 3),
                (WorkloadId::Bfs.build(Scale::TEST, 2), 1),
            ],
            2,
        )
    }

    #[test]
    fn slices_are_disjoint_and_aligned() {
        let c = co();
        let r0 = c.tenant_range(0);
        let r1 = c.tenant_range(1);
        assert!(r0.end <= r1.start);
        assert_eq!(r1.start % CoLocated::SLICE_ALIGN, 0);
        assert!(c.rss_bytes() >= r1.end);
    }

    #[test]
    fn accesses_respect_weights() {
        let mut c = co();
        let r0 = c.tenant_range(0);
        let mut in0 = 0u64;
        let mut in1 = 0u64;
        for _ in 0..40_000 {
            let a = c.next_access();
            if r0.contains(&a.addr) {
                in0 += 1;
            } else {
                in1 += 1;
            }
            assert!(a.addr < c.rss_bytes());
        }
        let ratio = in0 as f64 / in1.max(1) as f64;
        assert!(ratio > 2.0 && ratio < 4.5, "weighted 3:1, got {ratio}");
    }

    #[test]
    fn page_content_delegates_to_tenant() {
        let c = co();
        let r1 = c.tenant_range(1);
        let page = r1.start / PAGE_SIZE as u64;
        // BFS offsets region is highly compressible.
        assert_eq!(c.page_class(page), PageClass::HighlyCompressible);
        let mut a = vec![0u8; PAGE_SIZE];
        let mut b = vec![0u8; PAGE_SIZE];
        c.fill_page(page, &mut a);
        c.fill_page(page, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn padding_pages_are_zero() {
        let c = co();
        let r0 = c.tenant_range(0);
        let pad_addr = r0.end;
        let r1 = c.tenant_range(1);
        if pad_addr < r1.start {
            let page = pad_addr / PAGE_SIZE as u64;
            assert_eq!(c.page_class(page), PageClass::Zero);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_tenancy_rejected() {
        let _ = CoLocated::weighted(vec![], 0);
    }
}
