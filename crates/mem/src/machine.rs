//! Machine topology: NUMA nodes of different media with buddy-managed frames.

use crate::buddy::{BuddyAllocator, BuddyError};
use crate::media::{MediaKind, MediaSpec};
use crate::{FrameNumber, PhysFrame, PAGE_SIZE};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Identifier of a NUMA node within a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A NUMA node: one medium plus a buddy allocator over its frames.
#[derive(Debug)]
pub struct NumaNode {
    id: NodeId,
    spec: MediaSpec,
    capacity_bytes: u64,
    buddy: Mutex<BuddyAllocator>,
}

impl NumaNode {
    /// Create a node of `capacity_bytes` (rounded down to whole frames).
    pub fn new(id: NodeId, spec: MediaSpec, capacity_bytes: u64) -> Self {
        let nframes = capacity_bytes / PAGE_SIZE as u64;
        NumaNode {
            id,
            spec,
            capacity_bytes: nframes * PAGE_SIZE as u64,
            buddy: Mutex::new(BuddyAllocator::new(nframes)),
        }
    }

    /// The node's allocator. A panic on another thread while it held the
    /// lock does not poison it: the allocator is used as that thread left it.
    fn buddy(&self) -> MutexGuard<'_, BuddyAllocator> {
        self.buddy.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Medium specification of this node.
    pub fn spec(&self) -> &MediaSpec {
        &self.spec
    }

    /// Medium kind of this node.
    pub fn kind(&self) -> MediaKind {
        self.spec.kind
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.buddy().free_frames() * PAGE_SIZE as u64
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.capacity_bytes - self.free_bytes()
    }

    /// Fraction of capacity in use, in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        if self.capacity_bytes == 0 {
            return 1.0;
        }
        self.used_bytes() as f64 / self.capacity_bytes as f64
    }

    /// Allocate one frame.
    ///
    /// # Errors
    ///
    /// [`BuddyError::OutOfMemory`] when the node is full.
    pub fn alloc_frame(&self) -> Result<FrameNumber, BuddyError> {
        self.buddy().alloc(0)
    }

    /// Allocate `2^order` contiguous frames.
    ///
    /// # Errors
    ///
    /// See [`BuddyAllocator::alloc`].
    pub fn alloc_block(&self, order: u32) -> Result<FrameNumber, BuddyError> {
        self.buddy().alloc(order)
    }

    /// Free a frame or block previously allocated from this node.
    ///
    /// # Errors
    ///
    /// [`BuddyError::InvalidFree`] on double free or unknown frame.
    pub fn free_frame(&self, frame: FrameNumber) -> Result<(), BuddyError> {
        self.buddy().free(frame)
    }
}

/// A machine: an ordered set of NUMA nodes (fastest medium first by
/// convention, matching the paper's tier ordering).
#[derive(Debug)]
pub struct Machine {
    nodes: Vec<NumaNode>,
}

impl Machine {
    /// Start building a machine.
    pub fn builder() -> MachineBuilder {
        MachineBuilder { nodes: Vec::new() }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[NumaNode] {
        &self.nodes
    }

    /// Node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (machine topology is fixed at build
    /// time, so an out-of-range id is a programming error).
    pub fn node(&self, id: usize) -> &NumaNode {
        &self.nodes[id]
    }

    /// First node of the given medium kind, if any.
    pub fn node_of_kind(&self, kind: MediaKind) -> Option<&NumaNode> {
        self.nodes.iter().find(|n| n.kind() == kind)
    }

    /// Allocate a frame on a specific node.
    ///
    /// # Errors
    ///
    /// See [`NumaNode::alloc_frame`].
    pub fn alloc_on(&self, node: NodeId, order: u32) -> Result<PhysFrame, BuddyError> {
        let frame = self.nodes[node.0].alloc_block(order)?;
        Ok(PhysFrame { node, frame })
    }

    /// Free a machine-wide frame.
    ///
    /// # Errors
    ///
    /// See [`NumaNode::free_frame`].
    pub fn free(&self, frame: PhysFrame) -> Result<(), BuddyError> {
        self.nodes[frame.node.0].free_frame(frame.frame)
    }

    /// Total capacity across all nodes, in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.capacity_bytes()).sum()
    }
}

/// Builder for [`Machine`].
#[derive(Debug)]
pub struct MachineBuilder {
    nodes: Vec<(MediaSpec, u64)>,
}

impl MachineBuilder {
    /// Add a node of `kind` with default spec and `capacity_bytes` capacity.
    pub fn node(mut self, kind: MediaKind, capacity_bytes: u64) -> Self {
        self.nodes.push((kind.default_spec(), capacity_bytes));
        self
    }

    /// Finish building.
    pub fn build(self) -> Machine {
        Machine {
            nodes: self
                .nodes
                .into_iter()
                .enumerate()
                .map(|(i, (spec, cap))| NumaNode::new(NodeId(i), spec, cap))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_machine() -> Machine {
        Machine::builder()
            .node(MediaKind::Dram, 1 << 20)
            .node(MediaKind::Nvmm, 4 << 20)
            .build()
    }

    #[test]
    fn builder_orders_nodes() {
        let m = small_machine();
        assert_eq!(m.nodes().len(), 2);
        assert_eq!(m.node(0).kind(), MediaKind::Dram);
        assert_eq!(m.node(1).kind(), MediaKind::Nvmm);
        assert_eq!(m.total_bytes(), (1 << 20) + (4 << 20));
    }

    #[test]
    fn node_of_kind_lookup() {
        let m = small_machine();
        assert_eq!(m.node_of_kind(MediaKind::Nvmm).unwrap().id(), NodeId(1));
        assert!(m.node_of_kind(MediaKind::Cxl).is_none());
    }

    #[test]
    fn alloc_and_pressure() {
        let m = small_machine();
        assert_eq!(m.node(0).pressure(), 0.0);
        let nframes = (1 << 20) / PAGE_SIZE;
        let frames: Vec<_> = (0..nframes / 2)
            .map(|_| m.alloc_on(NodeId(0), 0).unwrap())
            .collect();
        assert!((m.node(0).pressure() - 0.5).abs() < 0.01);
        for f in frames {
            m.free(f).unwrap();
        }
        assert_eq!(m.node(0).pressure(), 0.0);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let m = Machine::builder()
            .node(MediaKind::Dram, 16 * PAGE_SIZE as u64)
            .build();
        let mut ok = 0;
        while m.alloc_on(NodeId(0), 0).is_ok() {
            ok += 1;
        }
        assert_eq!(ok, 16);
    }

    #[test]
    fn capacity_rounds_down_to_frames() {
        let n = NumaNode::new(
            NodeId(0),
            MediaKind::Dram.default_spec(),
            PAGE_SIZE as u64 * 3 + 17,
        );
        assert_eq!(n.capacity_bytes(), PAGE_SIZE as u64 * 3);
    }
}
