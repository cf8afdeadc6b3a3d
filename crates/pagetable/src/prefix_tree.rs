//! The "Prefix Tree Map" — the intermediate layer of the paper's Fig 2.
//!
//! Between the flat mathematical map (high-level spec) and the bit-level
//! implementation sits a 4-level prefix tree of mathematical maps: the
//! same *shape* as the hardware page table, but with abstract nodes
//! instead of physical frames and entries. The refinement splits into
//! two manageable steps — flat map ↔ prefix tree (pure data-structure
//! reasoning, checked here with genuine forward simulation) and prefix
//! tree ↔ bits in memory (checked in [`crate::interp`]).
//!
//! Structural invariant: **no empty directories**. Directories are
//! created only on the way to installing a leaf and removed as soon as
//! their last child goes; consequently "a directory exists at this slot"
//! implies "some mapping overlaps this slot's range", which is what makes
//! error behaviour line up with the high-level overlap check.

use std::collections::BTreeMap;

use veros_hw::{PAddr, VAddr, PAGE_4K};
use veros_spec::StateMachine;

use crate::high_spec::{AbsMap, AbsMapping, HighSpec};
use crate::ops::{MapRequest, PtError, PtOp, ResolveAnswer};

/// A node of the prefix tree.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Node {
    /// An inner node: child index (0..512) → child node.
    Directory(BTreeMap<u16, Node>),
    /// A leaf mapping; its level determines its size.
    Leaf(AbsMapping),
}

/// The 4-level prefix tree.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct PrefixTree {
    /// The level-4 directory (the root is always present, mirroring the
    /// hardware's always-present CR3 frame).
    pub root: BTreeMap<u16, Node>,
}

/// Index of `va` at `level` (4 = PML4 … 1 = PT). Shared by the tree
/// and the verified implementation, which walk the same levels.
#[expect(
    clippy::unreachable,
    reason = "a table has exactly four levels and every walk runs 4..=1"
)]
pub(crate) fn index_at(va: VAddr, level: u8) -> u16 {
    match level {
        4 => va.pml4_index() as u16,
        3 => va.pdpt_index() as u16,
        2 => va.pd_index() as u16,
        1 => va.pt_index() as u16,
        _ => unreachable!("no level {level}"),
    }
}

/// The size of the region one entry at `level` spans.
pub(crate) fn span_at(level: u8) -> u64 {
    PAGE_4K << (9 * (level - 1))
}

impl PrefixTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `map` operation; same preconditions and errors as the
    /// high-level spec.
    pub fn map(&mut self, req: &MapRequest) -> Result<(), PtError> {
        if !req.va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        if !req.va.is_aligned(req.size.bytes()) {
            return Err(PtError::MisalignedVa);
        }
        if !req.pa.is_aligned(req.size.bytes()) {
            return Err(PtError::MisalignedPa);
        }
        Self::map_rec(&mut self.root, 4, req)
    }

    fn map_rec(dir: &mut BTreeMap<u16, Node>, level: u8, req: &MapRequest) -> Result<(), PtError> {
        let idx = index_at(req.va, level);
        if level == req.size.leaf_level() {
            // A leaf goes here; any occupant (leaf or directory, the
            // latter nonempty by invariant) means overlap.
            if dir.contains_key(&idx) {
                return Err(PtError::AlreadyMapped);
            }
            dir.insert(
                idx,
                Node::Leaf(AbsMapping {
                    pa: req.pa.0,
                    size: req.size,
                    flags: req.flags,
                }),
            );
            return Ok(());
        }
        match dir.get_mut(&idx) {
            Some(Node::Leaf(_)) => Err(PtError::AlreadyMapped),
            Some(Node::Directory(child)) => Self::map_rec(child, level - 1, req),
            None => {
                // Create the child directory, insert, and keep the
                // no-empty-dirs invariant: the recursive call at
                // leaf-creation depth cannot fail (fresh directories are
                // empty), so the new directory always ends up populated.
                let mut child = BTreeMap::new();
                let result = Self::map_rec(&mut child, level - 1, req);
                debug_assert!(result.is_ok(), "insert into fresh directory cannot fail");
                dir.insert(idx, Node::Directory(child));
                result
            }
        }
    }

    /// The `unmap` operation: removes the mapping based exactly at `va`.
    pub fn unmap(&mut self, va: VAddr) -> Result<AbsMapping, PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        if !va.is_aligned(PAGE_4K) {
            return Err(PtError::MisalignedVa);
        }
        Self::unmap_rec(&mut self.root, 4, va)
    }

    fn unmap_rec(
        dir: &mut BTreeMap<u16, Node>,
        level: u8,
        va: VAddr,
    ) -> Result<AbsMapping, PtError> {
        let idx = index_at(va, level);
        match dir.get_mut(&idx) {
            None => Err(PtError::NotMapped),
            Some(Node::Leaf(m)) => {
                // The leaf's base is va with all lower-level indices and
                // the offset zeroed; unmap requires va to *be* the base.
                if va.is_aligned(span_at(level)) {
                    let m = *m;
                    dir.remove(&idx);
                    Ok(m)
                } else {
                    Err(PtError::NotMapped)
                }
            }
            Some(Node::Directory(child)) => {
                let m = Self::unmap_rec(child, level - 1, va)?;
                if child.is_empty() {
                    // Maintain the no-empty-dirs invariant.
                    dir.remove(&idx);
                }
                Ok(m)
            }
        }
    }

    /// The `resolve` operation: the translation of an arbitrary address.
    pub fn resolve(&self, va: VAddr) -> Result<ResolveAnswer, PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        let mut dir = &self.root;
        let mut level = 4u8;
        loop {
            let idx = index_at(va, level);
            match dir.get(&idx) {
                None => return Err(PtError::NotMapped),
                Some(Node::Leaf(m)) => {
                    let base = VAddr(va.0 & !(span_at(level) - 1));
                    return Ok(ResolveAnswer {
                        pa: PAddr(m.pa + (va.0 - base.0)),
                        base,
                        size: m.size,
                        flags: m.flags,
                    });
                }
                Some(Node::Directory(child)) => {
                    dir = child;
                    level -= 1;
                }
            }
        }
    }

    /// Applies any [`PtOp`] (the differential-check entry point).
    pub fn apply(&mut self, op: &PtOp) -> Result<Option<ResolveAnswer>, PtError> {
        match op {
            PtOp::Map(req) => self.map(req).map(|()| None),
            PtOp::Unmap(va) => self.unmap(*va).map(|m| {
                Some(ResolveAnswer {
                    pa: PAddr(m.pa),
                    base: *va,
                    size: m.size,
                    flags: m.flags,
                })
            }),
            PtOp::Resolve(va) => self.resolve(*va).map(Some),
        }
    }

    /// Flattens the tree into the high-level mathematical map — the
    /// abstraction function of the first refinement step.
    pub fn flatten(&self) -> AbsMap {
        let mut out = AbsMap::new();
        Self::flatten_rec(&self.root, 4, 0, &mut out);
        out
    }

    fn flatten_rec(dir: &BTreeMap<u16, Node>, level: u8, base: u64, out: &mut AbsMap) {
        for (idx, node) in dir {
            let child_base = base + *idx as u64 * span_at(level);
            // Sign-extend at the root to produce canonical addresses.
            let child_base = if level == 4 && *idx >= 256 {
                child_base | 0xffff_0000_0000_0000
            } else {
                child_base
            };
            match node {
                Node::Leaf(m) => {
                    out.insert(child_base, *m);
                }
                Node::Directory(child) => Self::flatten_rec(child, level - 1, child_base, out),
            }
        }
    }

    /// Structural well-formedness: no empty directories, leaves only at
    /// levels 3/2/1 with the matching size, physical bases aligned.
    pub fn wf(&self) -> bool {
        Self::wf_rec(&self.root, 4, true)
    }

    fn wf_rec(dir: &BTreeMap<u16, Node>, level: u8, is_root: bool) -> bool {
        if dir.is_empty() && !is_root {
            return false;
        }
        dir.iter().all(|(idx, node)| {
            if *idx >= 512 {
                return false;
            }
            match node {
                Node::Leaf(m) => level <= 3 && m.size.leaf_level() == level && m.pa % m.size.bytes() == 0,
                Node::Directory(child) => level > 1 && Self::wf_rec(child, level - 1, false),
            }
        })
    }

    /// Number of directory nodes (excluding the root), which must equal
    /// the number of directory frames the bit-level implementation holds.
    pub fn directory_count(&self) -> usize {
        fn rec(dir: &BTreeMap<u16, Node>) -> usize {
            dir.values()
                .map(|n| match n {
                    Node::Directory(c) => 1 + rec(c),
                    Node::Leaf(_) => 0,
                })
                .sum()
        }
        rec(&self.root)
    }
}

/// The prefix tree as a finite [`StateMachine`] over an op universe, for
/// the forward-simulation VC against [`HighSpecMachine`](crate::high_spec::HighSpecMachine)
/// (crate::high_spec::HighSpecMachine).
pub struct PrefixTreeMachine {
    /// Candidate operations.
    pub universe: Vec<PtOp>,
}

impl StateMachine for PrefixTreeMachine {
    type State = PrefixTree;
    type Action = PtOp;

    fn init_states(&self) -> Vec<PrefixTree> {
        vec![PrefixTree::new()]
    }

    fn actions(&self, state: &PrefixTree) -> Vec<PtOp> {
        self.universe
            .iter()
            .filter(|op| {
                let mut s = state.clone();
                s.apply(op).is_ok()
            })
            .copied()
            .collect()
    }

    fn step(&self, state: &PrefixTree, action: &PtOp) -> Option<PrefixTree> {
        let mut s = state.clone();
        s.apply(action).ok().map(|_| s)
    }
}

/// The forward-simulation map from [`PrefixTreeMachine`] to
/// [`crate::high_spec::HighSpecMachine`]: abstraction is flattening, and
/// every enabled op maps to the same op.
pub struct TreeToFlat;

impl veros_spec::RefinementMap for TreeToFlat {
    type Concrete = PrefixTreeMachine;
    type Abstract = crate::high_spec::HighSpecMachine;

    fn abstraction(&self, s: &PrefixTree) -> HighSpec {
        HighSpec { map: s.flatten() }
    }

    fn abstract_action(&self, _pre: &PrefixTree, action: &PtOp) -> Option<PtOp> {
        match action {
            // Resolve is read-only: a stutter at the abstract level.
            PtOp::Resolve(_) => None,
            other => Some(*other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::high_spec::HighSpecMachine;
    use crate::ops::{MapFlags, PageSize};
    use veros_spec::{check_refinement, ExploreLimits};

    fn huge_2m(va: u64, pa: u64) -> MapRequest {
        MapRequest {
            va: VAddr(va),
            pa: PAddr(pa),
            size: PageSize::Size2M,
            flags: MapFlags::user_rw(),
        }
    }

    #[test]
    fn map_resolve_unmap_round_trip() {
        let mut t = PrefixTree::new();
        t.map(&MapRequest::rw_4k(0x1000, 0x8000)).unwrap();
        let r = t.resolve(VAddr(0x1123)).unwrap();
        assert_eq!(r.pa, PAddr(0x8123));
        let m = t.unmap(VAddr(0x1000)).unwrap();
        assert_eq!(m.pa, 0x8000);
        assert!(t.root.is_empty(), "empty dirs pruned all the way up");
    }

    #[test]
    fn no_empty_directories_after_unmap() {
        let mut t = PrefixTree::new();
        t.map(&MapRequest::rw_4k(0x1000, 0x8000)).unwrap();
        t.map(&MapRequest::rw_4k(0x40_0000, 0x9000)).unwrap(); // Different L2 subtree.
        t.unmap(VAddr(0x1000)).unwrap();
        assert!(t.wf());
        assert_eq!(t.flatten().len(), 1);
        t.unmap(VAddr(0x40_0000)).unwrap();
        assert!(t.root.is_empty());
    }

    #[test]
    fn huge_leaf_blocks_descent() {
        let mut t = PrefixTree::new();
        t.map(&huge_2m(0x20_0000, 0x40_0000)).unwrap();
        assert_eq!(
            t.map(&MapRequest::rw_4k(0x20_1000, 0x1000)),
            Err(PtError::AlreadyMapped)
        );
        // Resolve inside the huge page works with the right offset.
        let r = t.resolve(VAddr(0x21_2345)).unwrap();
        assert_eq!(r.pa, PAddr(0x41_2345));
        assert_eq!(r.base, VAddr(0x20_0000));
    }

    #[test]
    fn small_leaf_blocks_huge_map() {
        let mut t = PrefixTree::new();
        t.map(&MapRequest::rw_4k(0x20_1000, 0x1000)).unwrap();
        assert_eq!(t.map(&huge_2m(0x20_0000, 0x40_0000)), Err(PtError::AlreadyMapped));
    }

    #[test]
    fn unmap_inside_huge_page_is_not_base() {
        let mut t = PrefixTree::new();
        t.map(&huge_2m(0x20_0000, 0x40_0000)).unwrap();
        assert_eq!(t.unmap(VAddr(0x20_1000)), Err(PtError::NotMapped));
        assert!(t.unmap(VAddr(0x20_0000)).is_ok());
    }

    #[test]
    fn flatten_produces_canonical_high_half_addresses() {
        let mut t = PrefixTree::new();
        let va = VAddr::from_indices(300, 1, 2, 3);
        t.map(&MapRequest {
            va,
            pa: PAddr(0x8000),
            size: PageSize::Size4K,
            flags: MapFlags::kernel_rw(),
        })
        .unwrap();
        let flat = t.flatten();
        assert_eq!(flat.len(), 1);
        assert!(flat.contains_key(&va.0), "flatten must sign-extend: {flat:?}");
    }

    #[test]
    fn flatten_matches_incremental_high_spec() {
        let mut t = PrefixTree::new();
        let mut s = HighSpec::new();
        let ops = [
            PtOp::Map(MapRequest::rw_4k(0x1000, 0x8000)),
            PtOp::Map(huge_2m(0x20_0000, 0x40_0000)),
            PtOp::Map(MapRequest::rw_4k(0x2000, 0x9000)),
            PtOp::Unmap(VAddr(0x1000)),
            PtOp::Map(MapRequest::rw_4k(0x1000, 0xa000)),
        ];
        for op in &ops {
            let a = t.apply(op);
            let b = s.apply(op);
            assert_eq!(a, b, "differential mismatch on {op:?}");
            assert_eq!(t.flatten(), s.map);
        }
    }

    #[test]
    fn directory_count_tracks_structure() {
        let mut t = PrefixTree::new();
        assert_eq!(t.directory_count(), 0);
        t.map(&MapRequest::rw_4k(0x1000, 0x8000)).unwrap();
        assert_eq!(t.directory_count(), 3, "L3+L2+L1 directories");
        t.map(&huge_2m(0x20_0000, 0x40_0000)).unwrap();
        assert_eq!(t.directory_count(), 3, "huge page reuses L3, leaf at L2");
        t.unmap(VAddr(0x1000)).unwrap();
        assert_eq!(t.directory_count(), 2);
    }

    #[test]
    fn forward_simulation_against_high_spec() {
        let universe = HighSpecMachine::small().universe;
        let stats = check_refinement(
            &TreeToFlat,
            PrefixTreeMachine {
                universe: universe.clone(),
            },
            &HighSpecMachine { universe },
            ExploreLimits::default(),
        )
        .expect("prefix tree must refine the flat map");
        assert!(stats.complete);
    }
}
