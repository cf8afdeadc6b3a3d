//! The verified page table's ghost state — the executable analogue of
//! Verus ghost state — as a type parameter of
//! [`crate::VerifiedPageTable`].
//!
//! [`Tracked`] carries the prefix tree, moves it in lock-step with every
//! map, unmap and resolve the table takes (the amortized range paths
//! included) and records the first step on which the two disagree, in
//! every build profile. [`Erased`], the default, is zero-sized and its
//! hooks are empty, so the ghost is erased at compile time exactly as
//! Verus erases it.

use std::cell::OnceCell;

use veros_hw::{PAddr, PhysMem, VAddr};

use crate::high_spec::{AbsMapping, HighSpec};
use crate::ops::{MapRequest, PtError, ResolveAnswer};
use crate::prefix_tree::PrefixTree;

/// How a [`crate::VerifiedPageTable`] carries its ghost state. The table
/// calls one hook after each one-page step with the result it is about
/// to return; the mode is fixed by the table's type, never by a flag.
pub trait GhostMode: Default {
    /// After a map of `req` that returned `got`.
    fn map(&mut self, req: &MapRequest, got: Result<(), PtError>);
    /// After an unmap at `va` that returned `got`.
    fn unmap(&mut self, va: VAddr, got: Result<AbsMapping, PtError>);
    /// After a resolve of `va` that returned `got`.
    fn resolve(&self, va: VAddr, got: Result<ResolveAnswer, PtError>);
    /// [`crate::PageTableOps::check_ghost_steps`].
    fn check_steps(&self) -> Result<(), String>;
    /// [`crate::PageTableOps::check_ghost`] for the table rooted at `root`.
    fn check(&self, mem: &PhysMem, root: PAddr) -> Result<(), String>;
}

/// No ghost state: zero-sized, every hook empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct Erased;

impl GhostMode for Erased {
    #[inline]
    fn map(&mut self, _req: &MapRequest, _got: Result<(), PtError>) {}
    #[inline]
    fn unmap(&mut self, _va: VAddr, _got: Result<AbsMapping, PtError>) {}
    #[inline]
    fn resolve(&self, _va: VAddr, _got: Result<ResolveAnswer, PtError>) {}
    fn check_steps(&self) -> Result<(), String> {
        Ok(())
    }
    fn check(&self, _mem: &PhysMem, _root: PAddr) -> Result<(), String> {
        Ok(())
    }
}

/// The ghost prefix tree, applied to every step the table takes, and the
/// first step on which the tree's answer differed from the table's.
#[derive(Debug, Default)]
pub struct Tracked {
    pub(crate) tree: PrefixTree,
    divergence: OnceCell<String>,
}

impl Tracked {
    fn compare<T: PartialEq + std::fmt::Debug>(&self, step: std::fmt::Arguments, got: T, ghost: T) {
        if got != ghost {
            let _ = self
                .divergence
                .set(format!("{step}: table {got:?}, ghost {ghost:?}"));
        }
    }
}

impl GhostMode for Tracked {
    fn map(&mut self, req: &MapRequest, got: Result<(), PtError>) {
        // OutOfMemory is the one implementation-only failure: a stutter
        // for the ghost.
        if got != Err(PtError::OutOfMemory) {
            let ghost = self.tree.map(req);
            self.compare(format_args!("map {req:?}"), got, ghost);
        }
    }

    fn unmap(&mut self, va: VAddr, got: Result<AbsMapping, PtError>) {
        let ghost = self.tree.unmap(va);
        self.compare(format_args!("unmap {va}"), got, ghost);
    }

    fn resolve(&self, va: VAddr, got: Result<ResolveAnswer, PtError>) {
        self.compare(format_args!("resolve {va}"), got, self.tree.resolve(va));
    }

    fn check_steps(&self) -> Result<(), String> {
        match self.divergence.get() {
            Some(step) => Err(format!("ghost diverged on {step}")),
            None => Ok(()),
        }
    }

    fn check(&self, mem: &PhysMem, root: PAddr) -> Result<(), String> {
        self.check_steps()?;
        if !self.tree.wf() {
            return Err("ghost tree not well-formed".into());
        }
        let view = HighSpec {
            map: self.tree.flatten(),
        };
        crate::interp::interpretation_matches(mem, root, &view)
            .map_err(|e| format!("ghost view vs MMU: {e}"))
    }
}
