//! Open-file handles: the state behind file descriptors.
//!
//! The paper's worked example (§3) specifies `read` as a transition over
//! "the file descriptors' current state": each handle has an inode and
//! an offset; `read` copies `min(buffer.len, size - offset)` bytes from
//! the contents at `offset` and advances the offset by the amount read.
//! This table holds that state. The kernel's `read` syscall copies the
//! bytes from [`MemFs::contents`] straight into the caller's pages and
//! then [`seek`](OpenFiles::seek)s the handle past them; the literal
//! `read_spec` predicate lives in [`crate::spec`], and the kernel's tests
//! check its `read` against it.

use std::collections::BTreeMap;

use crate::inode::Ino;
use crate::memfs::{FsError, MemFs};

/// A kernel-level open-file handle id (processes map fds to these).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle(pub u64);

/// One open file: inode + offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenFile {
    /// The file's inode.
    pub ino: Ino,
    /// Current offset.
    pub offset: u64,
}

/// The open-file table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpenFiles {
    handles: BTreeMap<Handle, OpenFile>,
    next: u64,
}

impl OpenFiles {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens `ino` with offset 0.
    pub fn open(&mut self, ino: Ino) -> Handle {
        let h = Handle(self.next);
        self.next += 1;
        self.handles.insert(h, OpenFile { ino, offset: 0 });
        h
    }

    /// Closes a handle.
    pub fn close(&mut self, h: Handle) -> Result<(), FsError> {
        self.handles.remove(&h).map(|_| ()).ok_or(FsError::NotFound)
    }

    /// Looks up a handle.
    pub fn get(&self, h: Handle) -> Option<&OpenFile> {
        self.handles.get(&h)
    }

    /// Positional write at the handle's offset, advancing it.
    pub fn write(&mut self, fs: &mut MemFs, h: Handle, buf: &[u8]) -> Result<u64, FsError> {
        let of = self.handles.get_mut(&h).ok_or(FsError::NotFound)?;
        let n = fs.write_at(of.ino, of.offset, buf)?;
        of.offset += n as u64;
        Ok(n as u64)
    }

    /// Sets the absolute offset.
    pub fn seek(&mut self, h: Handle, offset: u64) -> Result<(), FsError> {
        let of = self.handles.get_mut(&h).ok_or(FsError::NotFound)?;
        of.offset = offset;
        Ok(())
    }

    /// Number of open handles.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True when nothing is open.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;

    fn setup() -> (MemFs, OpenFiles, Handle) {
        let mut fs = MemFs::new();
        let ino = fs.create(&Path::parse("/f").unwrap()).unwrap();
        fs.write_at(ino, 0, b"0123456789").unwrap();
        let mut of = OpenFiles::new();
        let h = of.open(ino);
        (fs, of, h)
    }

    #[test]
    fn writes_advance_offset_and_extend() {
        let (mut fs, mut of, h) = setup();
        of.seek(h, 8).unwrap();
        of.write(&mut fs, h, b"abcd").unwrap();
        assert_eq!(of.get(h).unwrap().offset, 12);
        assert_eq!(
            fs.read_file(&Path::parse("/f").unwrap()).unwrap(),
            b"01234567abcd"
        );
    }

    #[test]
    fn independent_handles_have_independent_offsets() {
        let (mut fs, mut of, h1) = setup();
        let h2 = of.open(of.get(h1).unwrap().ino);
        of.write(&mut fs, h1, b"ab").unwrap();
        assert_eq!(of.get(h1).unwrap().offset, 2);
        assert_eq!(of.get(h2).unwrap().offset, 0, "h2 unaffected by h1's write");
    }

    #[test]
    fn closed_handles_are_gone() {
        let (_fs, mut of, h) = setup();
        of.close(h).unwrap();
        assert_eq!(of.close(h), Err(FsError::NotFound));
        assert!(of.get(h).is_none());
        assert_eq!(of.seek(h, 1), Err(FsError::NotFound));
        assert!(of.is_empty());
    }

    #[test]
    fn seek_past_eof_writes_sparse() {
        let (mut fs, mut of, h) = setup();
        of.seek(h, 100).unwrap();
        of.write(&mut fs, h, b"z").unwrap();
        assert_eq!(fs.len_of(of.get(h).unwrap().ino).unwrap(), 101);
    }
}
