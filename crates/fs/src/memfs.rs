//! The in-memory filesystem.
//!
//! Pure state + operations, no I/O: this is the layer the abstract spec
//! (`spec::FsSpec`) is compared against and the layer the journal
//! replays into. Determinism matters twice over — differential checking
//! against the spec, and identical recovery replays.

use crate::inode::{Ino, InodeKind, InodeTable, ROOT_INO};
use crate::path::Path;

/// Filesystem errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FsError {
    /// Path (or a parent) does not exist.
    NotFound,
    /// Create-exclusive on an existing path, or mkdir over anything.
    AlreadyExists,
    /// A non-final path component is not a directory.
    NotADirectory,
    /// The operation needs a file but found a directory.
    IsADirectory,
    /// rmdir of a non-empty directory.
    NotEmpty,
    /// Write/truncate would exceed the size limit.
    NoSpace,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file or directory",
            FsError::AlreadyExists => "already exists",
            FsError::NotADirectory => "not a directory",
            FsError::IsADirectory => "is a directory",
            FsError::NotEmpty => "directory not empty",
            FsError::NoSpace => "no space left",
        };
        f.write_str(s)
    }
}

/// Maximum file size (keeps corrupted offsets from ballooning memory).
pub const MAX_FILE: u64 = 1 << 32;

/// The in-memory filesystem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemFs {
    inodes: InodeTable,
}

/// What a path names, found by one walk of the tree: the root, or a
/// component of a directory and the inode it names there, if any. A
/// check takes one of these, so an operation resolves its path once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Entry<'a> {
    Root,
    Child { dir: Ino, name: &'a str, ino: Option<Ino> },
}

impl<'a> Entry<'a> {
    /// The inode the path names, if any.
    pub(crate) fn ino(self) -> Option<Ino> {
        match self {
            Entry::Root => Some(ROOT_INO),
            Entry::Child { ino, .. } => ino,
        }
    }

    /// The same entry naming `ino` instead: what it is once an operation
    /// on its path has created (`Some`) or removed (`None`) its inode.
    /// The root is neither created nor removed.
    pub(crate) fn naming(self, ino: Option<Ino>) -> Entry<'a> {
        match self {
            Entry::Root => Entry::Root,
            Entry::Child { dir, name, .. } => Entry::Child { dir, name, ino },
        }
    }
}

/// A mutation whose preconditions were established against a [`MemFs`]
/// by a `check_*` method: paths are resolved to inodes, every error the
/// operation can return has been ruled out. Only those methods build
/// one, so [`MemFs::apply_checked`] has no failure case to report.
pub(crate) struct Checked<'a>(Resolved<'a>);

enum Resolved<'a> {
    /// `create` / `mkdir`: link a fresh inode of `kind` as `dir/name`.
    Insert { dir: Ino, name: &'a str, kind: InodeKind },
    /// `unlink` / `rmdir`: drop `dir/name` and free `ino`.
    Remove { dir: Ino, name: &'a str, ino: Ino },
    Write { ino: Ino, offset: usize, buf: &'a [u8] },
    Truncate { ino: Ino, len: usize },
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// An empty filesystem (just the root directory).
    pub fn new() -> Self {
        Self {
            inodes: InodeTable::new(),
        }
    }

    /// The inode behind a tree-resolved `ino`.
    ///
    /// Tree consistency — every directory entry references a live inode,
    /// upheld by `create`/`mkdir`/`unlink`/`rmdir` — makes this
    /// infallible for inos obtained from `lookup`/`entry`, which is
    /// the only way callers in this module produce one.
    #[expect(
        clippy::expect_used,
        reason = "see doc comment: directory entries only reference live inodes; a miss is \
                  tree corruption that must fail fast, not a user-visible error"
    )]
    fn node(&self, ino: Ino) -> &crate::inode::Inode {
        self.inodes.get(ino).expect("live inode")
    }

    /// Mutable twin of [`MemFs::node`].
    #[expect(
        clippy::expect_used,
        reason = "same invariant as `node`"
    )]
    fn node_mut(&mut self, ino: Ino) -> &mut crate::inode::Inode {
        self.inodes.get_mut(ino).expect("live inode")
    }

    /// Resolves a path to its inode.
    pub fn lookup(&self, path: &Path<'_>) -> Result<Ino, FsError> {
        self.entry(path)?.ino().ok_or(FsError::NotFound)
    }

    /// The walk every operation makes: `path`'s parent directory, and
    /// what its last component names there. Fails as a lookup of the
    /// parent does, or with `NotADirectory` when the parent is a file.
    pub(crate) fn entry<'a>(&self, path: &Path<'a>) -> Result<Entry<'a>, FsError> {
        let Some((parent, name)) = path.split_last() else {
            return Ok(Entry::Root);
        };
        let mut dir = ROOT_INO;
        for comp in parent.components() {
            dir = self.child(dir, comp)?.ok_or(FsError::NotFound)?;
        }
        let ino = self.child(dir, name)?;
        Ok(Entry::Child { dir, name, ino })
    }

    /// The inode `name` names in the directory `dir`, if any.
    fn child(&self, dir: Ino, name: &str) -> Result<Option<Ino>, FsError> {
        match &self.node(dir).kind {
            InodeKind::Dir(entries) => Ok(entries.get(name).copied()),
            InodeKind::File(_) => Err(FsError::NotADirectory),
        }
    }

    fn check_insert<'a>(&self, at: Entry<'a>, kind: InodeKind) -> Result<Checked<'a>, FsError> {
        match at {
            Entry::Child { dir, name, ino: None } => Ok(Checked(Resolved::Insert { dir, name, kind })),
            Entry::Root | Entry::Child { ino: Some(_), .. } => Err(FsError::AlreadyExists),
        }
    }

    /// Validates [`MemFs::create`] without mutating.
    pub(crate) fn check_create<'a>(&self, at: Entry<'a>) -> Result<Checked<'a>, FsError> {
        self.check_insert(at, InodeKind::File(Vec::new()))
    }

    /// Validates [`MemFs::mkdir`] without mutating.
    pub(crate) fn check_mkdir<'a>(&self, at: Entry<'a>) -> Result<Checked<'a>, FsError> {
        self.check_insert(at, InodeKind::Dir(Default::default()))
    }

    /// The removal of `at`, which names `ino`, for `unlink` and `rmdir`
    /// once they have checked its kind.
    fn remove<'a>(at: Entry<'a>, ino: Ino) -> Result<Checked<'a>, FsError> {
        match at {
            Entry::Child { dir, name, .. } => Ok(Checked(Resolved::Remove { dir, name, ino })),
            Entry::Root => Err(FsError::AlreadyExists), // The root cannot be removed.
        }
    }

    /// Validates [`MemFs::unlink`] without mutating.
    pub(crate) fn check_unlink<'a>(&self, at: Entry<'a>) -> Result<Checked<'a>, FsError> {
        let ino = at.ino().ok_or(FsError::NotFound)?;
        match &self.node(ino).kind {
            InodeKind::File(_) => Self::remove(at, ino),
            InodeKind::Dir(_) => Err(FsError::IsADirectory),
        }
    }

    /// Validates [`MemFs::rmdir`] without mutating.
    pub(crate) fn check_rmdir<'a>(&self, at: Entry<'a>) -> Result<Checked<'a>, FsError> {
        let ino = at.ino().ok_or(FsError::NotFound)?;
        match &self.node(ino).kind {
            InodeKind::Dir(entries) if entries.is_empty() => Self::remove(at, ino),
            InodeKind::Dir(_) => Err(FsError::NotEmpty),
            InodeKind::File(_) => Err(FsError::NotADirectory),
        }
    }

    /// Validates [`MemFs::write_at`] without mutating.
    pub(crate) fn check_write<'a>(
        &self,
        ino: Ino,
        offset: u64,
        buf: &'a [u8],
    ) -> Result<Checked<'a>, FsError> {
        if offset.saturating_add(buf.len() as u64) > MAX_FILE {
            return Err(FsError::NoSpace);
        }
        self.len_of(ino)?;
        Ok(Checked(Resolved::Write { ino, offset: offset as usize, buf }))
    }

    /// Validates [`MemFs::truncate`] without mutating.
    pub(crate) fn check_truncate(&self, ino: Ino, len: u64) -> Result<Checked<'static>, FsError> {
        if len > MAX_FILE {
            return Err(FsError::NoSpace);
        }
        self.len_of(ino)?;
        Ok(Checked(Resolved::Truncate { ino, len: len as usize }))
    }

    /// Applies an operation validated by one of the `check_*` methods
    /// against this state, with no mutation in between; returns the
    /// inode it created, removed or wrote. Nothing here can fail: every
    /// precondition was established by the check, which is what lets the
    /// journal write the record *between* the two halves.
    pub(crate) fn apply_checked(&mut self, op: Checked<'_>) -> Ino {
        match op.0 {
            Resolved::Insert { dir, name, kind } => {
                let ino = self.inodes.alloc(kind);
                if let InodeKind::Dir(entries) = &mut self.node_mut(dir).kind {
                    entries.insert(name.to_string(), ino);
                }
                ino
            }
            Resolved::Remove { dir, name, ino } => {
                if let InodeKind::Dir(entries) = &mut self.node_mut(dir).kind {
                    entries.remove(name);
                }
                self.inodes.free(ino);
                ino
            }
            Resolved::Write { ino, offset, buf } => {
                if let InodeKind::File(data) = &mut self.node_mut(ino).kind {
                    let end = offset + buf.len();
                    if data.len() < end {
                        data.resize(end, 0);
                    }
                    data[offset..end].copy_from_slice(buf);
                }
                ino
            }
            Resolved::Truncate { ino, len } => {
                if let InodeKind::File(data) = &mut self.node_mut(ino).kind {
                    data.resize(len, 0);
                }
                ino
            }
        }
    }

    /// Creates an empty file; fails if the path exists.
    pub fn create(&mut self, path: &Path<'_>) -> Result<Ino, FsError> {
        let op = self.check_create(self.entry(path)?)?;
        Ok(self.apply_checked(op))
    }

    /// Creates a directory; fails if the path exists.
    pub fn mkdir(&mut self, path: &Path<'_>) -> Result<Ino, FsError> {
        let op = self.check_mkdir(self.entry(path)?)?;
        Ok(self.apply_checked(op))
    }

    /// Removes a file.
    pub fn unlink(&mut self, path: &Path<'_>) -> Result<(), FsError> {
        let op = self.check_unlink(self.entry(path)?)?;
        self.apply_checked(op);
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &Path<'_>) -> Result<(), FsError> {
        let op = self.check_rmdir(self.entry(path)?)?;
        self.apply_checked(op);
        Ok(())
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read
    /// (0 at or past EOF).
    pub fn read_at(&self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize, FsError> {
        let node = self.inodes.get(ino).ok_or(FsError::NotFound)?;
        let data = match &node.kind {
            InodeKind::File(d) => d,
            InodeKind::Dir(_) => return Err(FsError::IsADirectory),
        };
        if offset >= data.len() as u64 {
            return Ok(0);
        }
        let start = offset as usize;
        let n = buf.len().min(data.len() - start);
        buf[..n].copy_from_slice(&data[start..start + n]);
        Ok(n)
    }

    /// Writes `buf` at `offset`, zero-filling any gap; returns bytes
    /// written.
    pub fn write_at(&mut self, ino: Ino, offset: u64, buf: &[u8]) -> Result<usize, FsError> {
        let op = self.check_write(ino, offset, buf)?;
        self.apply_checked(op);
        Ok(buf.len())
    }

    /// Truncates (or extends with zeros) a file to `len`.
    pub fn truncate(&mut self, ino: Ino, len: u64) -> Result<(), FsError> {
        let op = self.check_truncate(ino, len)?;
        self.apply_checked(op);
        Ok(())
    }

    /// File length.
    pub fn len_of(&self, ino: Ino) -> Result<u64, FsError> {
        let node = self.inodes.get(ino).ok_or(FsError::NotFound)?;
        match &node.kind {
            InodeKind::File(d) => Ok(d.len() as u64),
            InodeKind::Dir(_) => Err(FsError::IsADirectory),
        }
    }

    /// Directory listing, sorted by name.
    pub fn readdir(&self, path: &Path<'_>) -> Result<Vec<String>, FsError> {
        let ino = self.lookup(path)?;
        match &self.node(ino).kind {
            InodeKind::Dir(entries) => Ok(entries.keys().cloned().collect()),
            InodeKind::File(_) => Err(FsError::NotADirectory),
        }
    }

    /// Whole-file read convenience.
    pub fn read_file(&self, path: &Path<'_>) -> Result<Vec<u8>, FsError> {
        let ino = self.lookup(path)?;
        let len = self.len_of(ino)?;
        let mut buf = vec![0; len as usize];
        self.read_at(ino, 0, &mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path<'_> {
        Path::parse(s).unwrap()
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = MemFs::new();
        let ino = fs.create(&p("/hello.txt")).unwrap();
        fs.write_at(ino, 0, b"hello world").unwrap();
        assert_eq!(fs.read_file(&p("/hello.txt")).unwrap(), b"hello world");
        let mut buf = [0u8; 5];
        assert_eq!(fs.read_at(ino, 6, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn nested_directories() {
        let mut fs = MemFs::new();
        fs.mkdir(&p("/a")).unwrap();
        fs.mkdir(&p("/a/b")).unwrap();
        fs.create(&p("/a/b/f")).unwrap();
        assert_eq!(fs.readdir(&p("/a")).unwrap(), vec!["b"]);
        assert_eq!(fs.readdir(&p("/a/b")).unwrap(), vec!["f"]);
        assert_eq!(fs.mkdir(&p("/x/y")), Err(FsError::NotFound), "parent missing");
    }

    #[test]
    fn create_errors() {
        let mut fs = MemFs::new();
        fs.create(&p("/f")).unwrap();
        assert_eq!(fs.create(&p("/f")), Err(FsError::AlreadyExists));
        assert_eq!(fs.create(&p("/f/x")), Err(FsError::NotADirectory));
        assert_eq!(fs.lookup(&p("/nope")), Err(FsError::NotFound));
    }

    #[test]
    fn unlink_and_rmdir() {
        let mut fs = MemFs::new();
        fs.mkdir(&p("/d")).unwrap();
        fs.create(&p("/d/f")).unwrap();
        assert_eq!(fs.rmdir(&p("/d")), Err(FsError::NotEmpty));
        assert_eq!(fs.unlink(&p("/d")), Err(FsError::IsADirectory));
        fs.unlink(&p("/d/f")).unwrap();
        fs.rmdir(&p("/d")).unwrap();
        assert_eq!(fs.lookup(&p("/d")), Err(FsError::NotFound));
    }

    #[test]
    fn sparse_writes_zero_fill() {
        let mut fs = MemFs::new();
        let ino = fs.create(&p("/sparse")).unwrap();
        fs.write_at(ino, 100, b"x").unwrap();
        assert_eq!(fs.len_of(ino).unwrap(), 101);
        let data = fs.read_file(&p("/sparse")).unwrap();
        assert!(data[..100].iter().all(|&b| b == 0));
        assert_eq!(data[100], b'x');
    }

    #[test]
    fn read_past_eof_returns_zero() {
        let mut fs = MemFs::new();
        let ino = fs.create(&p("/f")).unwrap();
        fs.write_at(ino, 0, b"abc").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(fs.read_at(ino, 3, &mut buf).unwrap(), 0);
        assert_eq!(fs.read_at(ino, 100, &mut buf).unwrap(), 0);
        // Partial read at the boundary.
        assert_eq!(fs.read_at(ino, 2, &mut buf).unwrap(), 1);
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut fs = MemFs::new();
        let ino = fs.create(&p("/f")).unwrap();
        fs.write_at(ino, 0, b"abcdef").unwrap();
        fs.truncate(ino, 3).unwrap();
        assert_eq!(fs.read_file(&p("/f")).unwrap(), b"abc");
        fs.truncate(ino, 5).unwrap();
        assert_eq!(fs.read_file(&p("/f")).unwrap(), b"abc\0\0");
    }

    #[test]
    fn size_limit_enforced() {
        let mut fs = MemFs::new();
        let ino = fs.create(&p("/f")).unwrap();
        assert_eq!(fs.write_at(ino, MAX_FILE, b"x"), Err(FsError::NoSpace));
        assert_eq!(fs.truncate(ino, MAX_FILE + 1), Err(FsError::NoSpace));
    }
}
