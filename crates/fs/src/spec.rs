//! The abstract filesystem specification.
//!
//! Two pieces:
//!
//! 1. [`read_spec`] — a literal transcription of the paper's Section 3
//!    example: the high-level state-machine transition for the `read`
//!    syscall over file-descriptor states. The implementation, the
//!    kernel's `read` syscall (a copy from [`MemFs::contents`] into the
//!    caller's pages, then a seek), is checked against it transition by
//!    transition in the kernel's tests.
//! 2. [`FlatFs`] — the flat abstract filesystem (path → contents), the
//!    abstraction the tree-of-inodes implementation refines; the
//!    differential harness drives both with the same operations.

use std::collections::BTreeMap;

use crate::file::{Handle, OpenFiles};
use crate::journal::FsOp;
use crate::memfs::{FsError, MemFs};
use crate::path::{Path, PathBuf};

/// The abstract state of one file descriptor, as in the paper's `State`:
/// "the file descriptors' current state".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FdSpec {
    /// The paper's `locked` predicate (descriptor valid and held by the
    /// caller — in our kernel a descriptor owned by the calling process).
    pub locked: bool,
    /// Contents of the underlying file.
    pub contents: Vec<u8>,
    /// Current offset.
    pub offset: u64,
}

impl FdSpec {
    /// The paper's `pre.files[fd].size`.
    pub fn size(&self) -> u64 {
        self.contents.len() as u64
    }
}

/// The abstract syscall state: the fd table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpecState {
    /// The paper's `files` map.
    pub files: BTreeMap<u64, FdSpec>,
}

/// The paper's `read_spec`, transcribed:
///
/// ```text
/// spec fn read_spec(pre: State, post: State, fd: usize,
///                   buffer: Seq<u8>, read_len: usize)
/// { pre.files[fd].locked
///   && read_len == min(buffer.len(), pre.files[fd].size - pre.files[fd].offset)
///   && buffer[0 .. read_len] == pre.files[fd].contents[
///          pre.files[fd].offset .. (pre.files[fd].offset + read_len)]
///   && post.files[fd].offset == pre.files[fd].offset + read_len }
/// ```
pub fn read_spec(
    pre: &SpecState,
    post: &SpecState,
    fd: u64,
    buffer: &[u8],
    read_len: u64,
) -> bool {
    let Some(pre_fd) = pre.files.get(&fd) else {
        return false;
    };
    let Some(post_fd) = post.files.get(&fd) else {
        return false;
    };
    pre_fd.locked
        && read_len == (buffer.len() as u64).min(pre_fd.size().saturating_sub(pre_fd.offset))
        && buffer[..read_len as usize]
            == pre_fd.contents[pre_fd.offset as usize..(pre_fd.offset + read_len) as usize]
        && post_fd.offset == pre_fd.offset + read_len
}

/// Builds the abstract view of one open handle (the `view()` function of
/// §3, for the fd fragment of the state).
pub fn view_fd(fs: &MemFs, of: &OpenFiles, h: Handle) -> Option<FdSpec> {
    let open = of.get(h)?;
    Some(FdSpec {
        locked: true,
        contents: fs.contents(open.ino).ok()?.to_vec(),
        offset: open.offset,
    })
}

/// The flat abstract filesystem: normalized file paths → contents, plus
/// the set of directories. This is what the inode tree refines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatFs {
    /// Regular files.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Directories (always contains "/").
    pub dirs: Vec<String>,
}

impl Default for FlatFs {
    fn default() -> Self {
        Self::new()
    }
}

impl FlatFs {
    /// The empty filesystem.
    pub fn new() -> Self {
        Self {
            files: BTreeMap::new(),
            dirs: vec!["/".into()],
        }
    }

    fn parent_exists(&self, path: &Path<'_>) -> Result<String, FsError> {
        let (parent, name) = path.split_last().ok_or(FsError::AlreadyExists)?;
        let ps = parent.as_str().to_string();
        if !self.dirs.contains(&ps) {
            // Either missing entirely or a file in the way.
            if self.files.contains_key(&ps)
                || parent
                    .split_last()
                    .is_some_and(|(gp, _)| self.prefix_is_file(&gp))
            {
                return Err(FsError::NotADirectory);
            }
            return Err(FsError::NotFound);
        }
        let _ = name;
        Ok(ps)
    }

    fn prefix_is_file(&self, path: &Path<'_>) -> bool {
        let mut cur = Path::root().to_path_buf();
        for comp in path.components() {
            cur = cur.as_path().join(comp);
            if self.files.contains_key(cur.as_str()) {
                return true;
            }
        }
        false
    }

    fn exists(&self, s: &str) -> bool {
        self.files.contains_key(s) || self.dirs.iter().any(|d| d == s)
    }

    /// Applies an [`FsOp`], mirroring [`MemFs`] semantics.
    pub fn apply(&mut self, op: &FsOp) -> Result<(), FsError> {
        match op {
            FsOp::Create(p) => {
                let path = Path::parse(p).map_err(|_| FsError::NotFound)?;
                if self.prefix_is_file(&path) {
                    // A file on the lookup path: NotADirectory, unless the
                    // full path itself exists as a file (AlreadyExists
                    // is only for the final component).
                    if !self.files.contains_key(path.as_str()) {
                        return Err(FsError::NotADirectory);
                    }
                }
                if self.exists(path.as_str()) {
                    return Err(FsError::AlreadyExists);
                }
                self.parent_exists(&path)?;
                self.files.insert(path.as_str().into(), Vec::new());
                Ok(())
            }
            FsOp::Mkdir(p) => {
                let path = Path::parse(p).map_err(|_| FsError::NotFound)?;
                if self.prefix_is_file(&path) && !self.files.contains_key(path.as_str()) {
                    return Err(FsError::NotADirectory);
                }
                if self.exists(path.as_str()) {
                    return Err(FsError::AlreadyExists);
                }
                self.parent_exists(&path)?;
                self.dirs.push(path.as_str().into());
                Ok(())
            }
            FsOp::Unlink(p) => {
                let path = Path::parse(p).map_err(|_| FsError::NotFound)?;
                if self.dirs.iter().any(|d| d == path.as_str()) {
                    return Err(FsError::IsADirectory);
                }
                if self.prefix_is_file(&path) && !self.files.contains_key(path.as_str()) {
                    return Err(FsError::NotADirectory);
                }
                self.files.remove(path.as_str()).map(|_| ()).ok_or(FsError::NotFound)
            }
            FsOp::Rmdir(p) => {
                let path = Path::parse(p).map_err(|_| FsError::NotFound)?;
                let s = path.as_str();
                if self.files.contains_key(s) {
                    return Err(FsError::NotADirectory);
                }
                if !self.dirs.iter().any(|d| d == s) {
                    if self.prefix_is_file(&path) {
                        return Err(FsError::NotADirectory);
                    }
                    return Err(FsError::NotFound);
                }
                let prefix = format!("{s}/");
                if self.files.keys().any(|f| f.starts_with(&prefix))
                    || self.dirs.iter().any(|d| d.starts_with(&prefix))
                {
                    return Err(FsError::NotEmpty);
                }
                self.dirs.retain(|d| d != s);
                Ok(())
            }
            FsOp::WriteAt(p, off, data) => {
                let path = Path::parse(p).map_err(|_| FsError::NotFound)?;
                if self.dirs.iter().any(|d| d == path.as_str()) {
                    return Err(FsError::IsADirectory);
                }
                if self.prefix_is_file(&path) && !self.files.contains_key(path.as_str()) {
                    return Err(FsError::NotADirectory);
                }
                if off.saturating_add(data.len() as u64) > crate::memfs::MAX_FILE {
                    return Err(FsError::NoSpace);
                }
                let f = self.files.get_mut(path.as_str()).ok_or(FsError::NotFound)?;
                let end = *off as usize + data.len();
                if f.len() < end {
                    f.resize(end, 0);
                }
                f[*off as usize..end].copy_from_slice(data);
                Ok(())
            }
            FsOp::Truncate(p, len) => {
                let path = Path::parse(p).map_err(|_| FsError::NotFound)?;
                if self.dirs.iter().any(|d| d == path.as_str()) {
                    return Err(FsError::IsADirectory);
                }
                if self.prefix_is_file(&path) && !self.files.contains_key(path.as_str()) {
                    return Err(FsError::NotADirectory);
                }
                if *len > crate::memfs::MAX_FILE {
                    return Err(FsError::NoSpace);
                }
                let f = self.files.get_mut(path.as_str()).ok_or(FsError::NotFound)?;
                f.resize(*len as usize, 0);
                Ok(())
            }
        }
    }
}

/// The abstraction function from the inode tree to the flat spec.
pub fn view_flat(fs: &MemFs) -> FlatFs {
    let mut out = FlatFs::new();
    let mut stack: Vec<PathBuf> = vec![Path::root().to_path_buf()];
    while let Some(dir) = stack.pop() {
        #[expect(
            clippy::expect_used,
            reason = "`dir` was pushed only after a successful readdir observed it as a \
                      directory, and `fs` is borrowed immutably throughout the traversal"
        )]
        for name in fs.readdir(&dir.as_path()).expect("dir exists") {
            let child = dir.as_path().join(&name);
            match fs.readdir(&child.as_path()) {
                Ok(_) => {
                    out.dirs.push(child.as_str().into());
                    stack.push(child);
                }
                Err(_) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "`child` came from its parent's listing, and readdir said it \
                                  is not a directory, so it is a readable file"
                    )]
                    out.files
                        .insert(child.as_str().into(), fs.read_file(&child.as_path()).expect("file"));
                }
            }
        }
    }
    out.dirs.sort();
    out
}

/// Differential check: drives `MemFs` and `FlatFs` with the same random
/// operation stream; results and views must agree at every step.
pub fn differential_fs(seed: u64, steps: usize) -> Result<(), String> {
    let mut rng = veros_spec::rng::SpecRng::seeded(seed ^ 0xf5);
    let mut fs = MemFs::new();
    let mut spec = FlatFs::new();
    let names = ["a", "b", "c", "d"];
    for step in 0..steps {
        // Random path of depth 1-3.
        let depth = 1 + rng.index(3);
        let mut p = String::new();
        for _ in 0..depth {
            p.push('/');
            p.push_str(rng.choose::<&str>(&names[..]));
        }
        let op = match rng.below(6) {
            0 => FsOp::Create(p),
            1 => FsOp::Mkdir(p),
            2 => FsOp::Unlink(p),
            3 => FsOp::Rmdir(p),
            4 => FsOp::WriteAt(p, rng.below(32), vec![rng.below(255) as u8; rng.index(16) + 1]),
            _ => FsOp::Truncate(p, rng.below(64)),
        };
        let got = op.apply(&mut fs);
        let want = spec.apply(&op);
        if got != want {
            return Err(format!(
                "seed {seed} step {step}: {op:?} -> impl {got:?}, spec {want:?}"
            ));
        }
        let mut sorted_spec = spec.clone();
        sorted_spec.dirs.sort();
        if view_flat(&fs) != sorted_spec {
            return Err(format!("seed {seed} step {step}: views diverged after {op:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path<'_> {
        Path::parse(s).unwrap()
    }

    #[test]
    fn read_spec_rejects_wrong_length_and_stale_offset() {
        let fd = FdSpec {
            locked: true,
            contents: b"abcdef".to_vec(),
            offset: 2,
        };
        let pre = SpecState {
            files: BTreeMap::from([(0, fd.clone())]),
        };
        let good_post = SpecState {
            files: BTreeMap::from([(0, FdSpec { offset: 5, ..fd.clone() })]),
        };
        assert!(read_spec(&pre, &good_post, 0, b"cde", 3));
        // Wrong data.
        assert!(!read_spec(&pre, &good_post, 0, b"xyz", 3));
        // Wrong read_len.
        assert!(!read_spec(&pre, &good_post, 0, b"cde", 2));
        // Offset not advanced.
        assert!(!read_spec(&pre, &pre, 0, b"cde", 3));
        // Unlocked descriptor.
        let unlocked = SpecState {
            files: BTreeMap::from([(0, FdSpec { locked: false, ..fd })]),
        };
        assert!(!read_spec(&unlocked, &good_post, 0, b"cde", 3));
    }

    #[test]
    fn view_flat_reflects_tree() {
        let mut fs = MemFs::new();
        fs.mkdir(&p("/d")).unwrap();
        let ino = fs.create(&p("/d/f")).unwrap();
        fs.write_at(ino, 0, b"x").unwrap();
        fs.create(&p("/top")).unwrap();
        let flat = view_flat(&fs);
        assert_eq!(flat.files.len(), 2);
        assert_eq!(flat.files["/d/f"], b"x");
        assert_eq!(flat.files["/top"], b"");
        assert!(flat.dirs.contains(&"/d".to_string()));
    }

    #[test]
    fn differential_runs_clean() {
        for seed in 0..6 {
            differential_fs(seed, 150).unwrap();
        }
    }
}
