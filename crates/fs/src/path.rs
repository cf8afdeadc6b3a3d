//! Normalized absolute paths.
//!
//! The filesystem spec is a map from *normalized* paths to contents, so
//! path handling must be canonical before it reaches the inode layer:
//! absolute, `/`-separated, no empty components, no `.` or `..`.

/// A validated, normalized absolute path.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Path {
    // Invariant: starts with '/', no trailing '/' (except the root
    // itself), components are nonempty and free of '/', '.', '..'.
    raw: String,
}

/// Path validation errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathError {
    /// Path did not start with `/`.
    NotAbsolute,
    /// Empty component (`//`) or trailing slash.
    EmptyComponent,
    /// `.` or `..` component.
    DotComponent,
    /// Embedded NUL or other forbidden byte.
    BadByte,
    /// Longer than [`MAX_PATH`].
    TooLong,
}

/// Maximum accepted path length in bytes.
pub const MAX_PATH: usize = 4096;

/// Checks the [`Path`] invariant.
fn validate(s: &str) -> Result<(), PathError> {
    if s.len() > MAX_PATH {
        return Err(PathError::TooLong);
    }
    if !s.starts_with('/') {
        return Err(PathError::NotAbsolute);
    }
    if s.contains('\0') {
        return Err(PathError::BadByte);
    }
    if s == "/" {
        return Ok(());
    }
    for comp in s[1..].split('/') {
        if comp.is_empty() {
            return Err(PathError::EmptyComponent);
        }
        if comp == "." || comp == ".." {
            return Err(PathError::DotComponent);
        }
    }
    Ok(())
}

impl Path {
    /// Parses and validates a path string.
    pub fn parse(s: &str) -> Result<Path, PathError> {
        validate(s)?;
        Ok(Path { raw: s.to_string() })
    }

    /// Validates an owned path string and keeps it: the one allocation
    /// is the caller's.
    pub fn from_string(s: String) -> Result<Path, PathError> {
        validate(&s)?;
        Ok(Path { raw: s })
    }

    /// The root path.
    pub fn root() -> Path {
        Path { raw: "/".into() }
    }

    /// The raw string.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// The components, in order (none for the root).
    pub fn components(&self) -> impl Iterator<Item = &str> {
        // No trailing '/', so `split_terminator` only drops the root's
        // one empty piece.
        self.raw[1..].split_terminator('/')
    }

    /// The parent path and final component; `None` for the root.
    pub fn split_last(&self) -> Option<(Path, &str)> {
        if self.raw == "/" {
            return None;
        }
        // Parsed paths are always absolute, so a '/' exists; `?` keeps
        // the function total without a panicking path.
        let idx = self.raw.rfind('/')?;
        let parent = if idx == 0 { "/".to_string() } else { self.raw[..idx].to_string() };
        Some((Path { raw: parent }, &self.raw[idx + 1..]))
    }

    /// Appends a component.
    ///
    /// # Panics
    ///
    /// Panics when `comp` is not a valid single component.
    pub fn join(&self, comp: &str) -> Path {
        assert!(!comp.is_empty() && !comp.contains('/') && comp != "." && comp != "..");
        let raw = if self.raw == "/" {
            format!("/{comp}")
        } else {
            format!("{}/{comp}", self.raw)
        };
        Path { raw }
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_paths_parse() {
        for p in ["/", "/a", "/a/b/c", "/with space/x", "/utf8-ähm"] {
            assert!(Path::parse(p).is_ok(), "{p}");
            assert_eq!(Path::from_string(p.to_string()), Path::parse(p));
        }
    }

    #[test]
    fn invalid_paths_rejected() {
        assert_eq!(Path::parse("a/b"), Err(PathError::NotAbsolute));
        assert_eq!(Path::parse(""), Err(PathError::NotAbsolute));
        assert_eq!(Path::parse("//a"), Err(PathError::EmptyComponent));
        assert_eq!(Path::parse("/a/"), Err(PathError::EmptyComponent));
        assert_eq!(Path::parse("/a//b"), Err(PathError::EmptyComponent));
        assert_eq!(Path::parse("/a/./b"), Err(PathError::DotComponent));
        assert_eq!(Path::parse("/a/../b"), Err(PathError::DotComponent));
        assert_eq!(Path::parse("/a\0b"), Err(PathError::BadByte));
        assert_eq!(Path::parse(&format!("/{}", "x".repeat(5000))), Err(PathError::TooLong));
        assert_eq!(Path::from_string("/a/../b".into()), Err(PathError::DotComponent));
    }

    #[test]
    fn components_and_split() {
        let p = Path::parse("/a/b/c").unwrap();
        assert!(p.components().eq(["a", "b", "c"]));
        let (parent, last) = p.split_last().unwrap();
        assert_eq!(parent.as_str(), "/a/b");
        assert_eq!(last, "c");
        let pa = Path::parse("/a").unwrap();
        let (gp, last) = pa.split_last().unwrap();
        assert_eq!(gp.as_str(), "/");
        assert_eq!(last, "a");
        assert!(Path::root().split_last().is_none());
        assert_eq!(Path::root().components().next(), None);
    }

    #[test]
    fn join_round_trips_with_split() {
        let p = Path::parse("/x/y").unwrap();
        let q = p.join("z");
        assert_eq!(q.as_str(), "/x/y/z");
        let (parent, last) = q.split_last().unwrap();
        assert_eq!(parent, p);
        assert_eq!(last, "z");
        assert_eq!(Path::root().join("a").as_str(), "/a");
    }
}
