//! Durable file replacement that frees no disk block on the way.
//!
//! A temp-file-plus-rename write replaces the old file's inode, and the
//! filesystem frees its blocks inside the `rename`. On ext4 mounted with
//! `discard` that free dominates the whole write: tens of milliseconds for
//! a snapshot whose write and fsync take well under one. [`write_durable`]
//! keeps every replaced inode alive instead and overwrites it on the next
//! write, so a steady stream of writes to one path cycles two inodes and
//! never frees a block.

use std::fs::{self, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Suffix of the staging file: the superseded version, overwritten in
/// place by the next write.
const STAGING: &str = ".partial";
/// Suffix under which the version being replaced stays linked while the
/// new one is renamed over it.
const PREVIOUS: &str = ".prev";

/// `path` with `suffix` appended to its full name. Appending (never
/// replacing an extension) keeps `a.json` and `a.ckpt` — or `state.tmp`
/// and its own staging file — on distinct names.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// Replaces `path` with `bytes`, durably and atomically, without freeing
/// a disk block.
///
/// 1. `<path>.partial` is opened without truncation and overwritten with
///    `bytes`; when it was longer, the rest is padded with ASCII spaces
///    (shrinking it would free blocks), then it is fsynced.
/// 2. The current `path`, if any, is hard-linked as `<path>.prev`.
/// 3. `<path>.partial` is renamed over `path`. The old inode is still
///    linked as `<path>.prev`, so nothing is freed.
/// 4. `<path>.prev` is renamed to `<path>.partial`, ready for the next
///    write.
/// 5. The directory is fsynced. Until it is, the directory on disk may
///    still name the inode that is now `<path>.partial` as `path`, and
///    the next write overwrites that inode in place; a crash then would
///    tear the only complete copy.
///
/// When `Ok` is returned, `path` holds exactly `bytes` plus any trailing
/// spaces, and both the file and its directory entry are fsynced. A
/// crash at any step leaves `path` as the old or the new complete
/// content; the next call recovers from whatever staging files the crash
/// left. On a filesystem without hard links the write falls back to a
/// plain rename over `path`.
///
/// Readers must accept trailing whitespace, and must read the file in
/// one go: a reader that keeps `path` open across two writes can see its
/// inode rewritten. Writes to one `path` must not run concurrently: two
/// interleaved calls can leave `path` and `<path>.partial` naming one
/// inode, after which every write lands on `path` in place.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let staging = sibling(path, STAGING);
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&staging)?;
        f.write_all(bytes)?;
        let pad = f.metadata()?.len().saturating_sub(bytes.len() as u64);
        io::copy(&mut io::repeat(b' ').take(pad), &mut f)?;
        f.sync_all()?;
    }
    let previous = sibling(path, PREVIOUS);
    let linked = match fs::hard_link(path, &previous) {
        Ok(()) => true,
        // A crash between link and rename left `.prev` behind; it is
        // either another link to `path` or a file no name will reach.
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            fs::remove_file(&previous).is_ok() && fs::hard_link(path, &previous).is_ok()
        }
        // No `path` yet, or no hard links on this filesystem.
        Err(_) => false,
    };
    fs::rename(&staging, path)?;
    if linked {
        fs::rename(&previous, &staging)?;
    }
    sync_parent(path)
}

/// Fsyncs the directory holding `path`, making its renames durable.
#[cfg(unix)]
fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

/// Directories cannot be opened for fsync here; the renames are left to
/// the filesystem.
#[cfg(not(unix))]
fn sync_parent(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// `path` and the staging files [`write_durable`] keeps beside it.
pub(crate) fn durable_files(path: &Path) -> [PathBuf; 3] {
    [
        path.to_path_buf(),
        sibling(path, STAGING),
        sibling(path, PREVIOUS),
    ]
}
