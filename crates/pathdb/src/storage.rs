//! Injectable storage backend for the durability subsystem.
//!
//! All durable I/O (WAL appends, snapshot writes, manifest updates)
//! goes through the [`Storage`] trait, so the crash-injection tests
//! can substitute [`FaultyStorage`] — an in-memory filesystem that can
//! kill a write at any byte offset, tear the final write down to a
//! sector boundary, and inject transient `EIO`s — while production
//! uses [`DiskStorage`], which writes real files with `fsync` and
//! atomic rename.
//!
//! Crash model: every mutating call costs *units* (one per byte
//! written; one per rename, delete or truncate). When the cumulative
//! unit counter crosses the configured kill offset, the in-flight
//! write is truncated at exactly that many bytes (optionally rounded
//! down to a 512-byte sector boundary, emulating disks that tear on
//! sector granularity) and the storage goes *dead*: every later call
//! fails, as after a power cut. [`FaultyStorage::surviving`] then
//! clones the durable state into a fresh, healthy storage — the disk
//! as a rebooted process would find it.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// Sector size used by [`FaultyStorage`] when tearing writes.
const SECTOR: u64 = 512;

/// Abstract durable storage. Paths are interpreted by the backend;
/// [`DiskStorage`] maps them to the real filesystem.
pub trait Storage: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Append bytes to a file (creating it) and flush them durably.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Replace a file's contents atomically: write `<path>.tmp`, flush
    /// durably, rename over `path`, then flush the directory so the
    /// rename itself survives a crash.
    fn atomic_write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Truncate a file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Delete a file. Deleting a missing file is an error.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists.
    fn exists(&self, path: &Path) -> bool;
    /// Length of a file in bytes, `0` when missing.
    fn len(&self, path: &Path) -> u64;
    /// All file paths directly inside `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Create a directory (and parents). Idempotent.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

// ---- real filesystem ------------------------------------------------------

/// [`Storage`] over the real filesystem with `fsync` on every durable
/// step. This is what `Database::open_durable_with` uses by default.
#[derive(Debug, Default, Clone)]
pub struct DiskStorage;

impl DiskStorage {
    pub fn shared() -> Arc<dyn Storage> {
        Arc::new(DiskStorage)
    }
}

fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        // Directory fsync is what makes a rename (or file creation)
        // itself durable on POSIX filesystems.
        if let Ok(d) = fs::File::open(parent) {
            d.sync_all()?;
        }
    }
    Ok(())
}

impl Storage for DiskStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn atomic_write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)?;
        sync_parent_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn len(&self, path: &Path) -> u64 {
        fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
}

/// The temp-file sibling used by [`Storage::atomic_write`]
/// (`<name>.jsonl` → `<name>.jsonl.tmp`). Recovery ignores `.tmp`
/// leftovers from interrupted writes.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Whether a path is an [`Storage::atomic_write`] temp file.
pub(crate) fn is_tmp(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some("tmp")
}

// ---- fault-injecting in-memory filesystem ---------------------------------

#[derive(Debug, Default)]
struct FaultyInner {
    files: BTreeMap<PathBuf, Vec<u8>>,
    /// Cumulative units consumed by mutating calls (bytes written, plus
    /// one per rename / delete / truncate).
    units: u64,
    /// Crash when `units` would cross this value.
    kill_at: Option<u64>,
    /// Round the torn final write down to a [`SECTOR`] boundary
    /// (file-relative), emulating sector-granularity tearing.
    sector_tear: bool,
    /// The crash happened: every subsequent call fails.
    dead: bool,
    /// Fail the next N mutating calls with a transient `EIO` *before*
    /// writing anything, then recover.
    transient_errors: u32,
}

/// An in-memory [`Storage`] that can crash mid-write.
///
/// Clones share state (it is an `Arc` inside), so a test can keep a
/// handle while the database owns another.
#[derive(Debug, Clone, Default)]
pub struct FaultyStorage {
    inner: Arc<Mutex<FaultyInner>>,
}

fn eio(msg: &str) -> io::Error {
    io::Error::other(msg.to_string())
}

impl FaultyStorage {
    pub fn new() -> FaultyStorage {
        FaultyStorage::default()
    }

    /// Crash once the cumulative unit counter crosses `units`.
    pub fn kill_at(&self, units: u64) {
        self.inner.lock().kill_at = Some(units);
    }

    /// Tear the crashed write down to a 512-byte sector boundary.
    pub fn tear_to_sectors(&self, on: bool) {
        self.inner.lock().sector_tear = on;
    }

    /// Fail the next `n` mutating calls with a transient error (nothing
    /// is written), then operate normally.
    pub fn inject_transient_errors(&self, n: u32) {
        self.inner.lock().transient_errors = n;
    }

    /// Units consumed so far — record this after each operation in a
    /// fault-free run to learn every interesting kill offset.
    pub fn units_written(&self) -> u64 {
        self.inner.lock().units
    }

    /// The surviving durable state as a fresh, healthy storage — what a
    /// restarted process would find on disk after the crash.
    pub fn surviving(&self) -> FaultyStorage {
        let inner = self.inner.lock();
        FaultyStorage {
            inner: Arc::new(Mutex::new(FaultyInner {
                files: inner.files.clone(),
                ..FaultyInner::default()
            })),
        }
    }
}

impl FaultyInner {
    /// Account for a mutating call and decide how much of it happens.
    /// `Ok(n)` allows the first `n` of `cost` units; `n < cost` means
    /// the crash hits mid-call and the storage is now dead.
    fn admit(&mut self, cost: u64) -> io::Result<u64> {
        if self.dead {
            return Err(eio("storage crashed"));
        }
        if self.transient_errors > 0 {
            self.transient_errors -= 1;
            return Err(eio("transient I/O error"));
        }
        if let Some(kill) = self.kill_at {
            let budget = kill.saturating_sub(self.units);
            if cost > budget {
                self.units = kill;
                self.dead = true;
                return Ok(budget);
            }
        }
        self.units += cost;
        Ok(cost)
    }
}

impl Storage for FaultyStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let inner = self.inner.lock();
        if inner.dead {
            return Err(eio("storage crashed"));
        }
        inner
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.display().to_string()))
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        let admitted = inner.admit(data.len() as u64)?;
        let sector_tear = inner.sector_tear;
        let file = inner.files.entry(path.to_path_buf()).or_default();
        let mut keep = admitted;
        if keep < data.len() as u64 && sector_tear {
            // Torn write: whole sectors (relative to file start) survive.
            let end = file.len() as u64 + keep;
            let kept_end = end - end % SECTOR;
            keep = kept_end.saturating_sub(file.len() as u64).min(keep);
        }
        file.extend_from_slice(&data[..keep as usize]);
        if admitted < data.len() as u64 {
            return Err(eio("storage crashed mid-append"));
        }
        Ok(())
    }

    fn atomic_write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path);
        // Content write into the temp file — may tear, leaving a
        // partial `.tmp` that recovery ignores.
        self.append(&tmp, data)?;
        // The rename is one unit: either it happens or it doesn't.
        let mut inner = self.inner.lock();
        if inner.admit(1)? < 1 {
            return Err(eio("storage crashed before rename"));
        }
        if let Some(bytes) = inner.files.remove(&tmp) {
            inner.files.insert(path.to_path_buf(), bytes);
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if inner.admit(1)? < 1 {
            return Err(eio("storage crashed before truncate"));
        }
        match inner.files.get_mut(path) {
            Some(bytes) => {
                bytes.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                path.display().to_string(),
            )),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if inner.admit(1)? < 1 {
            return Err(eio("storage crashed before remove"));
        }
        match inner.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                path.display().to_string(),
            )),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.lock().files.contains_key(path)
    }

    fn len(&self, path: &Path) -> u64 {
        self.inner
            .lock()
            .files
            .get(path)
            .map(|b| b.len() as u64)
            .unwrap_or(0)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let inner = self.inner.lock();
        if inner.dead {
            return Err(eio("storage crashed"));
        }
        Ok(inner
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        let inner = self.inner.lock();
        if inner.dead {
            return Err(eio("storage crashed"));
        }
        Ok(())
    }
}

// `DiskStorage` round-trips are covered in `database.rs` tests; here we
// pin the crash semantics the property suite depends on.
#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn faulty_append_and_read_roundtrip() {
        let s = FaultyStorage::new();
        s.append(&p("/db/a.log"), b"hello ").unwrap();
        s.append(&p("/db/a.log"), b"world").unwrap();
        assert_eq!(s.read(&p("/db/a.log")).unwrap(), b"hello world");
        assert_eq!(s.len(&p("/db/a.log")), 11);
        assert_eq!(s.units_written(), 11);
    }

    #[test]
    fn kill_mid_append_truncates_and_goes_dead() {
        let s = FaultyStorage::new();
        s.kill_at(4);
        assert!(s.append(&p("/db/a.log"), b"abcdefgh").is_err());
        assert!(s.inner.lock().dead);
        // Exactly 4 bytes survived; everything later fails.
        let survivor = s.surviving();
        assert_eq!(survivor.read(&p("/db/a.log")).unwrap(), b"abcd");
        assert!(s.append(&p("/db/a.log"), b"x").is_err());
        assert!(s.read(&p("/db/a.log")).is_err());
    }

    #[test]
    fn sector_tear_rounds_down() {
        let s = FaultyStorage::new();
        s.tear_to_sectors(true);
        s.kill_at(700);
        assert!(s.append(&p("/db/a.log"), &[7u8; 1024]).is_err());
        // 700 bytes admitted, torn down to the 512-byte boundary.
        assert_eq!(s.surviving().len(&p("/db/a.log")), 512);
    }

    #[test]
    fn atomic_write_is_all_or_nothing() {
        // Crash during the temp-file write: target untouched.
        let s = FaultyStorage::new();
        s.append(&p("/db/c.jsonl"), b"old").unwrap();
        s.kill_at(s.units_written() + 2);
        assert!(s.atomic_write(&p("/db/c.jsonl"), b"new-content").is_err());
        let after = s.surviving();
        assert_eq!(after.read(&p("/db/c.jsonl")).unwrap(), b"old");
        assert!(after.exists(&p("/db/c.jsonl.tmp")), "partial tmp remains");

        // Crash exactly before the rename unit: target still untouched.
        let s = FaultyStorage::new();
        s.append(&p("/db/c.jsonl"), b"old").unwrap();
        s.kill_at(s.units_written() + 11); // the full payload, not the rename
        assert!(s.atomic_write(&p("/db/c.jsonl"), b"new-content").is_err());
        assert_eq!(s.surviving().read(&p("/db/c.jsonl")).unwrap(), b"old");

        // Enough budget: the rename lands and the tmp file is gone.
        let s = FaultyStorage::new();
        s.append(&p("/db/c.jsonl"), b"old").unwrap();
        s.atomic_write(&p("/db/c.jsonl"), b"new-content").unwrap();
        assert_eq!(s.read(&p("/db/c.jsonl")).unwrap(), b"new-content");
        assert!(!s.exists(&p("/db/c.jsonl.tmp")));
    }

    #[test]
    fn transient_errors_recover() {
        let s = FaultyStorage::new();
        s.inject_transient_errors(2);
        assert!(s.append(&p("/db/a.log"), b"x").is_err());
        assert!(s.append(&p("/db/a.log"), b"x").is_err());
        s.append(&p("/db/a.log"), b"x").unwrap();
        assert_eq!(s.len(&p("/db/a.log")), 1, "failed attempts wrote nothing");
        assert!(!s.inner.lock().dead);
    }

    #[test]
    fn list_scopes_to_directory() {
        let s = FaultyStorage::new();
        s.append(&p("/db/a.jsonl"), b"x").unwrap();
        s.append(&p("/db/b.jsonl"), b"x").unwrap();
        s.append(&p("/other/c.jsonl"), b"x").unwrap();
        let got = s.list(&p("/db")).unwrap();
        assert_eq!(got, vec![p("/db/a.jsonl"), p("/db/b.jsonl")]);
    }

    #[test]
    fn disk_storage_atomic_write_and_append() {
        let dir = std::env::temp_dir().join(format!("pathdb-storage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = DiskStorage;
        s.create_dir_all(&dir).unwrap();
        let f = dir.join("w.log");
        s.append(&f, b"one").unwrap();
        s.append(&f, b"two").unwrap();
        assert_eq!(s.read(&f).unwrap(), b"onetwo");
        s.truncate(&f, 3).unwrap();
        assert_eq!(s.read(&f).unwrap(), b"one");
        s.atomic_write(&f, b"fresh").unwrap();
        assert_eq!(s.read(&f).unwrap(), b"fresh");
        assert!(!is_tmp(&f));
        assert!(is_tmp(&tmp_path(&f)));
        assert_eq!(s.list(&dir).unwrap(), vec![f.clone()]);
        s.remove(&f).unwrap();
        assert!(!s.exists(&f));
        fs::remove_dir_all(&dir).unwrap();
    }
}
