//! The filesystem as a capability: how bytes reach and leave the disk.
//!
//! The whole system performs every filesystem operation through an [`Fs`],
//! the way the request plane reads time through a `Clock`: the codec in
//! [`crate::persist`], the segment store, and above them the service and
//! the fleet, on the `Fs` of the store or fleet they belong to. The trait
//! has exactly the operations they perform: whole-file reads, positioned
//! reads through an open handle, atomic replacement, a durable append to
//! an existing file (the segment store's manifest log), rename, remove,
//! directory listing, directory creation and the existence check.
//! [`OsFs`] is the one production implementation and the one place
//! `std::fs` is named outside tests; [`MemFs`] keeps the same tree in
//! memory.
//!
//! Errors are plain [`io::Error`]s; the caller names the file (every
//! [`PersistError::Io`](crate::persist::PersistError::Io) carries its path).

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// How the storage layer reaches the disk. Implementations are shared
/// across the threads that query one store, hence `Send + Sync`.
pub trait Fs: Debug + Send + Sync {
    /// The whole contents of the file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Opens the file at `path` for positioned reads: a request that reads
    /// several ranges of one file opens it once.
    fn open(&self, path: &Path) -> io::Result<Box<dyn ReadAt>>;

    /// Replaces the file at `path` with `contents` atomically: once this
    /// returns, `path` holds `contents` durably, and a crash at any point
    /// before leaves `path` holding its previous complete contents (or
    /// absent, if it was) — never a prefix. A crash may leave a sibling
    /// `<name>.tmp` behind, which the segment store's open sweeps.
    fn write_atomic(&self, path: &Path, contents: &[u8]) -> io::Result<()>;

    /// Writes `bytes` at the end of the existing file at `path` and flushes
    /// them to disk: once this returns, the file durably ends with them. A
    /// missing file is [`io::ErrorKind::NotFound`]. Not atomic: a crash or
    /// a failure part-way may leave any prefix of `bytes` appended, so a
    /// reader of an appended file must recognise a torn end (the manifest
    /// log ends every record with `\n`).
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Renames `from` to `to`, replacing a file at `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// The entries of directory `dir`, each as `dir` joined with its name,
    /// sorted.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Whether a file or directory exists at `path`. An error means the
    /// check itself failed, not that nothing is there.
    fn exists(&self, path: &Path) -> io::Result<bool>;
}

/// An open file, read at explicit offsets.
pub trait ReadAt: Send {
    /// Fills `buf` with the bytes starting at `offset`; fails if the file
    /// ends first.
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
}

/// The operating system's filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsFs;

impl Fs for OsFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn ReadAt>> {
        Ok(Box::new(File::open(path)?))
    }

    /// The durability protocol every stored file is written with: the
    /// bytes go to a sibling `<name>.tmp` file, are flushed to disk
    /// (`fsync`), the temp file is renamed over `path`, and the parent
    /// directory is fsynced so the rename itself survives power loss. A
    /// crash at any point leaves `path` either untouched (still the
    /// previous complete file) or fully replaced — never truncated.
    ///
    /// The temp name is deterministic, so two concurrent writers to the
    /// same path race on it; callers that share a path must serialize
    /// writes (the segment store does, by requiring `&mut self` for all
    /// writes).
    fn write_atomic(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path)?;
        {
            let mut file = File::create(&tmp)?;
            file.write_all(contents)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // Durability of the rename: the directory entry must reach disk
        // too, or a power cut can resurrect the old file (or lose the new
        // name) after the caller was told the write succeeded.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()
    }

    /// Opens `path` for appending (never creating it), writes `bytes` and
    /// fsyncs the file. The file already exists, so its directory entry
    /// needs no fsync.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut paths = fs::read_dir(dir)?
            .map(|entry| entry.map(|entry| entry.path()))
            .collect::<io::Result<Vec<_>>>()?;
        paths.sort();
        Ok(paths)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> io::Result<bool> {
        path.try_exists()
    }
}

/// The sibling `<name>.tmp` an atomic write of `path` goes through.
fn tmp_path(path: &Path) -> io::Result<PathBuf> {
    let mut file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_os_string();
    file_name.push(".tmp");
    Ok(path.with_file_name(file_name))
}

impl ReadAt for File {
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.seek(SeekFrom::Start(offset))?;
        self.read_exact(buf)
    }
}

enum Entry {
    Dir,
    File(Arc<Vec<u8>>),
}

/// An in-memory [`Fs`]: a map from path to directory or file bytes,
/// with the semantics the storage layer relies on from [`OsFs`] — a
/// write or rename needs its parent directory, a listing is sorted, an
/// absent path is [`io::ErrorKind::NotFound`]. An atomic write goes
/// through the same temp file as on the disk, in one step under one lock.
#[derive(Default)]
pub struct MemFs {
    entries: Mutex<BTreeMap<PathBuf, Entry>>,
}

impl Debug for MemFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemFs")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

fn not_a_file(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, path.display().to_string())
}

impl MemFs {
    fn file(entries: &BTreeMap<PathBuf, Entry>, path: &Path) -> io::Result<Arc<Vec<u8>>> {
        match entries.get(path) {
            Some(Entry::File(bytes)) => Ok(Arc::clone(bytes)),
            Some(Entry::Dir) => Err(not_a_file(path)),
            None => Err(not_found(path)),
        }
    }

    /// Fails unless `path`'s parent is a directory and `path` is not.
    fn check_writable(entries: &BTreeMap<PathBuf, Entry>, path: &Path) -> io::Result<()> {
        let parent = path.parent().ok_or_else(|| not_a_file(path))?;
        match entries.get(parent) {
            Some(Entry::Dir) => {}
            _ => return Err(not_found(parent)),
        }
        match entries.get(path) {
            Some(Entry::Dir) => Err(not_a_file(path)),
            _ => Ok(()),
        }
    }
}

struct MemFile(Arc<Vec<u8>>);

impl ReadAt for MemFile {
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let start = usize::try_from(offset).unwrap_or(usize::MAX);
        let end = start.saturating_add(buf.len());
        let bytes = self
            .0
            .get(start..end)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past the end"))?;
        buf.copy_from_slice(bytes);
        Ok(())
    }
}

impl Fs for MemFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        Ok(Self::file(&self.entries.lock(), path)?.to_vec())
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn ReadAt>> {
        Ok(Box::new(MemFile(Self::file(&self.entries.lock(), path)?)))
    }

    /// [`OsFs::write_atomic`]'s steps, under one lock: the bytes go to a
    /// sibling `<name>.tmp`, which then replaces `path`. A replace that
    /// fails — `path` is a directory — leaves the temp file behind, as on
    /// the disk.
    fn write_atomic(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path)?;
        let bytes = Arc::new(contents.to_vec());
        let mut entries = self.entries.lock();
        Self::check_writable(&entries, &tmp)?;
        entries.insert(tmp.clone(), Entry::File(Arc::clone(&bytes)));
        Self::check_writable(&entries, path)?;
        entries.remove(&tmp);
        entries.insert(path.to_path_buf(), Entry::File(bytes));
        Ok(())
    }

    /// Extends the file's bytes in place, or a copy of them when an open
    /// handle still shares them.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.entries.lock().get_mut(path) {
            Some(Entry::File(file)) => {
                Arc::make_mut(file).extend_from_slice(bytes);
                Ok(())
            }
            Some(Entry::Dir) => Err(not_a_file(path)),
            None => Err(not_found(path)),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut entries = self.entries.lock();
        if !matches!(entries.get(from), Some(Entry::File(_))) {
            return Err(not_found(from));
        }
        Self::check_writable(&entries, to)?;
        let entry = entries.remove(from).ok_or_else(|| not_found(from))?;
        entries.insert(to.to_path_buf(), entry);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut entries = self.entries.lock();
        Self::file(&entries, path)?;
        entries.remove(path);
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let entries = self.entries.lock();
        match entries.get(dir) {
            Some(Entry::Dir) => Ok(entries
                .keys()
                .filter(|path| path.parent() == Some(dir))
                .cloned()
                .collect()),
            Some(Entry::File(_)) => Err(not_a_file(dir)),
            None => Err(not_found(dir)),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut entries = self.entries.lock();
        for ancestor in dir.ancestors().filter(|a| !a.as_os_str().is_empty()) {
            match entries.get(ancestor) {
                Some(Entry::File(_)) => return Err(not_a_file(ancestor)),
                Some(Entry::Dir) => {}
                None => {
                    entries.insert(ancestor.to_path_buf(), Entry::Dir);
                }
            }
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> io::Result<bool> {
        Ok(self.entries.lock().contains_key(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same operations on [`OsFs`] and [`MemFs`] leave the same
    /// listing and bytes, and fail the same way: a replaced file holds the
    /// second write and no temp file is left beside it, an appended file
    /// holds both appends, and a write over a directory leaves its temp
    /// file on both.
    #[test]
    fn mem_fs_behaves_as_os_fs() {
        let os_root = std::env::temp_dir().join("focus_index_fs_equivalence");
        let _ = fs::remove_dir_all(&os_root);
        let mem_root = PathBuf::from("/mem/focus_index_fs_equivalence");
        let sides: [(&dyn Fs, &Path); 2] = [(&OsFs, &os_root), (&MemFs::default(), &mem_root)];
        let mut seen = Vec::new();
        for (fs, root) in sides {
            let dir = root.join("store");
            assert!(!fs.exists(&dir).unwrap());
            assert_eq!(
                fs.write_atomic(&dir.join("a"), b"x").unwrap_err().kind(),
                io::ErrorKind::NotFound
            );
            fs.create_dir_all(&dir).unwrap();
            fs.write_atomic(&dir.join("b"), b"first").unwrap();
            fs.write_atomic(&dir.join("b"), b"second").unwrap();
            fs.write_atomic(&dir.join("a"), b"0123456789").unwrap();
            fs.rename(&dir.join("b"), &dir.join("c")).unwrap();
            let mut file = fs.open(&dir.join("a")).unwrap();
            let mut buf = [0u8; 3];
            file.read_exact_at(4, &mut buf).unwrap();
            assert_eq!(&buf, b"456");
            assert!(file.read_exact_at(8, &mut buf).is_err());
            assert_eq!(
                fs.read(&dir.join("b")).unwrap_err().kind(),
                io::ErrorKind::NotFound
            );
            // An append extends an existing file and creates none.
            assert_eq!(
                fs.append(&dir.join("e"), b"x").unwrap_err().kind(),
                io::ErrorKind::NotFound
            );
            fs.write_atomic(&dir.join("e"), b"").unwrap();
            fs.append(&dir.join("e"), b"one\n").unwrap();
            fs.append(&dir.join("e"), b"two\n").unwrap();
            fs.write_atomic(&dir.join("d"), b"gone").unwrap();
            fs.remove(&dir.join("d")).unwrap();
            assert!(fs.remove(&dir.join("d")).is_err());
            // A directory where a file is written: the write fails and
            // leaves its temp file, which the listing compares.
            let blocked = dir.join("blocked");
            fs.create_dir_all(&blocked).unwrap();
            assert!(fs.write_atomic(&blocked, b"x").is_err());
            assert!(fs.append(&blocked, b"x").is_err());
            assert!(fs.read(&blocked).is_err());
            let listing: Vec<_> = fs
                .list(&dir)
                .unwrap()
                .iter()
                .map(|path| {
                    assert_eq!(path.parent(), Some(dir.as_path()));
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, fs.read(path).ok())
                })
                .collect();
            assert!(fs.exists(&dir.join("c")).unwrap());
            seen.push(listing);
        }
        assert_eq!(seen[0], seen[1]);
        assert_eq!(
            seen[0],
            vec![
                ("a".to_string(), Some(b"0123456789".to_vec())),
                ("blocked".to_string(), None),
                ("blocked.tmp".to_string(), Some(b"x".to_vec())),
                ("c".to_string(), Some(b"second".to_vec())),
                ("e".to_string(), Some(b"one\ntwo\n".to_vec())),
            ]
        );
        fs::remove_dir_all(&os_root).ok();
    }

    /// Of two threads removing one file, exactly one succeeds.
    #[test]
    fn mem_fs_removes_a_file_once() {
        let fs = MemFs::default();
        let path = Path::new("/mem/racy");
        fs.create_dir_all(path.parent().unwrap()).unwrap();
        for _ in 0..10_000 {
            fs.write_atomic(path, b"x").unwrap();
            let barrier = std::sync::Barrier::new(2);
            let removed = std::thread::scope(|scope| {
                let remove = || {
                    barrier.wait();
                    fs.remove(path).is_ok()
                };
                [scope.spawn(remove), scope.spawn(remove)].map(|racer| racer.join().unwrap())
            });
            assert_eq!(removed.iter().filter(|removed| **removed).count(), 1);
        }
    }
}
