//! The spill tier: page-granular scratch files for cold frontier levels
//! and frozen visited-record segments.
//!
//! The crate is `forbid(unsafe_code)` and dependency-free, so instead of
//! an `mmap` window the spill tier uses the equivalent safe primitives:
//! sequential `write_all` of page-aligned chunks (the append pattern the
//! page cache streams at device speed) and positioned
//! [`std::os::unix::fs::FileExt::read_exact_at`] reads, which neither
//! move a shared cursor nor require `&mut` — exactly the random-access
//! read surface a read-only mapping would give, minus the pointer. Files
//! are created in a scratch directory and unlinked immediately on Unix
//! (the open handle keeps the storage alive, and a killed process leaks
//! nothing); on other platforms spilling is disabled by the explorer and
//! this module is inert. DESIGN.md §9 describes the policy layered on
//! top.

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Spill granularity: chunks are padded to whole pages so every chunk
/// read/write is page-aligned at both ends.
pub(crate) const PAGE: u64 = 4096;

/// Whether this platform supports the spill tier (positioned reads).
pub(crate) const SPILL_SUPPORTED: bool = cfg!(unix);

/// Distinguishes concurrently created spill files within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// One append-only scratch file of page-aligned chunks.
#[derive(Debug)]
pub(crate) struct SpillFile {
    file: File,
    /// Kept only where eager unlinking is unavailable; removed on drop.
    path: Option<PathBuf>,
    /// Current end of file (page-aligned).
    len: u64,
    /// Cumulative payload bytes appended (survives [`SpillFile::reset`]).
    written: u64,
    /// Cumulative chunks appended (survives [`SpillFile::reset`]).
    chunks: u64,
    /// Payload bytes of the chunk being written part by part.
    open: u64,
}

impl SpillFile {
    /// Creates a scratch file in `std::env::temp_dir()` with a unique,
    /// tagged name.
    pub fn create(tag: &str) -> io::Result<SpillFile> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("protogen-mc-{}-{seq}-{tag}.spill", std::process::id()));
        let file = File::options().read(true).write(true).create_new(true).open(&path)?;
        // Unlink eagerly where the open handle keeps the file alive, so
        // even a SIGKILLed run leaks no scratch space.
        let path =
            if cfg!(unix) && std::fs::remove_file(&path).is_ok() { None } else { Some(path) };
        Ok(SpillFile { file, path, len: 0, written: 0, chunks: 0, open: 0 })
    }

    /// Appends `bytes` to the chunk being written; the chunk ends at the
    /// next [`SpillFile::end_chunk`]. Lets a caller serialize a chunk
    /// piece by piece instead of staging it whole in memory.
    pub fn write_part(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.open += bytes.len() as u64;
        Ok(())
    }

    /// Closes the chunk written by [`SpillFile::write_part`], padding the
    /// file to the next page boundary, and returns the chunk's offset.
    pub fn end_chunk(&mut self) -> io::Result<u64> {
        let off = self.len;
        let end = off + self.open;
        let aligned = end.div_ceil(PAGE) * PAGE;
        if aligned > end {
            // Seek-past-end + the next write would also materialize the
            // gap, but an explicit zero pad keeps `len` equal to the real
            // file size on every platform.
            self.file.write_all(&vec![0u8; (aligned - end) as usize])?;
        }
        self.len = aligned;
        self.written += self.open;
        self.chunks += 1;
        self.open = 0;
        Ok(off)
    }

    /// Fills `buf` from the chunk at `off` (positioned read; does not
    /// disturb the append cursor).
    #[cfg(unix)]
    pub fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)
    }

    /// Positioned reads need a platform primitive; the explorer never
    /// enables spilling where there is none (see [`SPILL_SUPPORTED`]).
    #[cfg(not(unix))]
    pub fn read_exact_at(&self, _buf: &mut [u8], _off: u64) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "positioned reads unavailable"))
    }

    /// Truncates the file for reuse (the handle and cumulative counters
    /// are kept).
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.len = 0;
        self.open = 0;
        Ok(())
    }

    /// Cumulative payload bytes appended over the file's lifetime.
    pub fn total_written(&self) -> u64 {
        self.written
    }

    /// Cumulative chunks appended over the file's lifetime.
    pub fn total_chunks(&self) -> u64 {
        self.chunks
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if let Some(p) = self.path.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends `bytes` as one chunk and returns its offset.
    fn append_chunk(f: &mut SpillFile, bytes: &[u8]) -> u64 {
        f.write_part(bytes).unwrap();
        f.end_chunk().unwrap()
    }

    #[test]
    fn chunks_are_page_aligned_and_read_back() {
        let mut f = SpillFile::create("test").unwrap();
        let a: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..100).map(|i| (i * 7 % 256) as u8).collect();
        let off_a = append_chunk(&mut f, &a);
        let off_b = append_chunk(&mut f, &b);
        assert_eq!(off_a, 0);
        assert_eq!(off_b % PAGE, 0, "chunk offsets are page-aligned");
        assert_eq!(off_b, 8192, "5000 bytes pad to two pages");
        assert_eq!(f.total_written(), 5100);
        assert_eq!(f.total_chunks(), 2);
        if SPILL_SUPPORTED {
            let mut back = vec![0u8; a.len()];
            f.read_exact_at(&mut back, off_a).unwrap();
            assert_eq!(back, a);
            let mut back = vec![0u8; b.len()];
            f.read_exact_at(&mut back, off_b).unwrap();
            assert_eq!(back, b);
        }
    }

    #[test]
    fn reset_reuses_the_file_but_keeps_counters() {
        let mut f = SpillFile::create("test").unwrap();
        append_chunk(&mut f, &[1, 2, 3]);
        f.reset().unwrap();
        let off = append_chunk(&mut f, &[9, 9]);
        assert_eq!(off, 0, "offsets restart after reset");
        assert_eq!(f.total_written(), 5, "counters are cumulative");
        assert_eq!(f.total_chunks(), 2);
        if SPILL_SUPPORTED {
            let mut back = [0u8; 2];
            f.read_exact_at(&mut back, 0).unwrap();
            assert_eq!(back, [9, 9]);
        }
    }
}
