//! # ks-store — stable fingerprints and a persistent artifact store
//!
//! The sharded single-flight cache in ks-core is in-memory only: every
//! process restart recompiles the world. This crate supplies the two
//! pieces needed to persist compiled artifacts safely:
//!
//! 1. **Stable hashing** ([`StableHasher`], [`Fingerprint`]): a
//!    hand-rolled 128-bit FNV-1a with explicit, length-disciplined
//!    write methods. `std::collections::hash_map::DefaultHasher` is
//!    documented to be unstable across Rust releases — fine for an
//!    in-process map, silently corrupting for any key that touches
//!    disk. The hasher here is pinned by tests: if its output for
//!    fixed inputs ever changes, CI fails before a store written by
//!    one build can poison another.
//!
//! 2. **A versioned, content-addressed record store** ([`Store`]):
//!    each record is a self-describing file — magic, format version,
//!    fingerprint, payload length, payload checksum, payload — written
//!    atomically (unique temp file + rename) so concurrent writers of
//!    the same key converge on exactly one valid record. Loading
//!    validates every header field and the checksum; any mismatch is a
//!    typed [`StoreError`], never a panic, so callers can degrade to a
//!    recompile.
//!
//! The crate is a leaf: it knows nothing about kernels or binaries.
//! ks-core layers `Binary` serialization and the read-through /
//! write-through cache tier on top.

mod bytes;
mod fp;

pub use bytes::{ByteReader, ByteWriter};
pub use fp::{checksum, Fingerprint, StableHasher};

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk record format version. Bump on any layout change; readers
/// reject records from other versions with [`StoreError::Version`].
/// Version 2 checksums payloads with the word-wise [`checksum`]
/// (version 1 used byte-wise FNV-1a-64).
pub const FORMAT_VERSION: u32 = 2;

/// Record magic: the first four bytes of every valid record file.
const MAGIC: [u8; 4] = *b"KSST";

/// Fixed header size: magic (4) + version (4) + fingerprint (16) +
/// payload length (8) + payload checksum (8).
pub const HEADER_LEN: usize = 40;

/// File extension for record files.
pub const RECORD_EXT: &str = "ksb";

/// Directory (under the store root) corrupt records are moved into by
/// [`Store::scrub`]. Quarantined files keep their original names so a
/// postmortem can inspect exactly what rotted; they are invisible to
/// [`Store::load`] (which resolves only fan-out paths), so a
/// quarantined key simply misses and recompiles.
const QUARANTINE_DIR: &str = "quarantine";

/// Everything that can go wrong talking to the store. Every variant is
/// recoverable: callers treat any error as "no usable record" and
/// degrade to a recompile.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure (open/read/write/rename).
    Io(std::io::Error),
    /// The first four bytes were not [`MAGIC`] — not a record file.
    BadMagic { found: [u8; 4] },
    /// Record written by a different store format version.
    Version { found: u32, expected: u32 },
    /// Header fingerprint does not match the key the record was looked
    /// up under (misfiled or tampered record).
    FingerprintMismatch {
        expected: Fingerprint,
        found: Fingerprint,
    },
    /// Payload checksum mismatch (bit rot or torn write).
    ChecksumMismatch { expected: u64, found: u64 },
    /// The file ended before the declared payload did.
    Truncated { needed: usize, available: usize },
    /// Structurally invalid payload content (bad tag, bad length,
    /// unknown enum discriminant) discovered during decoding.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "store record has bad magic {found:02x?}")
            }
            StoreError::Version { found, expected } => write!(
                f,
                "store record format version {found} (this build reads {expected})"
            ),
            StoreError::FingerprintMismatch { expected, found } => write!(
                f,
                "store record fingerprint {found} does not match key {expected}"
            ),
            StoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "store record payload checksum {found:016x} != header {expected:016x}"
            ),
            StoreError::Truncated { needed, available } => write!(
                f,
                "store record truncated: needed {needed} bytes, had {available}"
            ),
            StoreError::Corrupt(msg) => write!(f, "store record corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A content-addressed record store rooted at one directory.
///
/// Records are filed under a one-byte fan-out
/// (`<root>/<hh>/<32-hex-fingerprint>.ksb`) so large stores do not pile
/// thousands of files into one directory. Writes are atomic: the
/// record is assembled in a uniquely-named temp file in the same
/// directory and `rename`d into place, so readers only ever observe
/// absent or complete files, and same-key races converge on one
/// record.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

/// Process-unique suffix counter for temp files (rename targets).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A record's temp file, removed on drop unless [`TempFile::commit`]
/// renamed it into place: a failed write, sync or rename (a recurring
/// ENOSPC, say) leaves no `.tmp-*` file behind for nothing to collect.
struct TempFile(Option<PathBuf>);

impl TempFile {
    fn path(&self) -> &Path {
        self.0
            .as_deref()
            .expect("a temp file is live until committed")
    }

    /// Rename the temp file to `to`; on failure it is removed on drop.
    fn commit(mut self, to: &Path) -> std::io::Result<()> {
        fs::rename(self.path(), to)?;
        self.0 = None;
        Ok(())
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        if let Some(path) = &self.0 {
            let _ = fs::remove_file(path);
        }
    }
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path a record for `fp` lives at (whether or not it exists).
    pub fn record_path(&self, fp: Fingerprint) -> PathBuf {
        let hex = fp.to_hex();
        self.root
            .join(&hex[..2])
            .join(format!("{hex}.{RECORD_EXT}"))
    }

    /// True if a record file for `fp` exists (no validation).
    pub fn contains(&self, fp: Fingerprint) -> bool {
        self.record_path(fp).exists()
    }

    /// Persist `payload` under `fp`. Returns `Ok(true)` if this call
    /// wrote the record, `Ok(false)` if a record was already present
    /// (the common outcome for the losers of a same-key race).
    pub fn save(&self, fp: Fingerprint, payload: &[u8]) -> Result<bool, StoreError> {
        let path = self.record_path(fp);
        if path.exists() {
            return Ok(false);
        }
        let dir = path.parent().expect("record path always has a parent");
        fs::create_dir_all(dir)?;
        let tmp = TempFile(Some(dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ))));
        let mut w = ByteWriter::new();
        w.bytes_raw(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u128(fp.as_u128());
        w.u64(payload.len() as u64);
        w.u64(checksum(payload));
        {
            let mut f = fs::File::create(tmp.path())?;
            f.write_all(w.as_slice())?;
            f.write_all(payload)?;
            f.sync_all()?;
        }
        // Atomic publish; on the rare race where two writers both got
        // past the exists() check, last rename wins and both files are
        // complete and identical in content-addressed terms.
        tmp.commit(&path)?;
        Ok(true)
    }

    /// Load the payload stored under `fp`.
    ///
    /// `Ok(None)` means "no record" (a clean miss). Any present-but-
    /// invalid record is a typed error so the caller can count it and
    /// recompile; this function never panics on file contents.
    pub fn load(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.record_path(fp);
        let mut file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let payload_len = Self::decode_record(fp, &data)?.len();
        // Hand back the buffer just read, minus its header: no second
        // allocation.
        data.drain(..HEADER_LEN);
        data.truncate(payload_len);
        Ok(Some(data))
    }

    /// Validate a raw record image — every header field, then the
    /// checksum over the full payload — and return its payload.
    pub fn decode_record(fp: Fingerprint, data: &[u8]) -> Result<&[u8], StoreError> {
        let (payload_len, expected_sum) = Self::parse_header(fp, data)?;
        let payload = &data[HEADER_LEN..HEADER_LEN + payload_len];
        let found_sum = checksum(payload);
        if found_sum != expected_sum {
            return Err(StoreError::ChecksumMismatch {
                expected: expected_sum,
                found: found_sum,
            });
        }
        Ok(payload)
    }

    /// Validate only a record image's *header*: magic, version,
    /// fingerprint, and that the file is long enough for the declared
    /// payload; returns the declared payload length (known to fit in
    /// `data`) and checksum. A bit flip inside the payload leaves every
    /// header field intact and passes here: only [`Store::decode_record`]'s
    /// full payload-checksum walk (what [`Store::scrub`] runs) catches it.
    fn parse_header(fp: Fingerprint, data: &[u8]) -> Result<(usize, u64), StoreError> {
        if data.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                needed: HEADER_LEN,
                available: data.len(),
            });
        }
        let mut r = ByteReader::new(data);
        let magic = r.array::<4>()?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(StoreError::Version {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let found_fp = Fingerprint::from_u128(r.u128()?);
        if found_fp != fp {
            return Err(StoreError::FingerprintMismatch {
                expected: fp,
                found: found_fp,
            });
        }
        let payload_len = r.u64()? as usize;
        let declared_sum = r.u64()?;
        if data.len() - HEADER_LEN < payload_len {
            return Err(StoreError::Truncated {
                needed: HEADER_LEN.saturating_add(payload_len),
                available: data.len(),
            });
        }
        Ok((payload_len, declared_sum))
    }

    /// The directory [`Store::scrub`] moves corrupt records into.
    fn quarantine_dir(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// Full-payload integrity walk over every record in the store.
    ///
    /// Each `.ksb` file is read and validated end to end — header
    /// fields *and* payload checksum, the same checks [`Store::load`]
    /// runs — plus the fan-out invariant that the file is named by its
    /// own fingerprint. Corrupt records are moved (never deleted) into
    /// [`QUARANTINE_DIR`], where the load path cannot see them, so the
    /// affected keys turn into clean misses and recompile; the evidence
    /// survives for postmortems. The walk is ordered by file name, so
    /// the report is deterministic for a given set of corruptions.
    ///
    /// Only filesystem-level failures (unreadable directories, a failed
    /// quarantine rename) abort the walk; corrupt *content* never does.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        let mut fanout: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&self.root)?.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() && name.to_str() != Some(QUARANTINE_DIR) {
                fanout.push(path);
            }
        }
        fanout.sort();
        for dir in fanout {
            let mut records: Vec<PathBuf> = fs::read_dir(&dir)?
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == RECORD_EXT))
                .collect();
            records.sort();
            for path in records {
                report.scanned += 1;
                let verdict = Self::scrub_one(&path);
                match verdict {
                    Ok(()) => report.valid += 1,
                    Err(err) => {
                        let name = path
                            .file_name()
                            .and_then(|n| n.to_str())
                            .unwrap_or("?")
                            .to_string();
                        self.quarantine_record(&path)?;
                        report.quarantined.push((name, err));
                    }
                }
            }
        }
        Ok(report)
    }

    /// Validate one record file in place (name → fingerprint → full
    /// decode). Any defect is the typed error quarantine will carry.
    fn scrub_one(path: &Path) -> Result<(), StoreError> {
        let fp = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(Fingerprint::from_hex)
            .ok_or_else(|| {
                StoreError::Corrupt("record file name is not a 32-hex fingerprint".into())
            })?;
        let data = fs::read(path)?;
        Store::decode_record(fp, &data).map(drop)
    }

    /// Move a corrupt record into `quarantine/`, keeping its name (a
    /// numeric suffix disambiguates the pathological repeat case).
    fn quarantine_record(&self, path: &Path) -> Result<(), StoreError> {
        let qdir = self.quarantine_dir();
        fs::create_dir_all(&qdir)?;
        let name = path.file_name().expect("record path has a file name");
        let mut target = qdir.join(name);
        let mut n = 0u32;
        while target.exists() {
            n += 1;
            target = qdir.join(format!("{}.{n}", name.to_string_lossy()));
        }
        fs::rename(path, &target)?;
        Ok(())
    }
}

/// What one [`Store::scrub`] walk found and did.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Record files visited.
    pub scanned: usize,
    /// Records that passed the full decode.
    pub valid: usize,
    /// `(file name, defect)` for each record moved to `quarantine/`,
    /// in walk order.
    pub quarantined: Vec<(String, StoreError)>,
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scrub: scanned {} records, {} valid, {} quarantined",
            self.scanned,
            self.valid,
            self.quarantined.len()
        )?;
        for (name, err) in &self.quarantined {
            write!(f, "\n  quarantined {name}: {err}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ks-store-test-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn fp_of(s: &str) -> Fingerprint {
        let mut h = StableHasher::new();
        h.str(s);
        h.finish()
    }

    #[test]
    fn save_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let store = Store::open(&dir).unwrap();
        let fp = fp_of("k1");
        let payload = b"specialized ptx bytes".to_vec();
        assert!(store.save(fp, &payload).unwrap(), "first save writes");
        assert!(!store.save(fp, &payload).unwrap(), "second save is a no-op");
        assert_eq!(store.load(fp).unwrap(), Some(payload));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_record_is_a_clean_none() {
        let dir = tmpdir("missing");
        let store = Store::open(&dir).unwrap();
        assert!(store.load(fp_of("absent")).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = tmpdir("magic");
        let store = Store::open(&dir).unwrap();
        let fp = fp_of("k");
        store.save(fp, b"x").unwrap();
        let path = store.record_path(fp);
        let mut data = fs::read(&path).unwrap();
        data[0] = b'X';
        fs::write(&path, &data).unwrap();
        assert!(matches!(store.load(fp), Err(StoreError::BadMagic { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = tmpdir("version");
        let store = Store::open(&dir).unwrap();
        let fp = fp_of("k");
        store.save(fp, b"x").unwrap();
        let path = store.record_path(fp);
        let mut data = fs::read(&path).unwrap();
        data[4] = FORMAT_VERSION as u8 + 1; // version lives right after magic
        fs::write(&path, &data).unwrap();
        assert!(matches!(store.load(fp), Err(StoreError::Version { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record written by a format-1 build (byte-wise FNV-1a-64
    /// checksum): `load` rejects it by version before looking at the
    /// payload, and `scrub` quarantines it.
    #[test]
    fn version_1_record_is_rejected_and_quarantined() {
        let dir = tmpdir("v1");
        let store = Store::open(&dir).unwrap();
        let fp = fp_of("written by format 1");
        let payload = b"a format-1 payload";
        let mut w = ByteWriter::new();
        w.bytes_raw(&MAGIC);
        w.u32(1);
        w.u128(fp.as_u128());
        w.u64(payload.len() as u64);
        w.u64(0xaf63_dc4c_8601_ec8c);
        w.bytes_raw(payload);
        let path = store.record_path(fp);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, w.as_slice()).unwrap();
        assert!(matches!(
            store.load(fp),
            Err(StoreError::Version {
                found: 1,
                expected: FORMAT_VERSION
            })
        ));
        let report = store.scrub().unwrap();
        assert_eq!((report.scanned, report.valid), (1, 0));
        assert!(matches!(
            report.quarantined[..],
            [(_, StoreError::Version { found: 1, .. })]
        ));
        assert!(store.load(fp).unwrap().is_none(), "clean miss after scrub");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let dir = tmpdir("fpmm");
        let store = Store::open(&dir).unwrap();
        let a = fp_of("a");
        let b = fp_of("b");
        store.save(a, b"payload-a").unwrap();
        // Misfile a's record under b's path.
        fs::create_dir_all(store.record_path(b).parent().unwrap()).unwrap();
        fs::copy(store.record_path(a), store.record_path(b)).unwrap();
        assert!(matches!(
            store.load(b),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let dir = tmpdir("checksum");
        let store = Store::open(&dir).unwrap();
        let fp = fp_of("k");
        store.save(fp, b"payload payload payload").unwrap();
        let path = store.record_path(fp);
        let mut data = fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xff;
        fs::write(&path, &data).unwrap();
        assert!(matches!(
            store.load(fp),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_record_is_truncated_not_a_panic() {
        let dir = tmpdir("torn");
        let store = Store::open(&dir).unwrap();
        let fp = fp_of("k");
        store.save(fp, b"a payload long enough to tear").unwrap();
        let path = store.record_path(fp);
        let data = fs::read(&path).unwrap();
        // Tear mid-payload and mid-header.
        fs::write(&path, &data[..HEADER_LEN + 3]).unwrap();
        assert!(matches!(store.load(fp), Err(StoreError::Truncated { .. })));
        fs::write(&path, &data[..HEADER_LEN - 7]).unwrap();
        assert!(matches!(store.load(fp), Err(StoreError::Truncated { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_flip_passes_header_check_but_scrub_catches_it() {
        let dir = tmpdir("scrub-flip");
        let store = Store::open(&dir).unwrap();
        let good = fp_of("survivor");
        let bad = fp_of("victim");
        store.save(good, b"intact payload").unwrap();
        store.save(bad, b"a payload about to rot in place").unwrap();
        // Seeded single-bit flip inside the payload: every header field
        // (magic, version, fingerprint, length, declared checksum)
        // stays intact.
        let path = store.record_path(bad);
        let mut data = fs::read(&path).unwrap();
        data[HEADER_LEN + 5] ^= 0x10;
        fs::write(&path, &data).unwrap();
        // The header check is blind to it...
        assert!(Store::parse_header(bad, &data).is_ok());
        // ...the full-payload walk is not.
        let report = store.scrub().unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.valid, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].0.contains(&bad.to_hex()));
        assert!(matches!(
            report.quarantined[0].1,
            StoreError::ChecksumMismatch { .. }
        ));
        // Quarantined, not deleted: evidence moved aside, key misses.
        assert!(!store.record_path(bad).exists());
        assert!(store
            .quarantine_dir()
            .join(format!("{}.{RECORD_EXT}", bad.to_hex()))
            .exists());
        assert!(store.load(bad).unwrap().is_none(), "clean miss after scrub");
        assert_eq!(store.load(good).unwrap().unwrap(), b"intact payload");
        // A second walk is clean and never descends into quarantine/.
        let again = store.scrub().unwrap();
        assert_eq!(again.scanned, 1);
        assert_eq!(again.valid, 1);
        assert!(again.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_quarantines_misnamed_and_truncated_records() {
        let dir = tmpdir("scrub-misc");
        let store = Store::open(&dir).unwrap();
        let fp = fp_of("torn");
        store.save(fp, b"long enough payload to truncate").unwrap();
        let path = store.record_path(fp);
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..HEADER_LEN + 2]).unwrap();
        // A stray file whose name is not a fingerprint.
        let stray = dir
            .join("ab")
            .join(format!("not-a-fingerprint.{RECORD_EXT}"));
        fs::create_dir_all(stray.parent().unwrap()).unwrap();
        fs::write(&stray, b"junk").unwrap();
        let report = store.scrub().unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.valid, 0);
        assert_eq!(report.quarantined.len(), 2);
        let display = report.to_string();
        assert!(display.starts_with("scrub: scanned 2 records, 0 valid, 2 quarantined"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_file_is_removed_unless_committed() {
        let dir = tmpdir("tempfile");
        fs::create_dir_all(&dir).unwrap();
        let tmp = |name: &str| {
            let path = dir.join(name);
            fs::write(&path, b"partial record").unwrap();
            TempFile(Some(path))
        };
        // Dropped on an error path: gone.
        drop(tmp(".tmp-dropped"));
        assert!(!dir.join(".tmp-dropped").exists());
        // A rename that fails (no such target directory): gone too.
        let target = dir.join("absent").join("record.ksb");
        assert!(tmp(".tmp-failed").commit(&target).is_err());
        assert!(!dir.join(".tmp-failed").exists());
        // Committed: the record is in place, the temp name is not.
        let target = dir.join("record.ksb");
        tmp(".tmp-committed").commit(&target).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"partial record");
        let names: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(names.len(), 1, "only the committed record is left");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = tmpdir("empty");
        let store = Store::open(&dir).unwrap();
        let fp = fp_of("empty");
        store.save(fp, b"").unwrap();
        assert_eq!(store.load(fp).unwrap(), Some(Vec::new()));
        let _ = fs::remove_dir_all(&dir);
    }
}
