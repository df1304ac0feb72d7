//! Generation-rotating checkpoint store.
//!
//! A single `checkpoint.she` file is a single point of failure: one torn
//! write or one flipped bit and the server has nothing to restore from.
//! [`CheckpointStore`] keeps **two generations** — `checkpoint.she`
//! (latest) and `checkpoint.prev.she` (the one before it) — and rotates
//! on every save, so corruption of the latest file degrades to "restore
//! the previous checkpoint" instead of "replay the stream".
//!
//! * [`CheckpointStore::save`] rotates latest → previous, then writes the
//!   new frame to a temp file and renames it into place: a crash at any
//!   point leaves at least one intact generation on disk.
//! * [`CheckpointStore::load`] decodes the latest generation. A file that
//!   *reads* but does not *decode* is quarantined to
//!   `checkpoint.she.corrupt` (never restored from silently, never
//!   deleted — it is evidence) and the previous generation is tried;
//!   only when both are gone does the load fail.
//!
//! The chaos soak's corruption drill (`she-chaos`) deliberately mangles
//! the latest generation and asserts the fallback restore is bit-for-bit
//! identical to the previous checkpoint's engine state.

use she_core::sharded::Checkpoint;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the newest checkpoint generation.
pub const LATEST: &str = "checkpoint.she";
/// File name of the generation before it, kept as the fallback.
pub const PREVIOUS: &str = "checkpoint.prev.she";
/// Where a corrupt latest generation is moved aside for inspection.
pub const QUARANTINE: &str = "checkpoint.she.corrupt";

/// How a [`CheckpointStore::load`] was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The latest generation decoded cleanly.
    Latest,
    /// The latest generation was corrupt: it was moved to `quarantined`
    /// and the checkpoint came from the previous generation instead.
    FellBack {
        /// Where the corrupt latest file ended up.
        quarantined: PathBuf,
    },
}

/// Why a save or load failed.
#[derive(Debug)]
pub enum StoreError {
    /// Plain I/O (missing file, bad permissions): nothing is quarantined
    /// because there is nothing to move aside.
    Io {
        /// The path the operation failed on.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// Every on-disk generation was corrupt; `detail` names the
    /// quarantined file.
    Corrupt {
        /// Human-readable description, including the quarantine path.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            StoreError::Corrupt { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A directory holding up to two checkpoint generations plus, possibly,
/// a quarantined corpse.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on first save).
    pub fn new<P: Into<PathBuf>>(dir: P) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the latest generation.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join(LATEST)
    }

    /// Path of the fallback generation.
    pub fn previous_path(&self) -> PathBuf {
        self.dir.join(PREVIOUS)
    }

    fn io_err(path: &Path) -> impl FnOnce(io::Error) -> StoreError + '_ {
        move |source| StoreError::Io { path: path.to_path_buf(), source }
    }

    /// Write an encoded checkpoint frame as the new latest generation,
    /// rotating the old latest to the fallback slot first. Returns the
    /// path written. Temp-file + rename: a crash mid-save leaves the
    /// previous generations intact, never a torn latest.
    pub fn save(&self, frame: &[u8]) -> Result<PathBuf, StoreError> {
        fs::create_dir_all(&self.dir).map_err(Self::io_err(&self.dir))?;
        let latest = self.latest_path();
        let previous = self.previous_path();
        if latest.exists() {
            fs::rename(&latest, &previous).map_err(Self::io_err(&latest))?;
        }
        let tmp = self.dir.join("checkpoint.she.tmp");
        fs::write(&tmp, frame).map_err(Self::io_err(&tmp))?;
        fs::rename(&tmp, &latest).map_err(Self::io_err(&latest))?;
        Ok(latest)
    }

    /// Decode the newest intact generation.
    ///
    /// Corruption of the latest file is handled, not propagated: the file
    /// is quarantined and the previous generation is tried. Only a plain
    /// I/O failure on the latest file (e.g. the store does not exist) or
    /// corruption with no usable fallback is an error.
    pub fn load(&self) -> Result<(Checkpoint, LoadOutcome), StoreError> {
        let latest = self.latest_path();
        let bytes = fs::read(&latest).map_err(Self::io_err(&latest))?;
        let decode_err = match Checkpoint::decode(&bytes) {
            Ok(ckpt) => return Ok((ckpt, LoadOutcome::Latest)),
            Err(e) => e,
        };
        let quarantine = self.dir.join(QUARANTINE);
        let moved = fs::rename(&latest, &quarantine).is_ok();
        if let Ok(prev_bytes) = fs::read(self.previous_path()) {
            if let Ok(ckpt) = Checkpoint::decode(&prev_bytes) {
                return Ok((ckpt, LoadOutcome::FellBack { quarantined: quarantine }));
            }
        }
        Err(StoreError::Corrupt {
            detail: format!(
                "{}: corrupt checkpoint ({decode_err}){}; no intact previous generation",
                latest.display(),
                if moved {
                    format!("; quarantined to {}", quarantine.display())
                } else {
                    String::new()
                }
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use she_core::sharded::{DirectEngine, EngineConfig};

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("she-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::new(dir)
    }

    fn checkpoint_frame(fill: u64) -> Vec<u8> {
        let mut e = DirectEngine::new(EngineConfig {
            window: 1 << 10,
            shards: 2,
            memory_bytes: 8 << 10,
            seed: 7,
        });
        for k in 0..fill {
            e.insert(0, she_hash::mix64(k));
        }
        e.checkpoint()
    }

    #[test]
    fn save_then_load_is_latest() {
        let store = temp_store("roundtrip");
        let frame = checkpoint_frame(100);
        store.save(&frame).unwrap();
        let (ckpt, outcome) = store.load().unwrap();
        assert_eq!(outcome, LoadOutcome::Latest);
        assert_eq!(ckpt.encode(), frame, "round trip must be bit-exact");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn second_save_rotates_first_into_previous() {
        let store = temp_store("rotate");
        let gen1 = checkpoint_frame(10);
        let gen2 = checkpoint_frame(20);
        store.save(&gen1).unwrap();
        store.save(&gen2).unwrap();
        assert_eq!(fs::read(store.latest_path()).unwrap(), gen2);
        assert_eq!(fs::read(store.previous_path()).unwrap(), gen1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_bit_for_bit() {
        let store = temp_store("fallback");
        let gen1 = checkpoint_frame(10);
        store.save(&gen1).unwrap();
        store.save(&checkpoint_frame(20)).unwrap();
        fs::write(store.latest_path(), b"SHEF but torn mid-frame").unwrap();
        let (ckpt, outcome) = store.load().unwrap();
        match outcome {
            LoadOutcome::FellBack { quarantined } => {
                assert!(quarantined.exists(), "corrupt file kept as evidence");
                assert!(!store.latest_path().exists(), "corrupt latest moved aside");
            }
            LoadOutcome::Latest => panic!("must fall back, not decode garbage"),
        }
        assert_eq!(ckpt.encode(), gen1, "fallback must be the previous generation, bit-for-bit");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_latest_without_previous_is_a_clean_error() {
        let store = temp_store("noprev");
        fs::create_dir_all(store.dir()).unwrap();
        fs::write(store.latest_path(), b"SHEF but torn mid-frame").unwrap();
        let err = store.load().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("corrupt checkpoint"), "{msg}");
        assert!(msg.contains("quarantined"), "{msg}");
        assert!(store.dir().join(QUARANTINE).exists());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_store_is_io_not_corruption() {
        let store = CheckpointStore::new("/nonexistent-she-store-dir");
        match store.load().unwrap_err() {
            StoreError::Io { .. } => {}
            StoreError::Corrupt { detail } => panic!("misclassified as corrupt: {detail}"),
        }
    }
}
