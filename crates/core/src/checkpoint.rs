//! Crash-consistent checkpointing: save and restore a
//! [`crate::Trainer`]'s full training state (parameters + optimizer
//! moments) in a versioned, checksummed binary format, with atomic
//! on-disk generations managed by [`CheckpointManager`].
//!
//! # Format v2 (little-endian)
//!
//! | field | type | notes |
//! |---|---|---|
//! | magic | 6 bytes | `RAXPP\x02` |
//! | version | `u32` | currently 2 |
//! | step | `u64` | training step the state was captured after |
//! | count | `u32` | number of tensors |
//! | per tensor: rank | `u32` | |
//! | per tensor: dims | `u64` × rank | |
//! | per tensor: data | `f32` × numel | |
//! | per tensor: crc | `u32` | CRC-32 (IEEE) of the raw data bytes |
//! | footer | `u32` | CRC-32 of every preceding byte of the file |
//!
//! The per-tensor CRC localizes corruption to one tensor; the footer
//! CRC catches truncation and header tampering. The bytes go through
//! the codec the socket transport's frames use too, `raxpp_ir::bytes`:
//! every read is bounds-checked, every length field is checked against
//! the remaining input before any allocation, and bytes left over are
//! rejected, so a mangled header yields `InvalidData`, never an OOM.
//! The rank's width, the plausibility bounds and the checksums are this
//! format's own and live here.
//!
//! # On-disk layout
//!
//! [`CheckpointManager`] writes each generation as a directory
//! `ckpt-<step>/state.bin` under its root. Saves are atomic: the state
//! is written into a `.tmp-ckpt-<step>` staging directory, fsynced,
//! then renamed into place (and the root fsynced), so a crash mid-save
//! leaves the previous generation untouched and the stale staging
//! directory is swept on the next save. Old generations beyond the
//! configured `keep` count are deleted; [`CheckpointManager::latest_valid`]
//! skips corrupt generations (detected via the checksums) and falls
//! back to the newest one that still decodes.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use raxpp_ir::bytes::{Reader, Writer};
use raxpp_ir::Tensor;

pub use raxpp_ir::bytes::crc32;

const MAGIC: &[u8; 6] = b"RAXPP\x02";
/// Format version written into (and required from) the header.
pub const CHECKPOINT_VERSION: u32 = 2;
/// Upper bound on the tensor count field (a real checkpoint holds a few
/// dozen tensors; anything near this is a mangled header).
const MAX_TENSORS: usize = 1 << 20;
/// Upper bound on a tensor's rank.
const MAX_RANK: usize = 64;

/// Encodes `tensors` captured after `step` into format v2 bytes.
pub fn encode_checkpoint(step: u64, tensors: &[Tensor]) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u32(CHECKPOINT_VERSION);
    w.u64(step);
    w.list(tensors, |w, t| {
        w.u32(t.shape().rank() as u32);
        let crc = crc32(w.tensor(t));
        w.u32(crc);
    });
    let footer = crc32(w.as_bytes());
    w.u32(footer);
    w.into_bytes()
}

/// Decodes format v2 bytes into `(step, tensors)`, verifying both the
/// footer checksum and every per-tensor checksum.
///
/// # Errors
///
/// Returns `InvalidData` for a wrong magic or version, any length field
/// inconsistent with the input size, a checksum mismatch, or trailing
/// garbage.
pub fn decode_checkpoint(bytes: &[u8]) -> io::Result<(u64, Vec<Tensor>)> {
    decode(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn decode(bytes: &[u8]) -> Result<(u64, Vec<Tensor>), String> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err("truncated checkpoint".into());
    }
    let (body, footer) = bytes.split_at(bytes.len() - 4);
    let mut r = Reader::new(body);
    if r.take(MAGIC.len())? != MAGIC {
        return Err("not a RaxPP v2 checkpoint".into());
    }
    if crc32(body) != Reader::new(footer).u32()? {
        return Err("checkpoint footer checksum mismatch".into());
    }
    let version = r.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(format!("unsupported checkpoint version {version}"));
    }
    let step = r.u64()?;
    // Every tensor occupies at least its rank and crc fields.
    let count = r.count(8)?;
    if count > MAX_TENSORS {
        return Err(format!("implausible tensor count {count}"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let rank = r.u32()? as usize;
        if rank > MAX_RANK {
            return Err(format!("implausible tensor rank {rank}"));
        }
        let (t, data) = r.tensor(rank)?;
        if crc32(data) != r.u32()? {
            return Err("tensor data checksum mismatch".into());
        }
        out.push(t);
    }
    r.finish()?;
    Ok((step, out))
}

/// Writes a list of tensors to `w` in format v2 (with step 0).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_tensors(mut w: impl Write, tensors: &[Tensor]) -> io::Result<()> {
    w.write_all(&encode_checkpoint(0, tensors))
}

/// Reads a list of tensors written by [`save_tensors`] (or any v2
/// checkpoint), verifying all checksums.
///
/// # Errors
///
/// Returns `InvalidData` for a wrong magic/version, a truncated or
/// tampered stream, or implausible length fields, plus any I/O error.
pub fn load_tensors(mut r: impl Read) -> io::Result<Vec<Tensor>> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode_checkpoint(&bytes).map(|(_, t)| t)
}

/// Manages atomic, rotated checkpoint generations under one directory.
///
/// See the module docs for the on-disk layout and crash-consistency
/// guarantees.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointManager {
    /// Creates a manager rooted at `dir`, retaining the newest `keep`
    /// generations (minimum 1). The directory is created on first save.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> CheckpointManager {
        CheckpointManager {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    /// The root directory generations are stored under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically writes a `ckpt-<step>` generation containing
    /// `tensors`, rotates out generations beyond the keep count, and
    /// sweeps stale staging directories from interrupted saves.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the previous generation is never touched
    /// before the new one is durably in place.
    pub fn save(&self, step: u64, tensors: &[Tensor]) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(".tmp-ckpt-{step}"));
        if tmp.exists() {
            fs::remove_dir_all(&tmp)?;
        }
        fs::create_dir(&tmp)?;
        let bytes = encode_checkpoint(step, tensors);
        {
            let mut f = fs::File::create(tmp.join("state.bin"))?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        let finald = self.dir.join(format!("ckpt-{step}"));
        if finald.exists() {
            fs::remove_dir_all(&finald)?;
        }
        fs::rename(&tmp, &finald)?;
        // Make the rename itself durable before rotating anything out.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.rotate()?;
        Ok(finald)
    }

    fn rotate(&self) -> io::Result<()> {
        let mut gens = self.generations()?;
        while gens.len() > self.keep {
            let (_, path) = gens.remove(0);
            fs::remove_dir_all(path)?;
        }
        // Sweep staging directories left by interrupted saves.
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(".tmp-ckpt-"))
            {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
        Ok(())
    }

    /// Lists completed generations as `(step, path)`, oldest first.
    /// Staging directories and unrelated entries are ignored.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a missing root yields an empty list.
    pub fn generations(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(step) = name
                .to_str()
                .and_then(|n| n.strip_prefix("ckpt-"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((step, entry.path()));
        }
        out.sort_unstable_by_key(|(s, _)| *s);
        Ok(out)
    }

    /// Loads the newest generation that decodes cleanly, skipping any
    /// whose checksums fail (corruption or truncation). Returns `None`
    /// when no valid generation exists.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than per-generation decode failures
    /// (those fall through to the next-newest generation).
    pub fn latest_valid(&self) -> io::Result<Option<(u64, Vec<Tensor>)>> {
        for (step, path) in self.generations()?.into_iter().rev() {
            let Ok(bytes) = fs::read(path.join("state.bin")) else {
                continue;
            };
            match decode_checkpoint(&bytes) {
                Ok((hdr_step, tensors)) if hdr_step == step => return Ok(Some((step, tensors))),
                // Header/dirname mismatch counts as corruption too.
                _ => continue,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let tensors = vec![
            Tensor::scalar(3.25),
            Tensor::from_vec([2, 3], vec![1.0, -2.0, 3.5, 0.0, 5.0, -6.25]).unwrap(),
            Tensor::zeros([4]),
        ];
        let mut buf = Vec::new();
        save_tensors(&mut buf, &tensors).unwrap();
        let back = load_tensors(buf.as_slice()).unwrap();
        assert_eq!(tensors, back);
    }

    #[test]
    fn step_roundtrips_through_header() {
        let bytes = encode_checkpoint(42, &[Tensor::scalar(1.0)]);
        let (step, tensors) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(step, 42);
        assert_eq!(tensors, vec![Tensor::scalar(1.0)]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(load_tensors(&b"NOTACHECKPOINT"[..]).is_err());
        assert!(load_tensors(&b"RAXPP\x02"[..]).is_err()); // truncated
        assert!(load_tensors(&b"RAXPP\x01\0\0\0\0"[..]).is_err()); // old version
    }

    #[test]
    fn empty_list_roundtrips() {
        let mut buf = Vec::new();
        save_tensors(&mut buf, &[]).unwrap();
        assert!(load_tensors(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn flipped_data_bit_is_detected() {
        let mut bytes =
            encode_checkpoint(7, &[Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap()]);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(decode_checkpoint(&bytes).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_checkpoint(7, &[Tensor::zeros([8])]);
        for cut in [bytes.len() - 1, bytes.len() - 5, 10, 0] {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    /// Satellite regression: length fields are attacker-controlled and
    /// must never drive allocations past the input size. Mangle every
    /// plausible header field to huge values and require `InvalidData`
    /// (fast), not an OOM.
    #[test]
    fn mangled_length_fields_error_instead_of_allocating() {
        let base = encode_checkpoint(3, &[Tensor::from_vec([2, 2], vec![1.0; 4]).unwrap()]);
        let count_off = MAGIC.len() + 4 + 8; // magic + version + step
        let rank_off = count_off + 4;
        let dim_off = rank_off + 4;
        for (off, len) in [(count_off, 4), (rank_off, 4), (dim_off, 8)] {
            for fill in [0x7F, 0xFF] {
                let mut bytes = base.clone();
                for b in &mut bytes[off..off + len] {
                    *b = fill;
                }
                let err = decode_checkpoint(&bytes).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "off={off} fill={fill:#x}"
                );
            }
        }
        // Fuzz-ish sweep: flip each header byte to 0xFF individually.
        for off in 0..dim_off + 8 {
            let mut bytes = base.clone();
            bytes[off] = 0xFF;
            assert!(decode_checkpoint(&bytes).is_err(), "byte {off}");
        }
    }

    #[test]
    fn manager_rotates_and_loads_latest() {
        let dir = std::env::temp_dir().join(format!("raxpp-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mgr = CheckpointManager::new(&dir, 2);
        for step in 1..=4u64 {
            mgr.save(step, &[Tensor::scalar(step as f32)]).unwrap();
        }
        let gens = mgr.generations().unwrap();
        assert_eq!(gens.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![3, 4]);
        let (step, tensors) = mgr.latest_valid().unwrap().unwrap();
        assert_eq!(step, 4);
        assert_eq!(tensors, vec![Tensor::scalar(4.0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = std::env::temp_dir().join(format!("raxpp-ckpt-fb-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mgr = CheckpointManager::new(&dir, 3);
        mgr.save(1, &[Tensor::scalar(1.0)]).unwrap();
        mgr.save(2, &[Tensor::scalar(2.0)]).unwrap();
        // Corrupt generation 2 in place.
        let path = dir.join("ckpt-2/state.bin");
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        let (step, tensors) = mgr.latest_valid().unwrap().unwrap();
        assert_eq!(step, 1);
        assert_eq!(tensors, vec![Tensor::scalar(1.0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_save_leaves_previous_generation_loadable() {
        let dir = std::env::temp_dir().join(format!("raxpp-ckpt-tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mgr = CheckpointManager::new(&dir, 3);
        mgr.save(5, &[Tensor::scalar(5.0)]).unwrap();
        // Simulate a crash mid-save: staging dir written, rename never
        // happened.
        let tmp = dir.join(".tmp-ckpt-6");
        fs::create_dir(&tmp).unwrap();
        fs::write(tmp.join("state.bin"), encode_checkpoint(6, &[])).unwrap();
        let (step, _) = mgr.latest_valid().unwrap().unwrap();
        assert_eq!(step, 5);
        // The next completed save sweeps the stale staging directory.
        mgr.save(7, &[Tensor::scalar(7.0)]).unwrap();
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The checkpoints the mutator seeds from: an empty one, and one
    /// with a scalar, a matrix, an empty tensor and a vector.
    fn seed_checkpoints() -> [Vec<u8>; 2] {
        [
            encode_checkpoint(0, &[]),
            encode_checkpoint(
                7,
                &[
                    Tensor::scalar(-0.5),
                    Tensor::from_vec([2, 3], vec![1.0, -2.0, 3.5, 0.0, 5.0, -6.25]).unwrap(),
                    Tensor::zeros([0, 3]),
                    Tensor::zeros([4]),
                ],
            ),
        ]
    }

    /// The format is pinned byte for byte: the length and the footer of
    /// each seed checkpoint (the CRC of all bytes but the footer; the
    /// CRC of a whole file is the same residue for every file). A codec
    /// change that means to keep the format passes this unmodified.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let got = seed_checkpoints().map(|b| (b.len(), crc32(&b[..b.len() - 4])));
        assert_eq!(got, [(0x1a, 0x5fe64cf6), (0x8e, 0x83f54b2f)], "{got:x?}");
    }

    /// Re-seals a mutated checkpoint: recomputes the CRC of every tensor
    /// the (possibly mangled) length fields still place inside the body,
    /// then the footer, so the mutation reaches the body parser instead
    /// of stopping at a checksum.
    fn reseal(bytes: &mut [u8]) {
        fn tensors(body: &mut [u8]) -> Option<()> {
            let field = |body: &[u8], at: usize, n: usize| {
                let b = body.get(at..at.checked_add(n)?)?;
                Some(b.iter().rev().fold(0u64, |v, &x| v << 8 | u64::from(x)))
            };
            let mut at = MAGIC.len() + 4 + 8; // magic, version, step
            let count = field(body, at, 4)?;
            at += 4;
            for _ in 0..count {
                let rank = field(body, at, 4)?;
                at += 4;
                let mut bytes = 4u64;
                for _ in 0..rank {
                    bytes = bytes.checked_mul(field(body, at, 8)?)?;
                    at += 8;
                }
                let end = at.checked_add(usize::try_from(bytes).ok()?)?;
                let crc = crc32(body.get(at..end)?);
                body.get_mut(end..end + 4)?
                    .copy_from_slice(&crc.to_le_bytes());
                at = end + 4;
            }
            Some(())
        }
        let Some(body_len) = bytes.len().checked_sub(4) else {
            return;
        };
        let (body, footer) = bytes.split_at_mut(body_len);
        tensors(body);
        footer.copy_from_slice(&crc32(body).to_le_bytes());
    }

    #[global_allocator]
    static ALLOCATOR: raxpp_ir::testing::NoteLargest = raxpp_ir::testing::NoteLargest;

    /// Checkpoint bodies under the shared mutator
    /// (`raxpp_ir::testing::mutants`: a byte flip at every offset,
    /// `0xFF…` over every count, rank and dimension field, splices of
    /// every ordered pair of checkpoints) — each re-sealed, so both
    /// checksums pass and the body parser sees the damage. Both readers
    /// answer every input with a checkpoint that re-encodes to exactly
    /// those bytes or with `InvalidData`; a panic fails the test, and no
    /// single allocation outgrows the input by more than the decoded
    /// tensors' headers.
    #[test]
    fn checkpoint_bodies_survive_byte_flips_length_edits_and_splices() {
        use raxpp_ir::testing::{largest_allocation, mutants};
        let mut inputs = mutants(&seed_checkpoints(), 0xC4EC);
        for bytes in &mut inputs {
            reseal(bytes);
        }
        for bytes in &inputs {
            let (mut decoded, mut loaded) = (None, None);
            let largest = largest_allocation(|| {
                decoded = Some(decode_checkpoint(bytes));
                loaded = Some(load_tensors(bytes.as_slice()));
            });
            let bound = bytes.len() / 8 * size_of::<Tensor>() + bytes.len() + 1024;
            assert!(
                largest <= bound,
                "{largest} B for {} B: {bytes:?}",
                bytes.len()
            );
            match (decoded.unwrap(), loaded.unwrap()) {
                (Ok((step, tensors)), Ok(loaded)) => {
                    assert_eq!(encode_checkpoint(step, &tensors), *bytes);
                    assert_eq!(encode_checkpoint(step, &loaded), *bytes);
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.kind(), io::ErrorKind::InvalidData, "{a}: {bytes:?}");
                    assert_eq!(b.kind(), io::ErrorKind::InvalidData, "{b}: {bytes:?}");
                }
                (a, b) => panic!("the readers disagree: {a:?} vs {b:?}"),
            }
        }
    }
}
