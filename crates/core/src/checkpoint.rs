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
//! CRC catches truncation and header tampering. All length fields are
//! bounds-checked against the remaining input before any allocation, so
//! a mangled header yields `InvalidData`, never an OOM.
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
use std::sync::OnceLock;

use raxpp_ir::{Shape, Tensor};

const MAGIC: &[u8; 6] = b"RAXPP\x02";
/// Format version written into (and required from) the header.
pub const CHECKPOINT_VERSION: u32 = 2;
/// Upper bound on the tensor count field (a real checkpoint holds a few
/// dozen tensors; anything near this is a mangled header).
const MAX_TENSORS: usize = 1 << 20;
/// Upper bound on a tensor's rank.
const MAX_RANK: usize = 64;

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        table
    })
}

/// CRC-32 (IEEE 802.3, the `cksum`/zlib polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Encodes `tensors` captured after `step` into format v2 bytes.
pub fn encode_checkpoint(step: u64, tensors: &[Tensor]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&step.to_le_bytes());
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in tensors {
        let dims = t.shape().dims();
        out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &d in dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        let data_start = out.len();
        for &v in t.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&out[data_start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }
    let footer = crc32(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    out
}

/// Byte-slice cursor with bounds-checked reads.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated checkpoint"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
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
    if bytes.len() < MAGIC.len() + 4 {
        return Err(bad("truncated checkpoint"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(bad("not a RaxPP v2 checkpoint"));
    }
    let (body, footer_bytes) = bytes.split_at(bytes.len() - 4);
    let footer = u32::from_le_bytes(footer_bytes.try_into().unwrap());
    if crc32(body) != footer {
        return Err(bad("checkpoint footer checksum mismatch"));
    }
    let mut c = Cursor {
        buf: body,
        pos: MAGIC.len(),
    };
    let version = c.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(bad(format!("unsupported checkpoint version {version}")));
    }
    let step = c.u64()?;
    let count = c.u32()? as usize;
    if count > MAX_TENSORS {
        return Err(bad(format!("implausible tensor count {count}")));
    }
    // Every tensor needs at least its rank + crc fields: a cheap bound
    // before trusting `count` for the allocation below.
    if count.saturating_mul(8) > c.remaining() {
        return Err(bad("tensor count exceeds input size"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let rank = c.u32()? as usize;
        if rank > MAX_RANK || rank.saturating_mul(8) > c.remaining() {
            return Err(bad(format!("implausible tensor rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut numel = 1usize;
        for _ in 0..rank {
            let d = c.u64()?;
            let d = usize::try_from(d).map_err(|_| bad("dimension overflows usize"))?;
            numel = numel
                .checked_mul(d)
                .ok_or_else(|| bad("element count overflows usize"))?;
            dims.push(d);
        }
        let n_bytes = numel
            .checked_mul(4)
            .filter(|&n| n <= c.remaining())
            .ok_or_else(|| bad("tensor data exceeds input size"))?;
        let data_bytes = c.take(n_bytes)?;
        let crc = c.u32()?;
        if crc32(data_bytes) != crc {
            return Err(bad("tensor data checksum mismatch"));
        }
        let data: Vec<f32> = data_bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        out.push(Tensor::from_vec(Shape::new(dims), data).map_err(|e| bad(e.to_string()))?);
    }
    if c.remaining() != 0 {
        return Err(bad("trailing bytes after last tensor"));
    }
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

    /// The largest single allocation the calling thread made while `f`
    /// ran.
    fn largest_allocation(f: impl FnOnce()) -> usize {
        LARGEST.with(|l| l.set(0));
        f();
        LARGEST.with(|l| l.get())
    }

    thread_local! {
        static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The system allocator, noting each thread's largest request.
    struct NoteLargest;

    fn note(size: usize) {
        // `try_with`: a thread being torn down still allocates.
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // so `System` keeps the allocator contract; `note` neither allocates
    // nor touches the memory.
    unsafe impl std::alloc::GlobalAlloc for NoteLargest {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's `alloc` contract, passed on.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's `alloc_zeroed` contract, passed on.
            unsafe { std::alloc::System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, p: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
            note(size);
            // SAFETY: `p` came from `System` (every block here does), and
            // the caller's `realloc` contract is passed on.
            unsafe { std::alloc::System.realloc(p, layout, size) }
        }

        unsafe fn dealloc(&self, p: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `p` came from `System` with this `layout`.
            unsafe { std::alloc::System.dealloc(p, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: NoteLargest = NoteLargest;

    /// Checkpoint bodies under mutation: a seeded byte flip at every
    /// offset, `0xFF…` over every 4- and 8-byte window (every count,
    /// rank and dimension field wherever it sits), and seeded splices of
    /// every ordered pair of checkpoints — each re-sealed, so both
    /// checksums pass and the body parser sees the damage. Both readers
    /// answer every input with a checkpoint that re-encodes to exactly
    /// those bytes or with `InvalidData`; a panic fails the test, and no
    /// single allocation outgrows the input by more than the decoded
    /// tensors' headers.
    #[test]
    fn checkpoint_bodies_survive_byte_flips_length_edits_and_splices() {
        use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xC4EC);
        let checkpoints = [
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
        ];
        let mut inputs = Vec::new();
        for ck in &checkpoints {
            for at in 0..ck.len() {
                let mut flipped = ck.clone();
                flipped[at] ^= rng.gen_range(1..256u16) as u8;
                inputs.push(flipped);
                for width in [4, 8] {
                    if at + width <= ck.len() {
                        let mut edited = ck.clone();
                        edited[at..at + width].fill(0xFF);
                        inputs.push(edited);
                    }
                }
            }
        }
        for a in &checkpoints {
            for b in &checkpoints {
                inputs.push([a.as_slice(), b].concat());
                for _ in 0..8 {
                    let head = &a[..rng.gen_range(0..a.len() + 1)];
                    let tail = &b[rng.gen_range(0..b.len() + 1)..];
                    inputs.push([head, tail].concat());
                }
            }
        }
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
