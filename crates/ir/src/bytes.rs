//! The one little-endian codec for bytes that cross a process or disk
//! boundary: the socket transport's frames and the checkpoint files
//! both write through [`Writer`] and read through [`Reader`].
//!
//! The reader is where three rules live, so that no format restates
//! them:
//!
//! * every read is bounds-checked: short input is an `Err`, never a
//!   panic;
//! * every count or length is checked against the bytes left *before*
//!   anything is sized from it ([`Reader::count`], [`Reader::tensor`]);
//! * a decode ends with [`Reader::finish`], which rejects bytes left
//!   over: a frame or a file is exactly one value.
//!
//! Errors are `String`s; each format converts them into its own error
//! type at its boundary. What differs between formats (tags, the width
//! of a tensor's rank, checksums) stays with the format.

use std::sync::OnceLock;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, as they are.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u32` byte length, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// A `u32` count, then each item written by `elem`: what
    /// [`Reader::list`] reads.
    pub fn list<T>(&mut self, items: &[T], mut elem: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for item in items {
            elem(self, item);
        }
    }

    /// A tensor without its rank, whose width is the format's: each dim
    /// as a `u64`, then the elements as raw `f32` bit patterns, so the
    /// decoded tensor is bitwise the encoded one. Returns the payload
    /// bytes just written.
    pub fn tensor(&mut self, t: &Tensor) -> &[u8] {
        for &d in t.shape().dims() {
            self.u64(d as u64);
        }
        let start = self.buf.len();
        self.buf.reserve(4 * t.numel());
        for &v in t.data() {
            self.bytes(&v.to_le_bytes());
        }
        &self.buf[start..]
    }
}

/// Bounds-checked little-endian decoder over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `b`.
    pub fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "truncated: wanted {n} bytes at {}, have {}",
                self.pos,
                self.b.len()
            ));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// A string written by [`Writer::str`].
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| format!("bad utf8: {e}"))
    }

    /// A `u32` element count, checked against the bytes left: every
    /// element occupies at least `min_bytes` of the input, so a corrupt
    /// or truncated count can never size anything beyond it.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        let left = self.remaining();
        if n.saturating_mul(min_bytes) > left {
            return Err(format!(
                "truncated: {n} elements of >= {min_bytes} bytes, {left} bytes left"
            ));
        }
        Ok(n)
    }

    /// A [`count`](Reader::count)ed list, each element read by `elem`.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.count(min_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(elem(self)?);
        }
        Ok(items)
    }

    /// A tensor written by [`Writer::tensor`], its `rank` already read:
    /// the dims, then the payload they size, whose byte count is
    /// overflow-checked and must be present in full before anything is
    /// allocated for it. Returns the tensor and its raw payload bytes.
    pub fn tensor(&mut self, rank: usize) -> Result<(Tensor, &'a [u8]), String> {
        let dims: Vec<usize> = (0..rank)
            .map(|_| usize::try_from(self.u64()?).map_err(|e| format!("bad dim: {e}")))
            .collect::<Result<_, _>>()?;
        let n = dims
            .iter()
            .try_fold(4usize, |n, &d| n.checked_mul(d))
            .ok_or_else(|| format!("tensor dims {dims:?} overflow"))?;
        let payload = self.take(n)?;
        let data = payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        let t = Tensor::from_vec(Shape::new(dims), data).map_err(|e| format!("bad tensor: {e}"))?;
        Ok((t, payload))
    }

    /// Ends the decode: the value read must have been the whole input.
    pub fn finish(self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes")),
        }
    }
}

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
