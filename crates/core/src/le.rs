//! The little-endian field codec behind both binary formats: the v2
//! wire payloads (`tdess-net`) and the `TDSS` snapshot
//! ([`crate::snapshot`]). Each format keeps only its layouts and its
//! own checks (caps, tags, checksums) on top of this one reader and
//! writer.
//!
//! [`Writer`] never fails midway: a length that does not fit a `u32`
//! count is remembered and reported once, by [`Writer::into_bytes`].
//! [`Reader`] treats its bytes as untrusted: every declared count is
//! checked against the bytes actually left before anything is
//! allocated for it, no read runs past the end, [`Reader::expect_end`]
//! rejects trailing bytes, and every failure is one [`LeError`].

use tdess_geom::Vec3;

/// Bytes of one vertex record: x, y, z as `f64`.
const VERTEX_BYTES: usize = 24;
/// Bytes of one triangle record: three `u32` vertex indices.
const TRIANGLE_BYTES: usize = 12;

/// Why little-endian fields could not be read or written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeError {
    /// A field needs more bytes than are left.
    Truncated {
        /// Bytes the field needs.
        needed: usize,
        /// Bytes left.
        left: usize,
    },
    /// A declared count of elements needs more bytes than are left.
    Count {
        /// The declared count.
        count: usize,
        /// Bytes left after the count.
        left: usize,
    },
    /// A count-prefixed string is not valid UTF-8.
    Utf8,
    /// Bytes remain after the last field.
    Trailing(usize),
    /// A length given to the writer does not fit a `u32` count.
    CountOverflow(usize),
}

impl std::fmt::Display for LeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeError::Truncated { needed, left } => {
                write!(f, "truncated: {needed} bytes needed, {left} left")
            }
            LeError::Count { count, left } => {
                write!(f, "count {count} needs more than the {left} bytes left")
            }
            LeError::Utf8 => write!(f, "string is not valid UTF-8"),
            LeError::Trailing(n) => write!(f, "{n} trailing bytes"),
            LeError::CountOverflow(n) => write!(f, "{n} elements exceed a u32 count"),
        }
    }
}

/// The reason text a format wraps in its own error.
impl From<LeError> for String {
    fn from(e: LeError) -> String {
        // hotpath: allow(hot-alloc) — formats only on the rejected path; `from` is hot only by name
        e.to_string()
    }
}

/// Appends little-endian fields to a byte buffer.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
    /// The first length that did not fit a `u32` count.
    overflow: Option<usize>,
}

impl Default for Writer {
    fn default() -> Writer {
        Writer::new()
    }
}

impl Writer {
    /// An empty writer. One allocation covers a feature search (about
    /// 1.1 kB) and a top-10 reply; meshes and snapshot sections grow it.
    pub fn new() -> Writer {
        Writer {
            buf: Vec::with_capacity(2048),
            overflow: None,
        }
    }

    /// The bytes written, or the first length that did not fit a
    /// `u32` count.
    pub fn into_bytes(self) -> Result<Vec<u8>, LeError> {
        match self.overflow {
            None => Ok(self.buf),
            Some(n) => Err(LeError::CountOverflow(n)),
        }
    }

    /// Raw bytes, no length prefix.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// An `f64` as its raw bits.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// A `u32` element count; a larger `n` is reported by
    /// [`Writer::into_bytes`].
    #[inline]
    pub fn put_count(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(n) => self.put_u32(n),
            Err(_) => {
                self.overflow.get_or_insert(n);
            }
        }
    }

    /// A `u32` byte count, then the string's UTF-8 bytes.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_count(s.len());
        self.put_bytes(s.as_bytes());
    }

    /// `f64`s as raw bits, no count.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Vertex records (x, y, z), no count.
    pub fn put_vertices(&mut self, v: &[Vec3]) {
        self.buf.reserve(VERTEX_BYTES * v.len());
        for p in v {
            self.put_f64(p.x);
            self.put_f64(p.y);
            self.put_f64(p.z);
        }
    }

    /// Triangle records (three `u32` indices), no count.
    pub fn put_triangles(&mut self, t: &[[u32; 3]]) {
        self.buf.reserve(TRIANGLE_BYTES * t.len());
        for tri in t {
            tri.iter().for_each(|&i| self.put_u32(i));
        }
    }
}

/// Reads little-endian fields off a byte slice, never past its end.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

/// An `f64` from an 8-byte record.
#[inline]
fn le_f64(b: &[u8]) -> f64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    f64::from_le_bytes(a)
}

/// A `u32` from a 4-byte record.
#[inline]
fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(b);
    u32::from_le_bytes(a)
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// The bytes not read yet, without consuming them.
    #[inline]
    pub fn get_unread(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], LeError> {
        if n > self.rest.len() {
            return Err(LeError::Truncated {
                needed: n,
                left: self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], LeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.get_bytes(N)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, LeError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// A `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, LeError> {
        self.get_array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, LeError> {
        self.get_array().map(u64::from_le_bytes)
    }

    /// An `f64` from its raw bits.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, LeError> {
        self.get_array().map(f64::from_le_bytes)
    }

    /// A `u32` count of elements at least `elem_bytes` long each,
    /// checked against the bytes left before anyone allocates for it:
    /// `n · elem_bytes` never exceeds them.
    #[inline]
    pub fn get_count(&mut self, elem_bytes: usize) -> Result<usize, LeError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.rest.len() {
            return Err(LeError::Count {
                count: n,
                left: self.rest.len(),
            });
        }
        Ok(n)
    }

    /// A `u32` byte count, then that many bytes of UTF-8.
    #[inline]
    pub fn get_str(&mut self) -> Result<&'a str, LeError> {
        let n = self.get_count(1)?;
        std::str::from_utf8(self.get_bytes(n)?).map_err(|_| LeError::Utf8)
    }

    /// `n` records of `size` bytes each, in one bounds check.
    fn get_records(&mut self, n: usize, size: usize) -> Result<&'a [u8], LeError> {
        match n.checked_mul(size) {
            Some(len) if len <= self.rest.len() => self.get_bytes(len),
            _ => Err(LeError::Count {
                count: n,
                left: self.rest.len(),
            }),
        }
    }

    /// `n` raw `f64`s.
    pub fn get_f64s(&mut self, n: usize) -> Result<Vec<f64>, LeError> {
        Ok(self
            .get_records(n, 8)?
            .chunks_exact(8)
            .map(le_f64)
            .collect())
    }

    /// `n` vertex records.
    pub fn get_vertices(&mut self, n: usize) -> Result<Vec<Vec3>, LeError> {
        let records = self.get_records(n, VERTEX_BYTES)?;
        Ok(records
            .chunks_exact(VERTEX_BYTES)
            .map(|b| Vec3::new(le_f64(&b[..8]), le_f64(&b[8..16]), le_f64(&b[16..])))
            .collect())
    }

    /// `n` triangle records.
    pub fn get_triangles(&mut self, n: usize) -> Result<Vec<[u32; 3]>, LeError> {
        let records = self.get_records(n, TRIANGLE_BYTES)?;
        Ok(records
            .chunks_exact(TRIANGLE_BYTES)
            .map(|b| [le_u32(&b[..4]), le_u32(&b[4..8]), le_u32(&b[8..])])
            .collect())
    }

    /// Whole decodes end here: leftover bytes are an error.
    pub fn expect_end(&self) -> Result<(), LeError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(LeError::Trailing(n)),
        }
    }
}
