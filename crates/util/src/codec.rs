//! Minimal binary serialization for simulator checkpoints.
//!
//! The checkpoint format (DESIGN.md §13) is a small in-tree codec — no
//! external serialization crates — built from three pieces:
//!
//! * [`ByteWriter`] / [`ByteReader`] — little-endian primitive codecs
//!   over a plain byte vector. Every multi-byte integer is written
//!   little-endian; `f64` travels as its IEEE-754 bit pattern, so
//!   round-trips are bit-exact (NaN payloads included).
//! * [`Fnv64`] — an incremental FNV-1a hasher, used both for the
//!   container checksum and for config fingerprints.
//! * [`seal`] / [`open`] — the versioned container: a fixed magic, a
//!   format version, a caller-supplied fingerprint identifying *what*
//!   was serialized, the payload, and a trailing FNV-1a checksum over
//!   everything before it. `open` rejects truncation, corruption,
//!   version skew and fingerprint mismatches with distinct
//!   [`CodecError`] variants.
//!
//! Determinism contract: the byte stream a given simulator state
//! serializes to is a pure function of that state, and decoding
//! reconstructs the state bit-exactly (the checkpoint round-trip tests
//! replay the determinism goldens across a save/resume boundary).

use std::fmt;

/// Magic prefix of every checkpoint container.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CATNAPCK";

/// Errors produced while decoding checkpoint bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ended before the value being read was complete.
    UnexpectedEof,
    /// The container does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The container was written by a different format version.
    UnsupportedVersion {
        /// Version found in the container.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The trailing checksum does not match the container contents.
    ChecksumMismatch,
    /// The container's fingerprint does not match the caller's.
    FingerprintMismatch {
        /// Fingerprint found in the container.
        found: u64,
        /// Fingerprint the caller expected.
        expected: u64,
    },
    /// A decoded value violates a structural invariant.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of checkpoint data"),
            CodecError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CodecError::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported checkpoint version {found} (expected {expected})")
            }
            CodecError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch (corrupted)"),
            CodecError::FingerprintMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint fingerprint {found:#018x} does not match expected {expected:#018x}"
                )
            }
            CodecError::Invalid(what) => write!(f, "invalid checkpoint field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Incremental FNV-1a 64-bit hasher.
///
/// The same algorithm `SimRng::stream` uses to fold stream names into
/// seeds; exposed as a struct here so fingerprints and checksums can be
/// built incrementally over heterogeneous fields.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    h: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 {
            h: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Folds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a `u64` (little-endian bytes) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u32` into the hash.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `f64` bit pattern into the hash.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Folds a UTF-8 string (length-prefixed) into the hash.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

/// Little-endian binary encoder over a growable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` (as `u64`, so the format is word-size independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes length-prefixed bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Little-endian binary decoder over a byte slice.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("size checked")))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("size checked")))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("size checked")))
    }

    /// Reads a `usize` written by [`ByteWriter::put_usize`].
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64()?).map_err(|_| CodecError::Invalid("usize out of range"))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is invalid.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }

    /// Reads length-prefixed bytes written by [`ByteWriter::put_bytes`].
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| CodecError::Invalid("string is not UTF-8"))
    }
}

/// Wraps `payload` in the versioned checkpoint container:
/// magic, `version`, `fingerprint`, payload, FNV-1a checksum over all
/// preceding bytes.
pub fn seal(version: u32, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(payload);
    let mut h = Fnv64::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Validates a container produced by [`seal`] and returns its payload.
///
/// Checks, in order: length and magic, checksum (so corruption anywhere
/// is caught first), version, then fingerprint.
///
/// # Errors
///
/// [`CodecError::BadMagic`], [`CodecError::UnexpectedEof`],
/// [`CodecError::ChecksumMismatch`], [`CodecError::UnsupportedVersion`]
/// or [`CodecError::FingerprintMismatch`].
pub fn open(bytes: &[u8], version: u32, fingerprint: u64) -> Result<&[u8], CodecError> {
    const HEADER: usize = 8 + 4 + 8;
    if bytes.len() < HEADER + 8 {
        return Err(CodecError::UnexpectedEof);
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let (body, checksum) = bytes.split_at(bytes.len() - 8);
    let mut h = Fnv64::new();
    h.write(body);
    if h.finish().to_le_bytes() != checksum {
        return Err(CodecError::ChecksumMismatch);
    }
    let found_version = u32::from_le_bytes(body[8..12].try_into().expect("size checked"));
    if found_version != version {
        return Err(CodecError::UnsupportedVersion {
            found: found_version,
            expected: version,
        });
    }
    let found_fp = u64::from_le_bytes(body[12..20].try_into().expect("size checked"));
    if found_fp != fingerprint {
        return Err(CodecError::FingerprintMismatch {
            found: found_fp,
            expected: fingerprint,
        });
    }
    Ok(&body[HEADER..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_usize(77);
        w.put_f64(-0.625);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(b"abc");
        w.put_str("catnap");
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_usize().unwrap(), 77);
        assert_eq!(r.get_f64().unwrap(), -0.625);
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "catnap");
        assert!(r.is_empty());
    }

    #[test]
    fn eof_and_bad_tags_error() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u32(), Err(CodecError::UnexpectedEof));
        let mut r = ByteReader::new(&[7]);
        assert_eq!(r.get_bool(), Err(CodecError::Invalid("bool tag")));
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x61]);
        assert_eq!(r.get_bytes(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64-bit reference: "" -> offset basis, "a" -> af63dc4c8601ec8c.
        assert_eq!(Fnv64::new().finish(), 0xCBF2_9CE4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn container_round_trips() {
        let sealed = seal(3, 0xF00D, b"payload");
        assert_eq!(open(&sealed, 3, 0xF00D).unwrap(), b"payload");
    }

    #[test]
    fn container_rejects_corruption() {
        let sealed = seal(1, 42, b"some payload bytes");
        // Flip one bit anywhere: checksum must catch it.
        for i in 0..sealed.len() - 8 {
            let mut bad = sealed.clone();
            bad[i] ^= 0x10;
            let err = open(&bad, 1, 42).unwrap_err();
            assert!(
                matches!(err, CodecError::ChecksumMismatch | CodecError::BadMagic),
                "byte {i}: unexpected error {err:?}"
            );
        }
        // Truncation.
        assert_eq!(open(&sealed[..10], 1, 42), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn container_rejects_version_and_fingerprint_skew() {
        let sealed = seal(2, 42, b"x");
        assert_eq!(
            open(&sealed, 1, 42),
            Err(CodecError::UnsupportedVersion { found: 2, expected: 1 })
        );
        assert_eq!(
            open(&sealed, 2, 43),
            Err(CodecError::FingerprintMismatch {
                found: 42,
                expected: 43
            })
        );
    }

    #[test]
    fn errors_display() {
        let e = CodecError::UnsupportedVersion { found: 9, expected: 1 };
        assert!(e.to_string().contains("version 9"));
        assert!(CodecError::ChecksumMismatch.to_string().contains("corrupted"));
    }
}
