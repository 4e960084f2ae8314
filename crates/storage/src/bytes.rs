//! Little-endian byte helpers shared by the on-disk formats.
//!
//! The PatchIndex checkpoint codec, the durability layer's checkpoint
//! files and its write-ahead log all frame their payloads with these
//! fixed-width little-endian writers and readers. Each format still picks
//! its own field widths; only the encoding of one field lives here.

use std::io::{self, Read};

/// An [`io::ErrorKind::InvalidData`] error — the one kind a decoder
/// returns for bytes it refuses to parse.
pub fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Appends `v` as 4 little-endian bytes.
pub fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes.
pub fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes.
pub fn put_i64(b: &mut Vec<u8>, v: i64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Appends the IEEE-754 bits of `v` as 8 little-endian bytes.
pub fn put_f64(b: &mut Vec<u8>, v: f64) {
    put_u64(b, v.to_bits());
}

/// Appends a `u32` byte length followed by the UTF-8 bytes of `s`.
pub fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

/// Reads one byte.
pub fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

/// Reads a value written by [`put_u32`].
pub fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads a value written by [`put_u64`].
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads a value written by [`put_i64`].
pub fn read_i64(r: &mut impl Read) -> io::Result<i64> {
    Ok(read_u64(r)? as i64)
}

/// Reads a value written by [`put_f64`].
pub fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

/// Reads a string written by [`put_str`].
pub fn read_str(r: &mut impl Read) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("non-utf8 string"))
}
