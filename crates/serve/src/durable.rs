//! The checksummed file frame and crash-safe writer shared by the daemon's
//! cache snapshots ([`crate::snapshot`]) and `lsml-suite`'s sweep
//! checkpoints.
//!
//! A sealed file is an 8-byte magic, a `u32` format version, a `u64`
//! payload length, the payload, and an FNV-1a checksum over the payload,
//! all little-endian. [`unseal`] verifies every field before it hands the
//! payload back, so a torn, truncated or bit-flipped file is rejected,
//! never decoded.
//!
//! [`write_durable`] is the classic crash-safety discipline: write a
//! sibling temp file, `fsync`, atomically rename over the target, and
//! `fsync` the directory on Unix so the rename itself is durable. A crash
//! at any point leaves either the old file or a stray temp file, never a
//! half-written file under the real name.

use crate::fault::FaultPlan;
use crate::protocol::Wire;
use lsml_aig::fxhash::{fnv1a_bytes, FNV_OFFSET};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// FNV-1a over bytes — small, dependency-free, and plenty to catch torn
/// writes and bit flips (this is corruption *detection*, not security).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_bytes(FNV_OFFSET, bytes)
}

/// Frames `payload` as magic + version + length + payload + checksum.
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + 12 + payload.len() + 8);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Verifies a [`seal`]ed frame and returns its payload. Any defect — bad
/// magic, version skew, a length that disagrees with the file, a checksum
/// mismatch — is an `Err` naming `what` was being read; never panics on
/// arbitrary bytes.
pub fn unseal<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    what: &str,
) -> Result<&'a [u8], String> {
    let mut w = Wire::new(bytes);
    if w.bytes(magic.len())? != magic {
        return Err("bad magic".into());
    }
    let found = w.u32()?;
    if found != version {
        return Err(format!("{what} version {found}, expected {version}"));
    }
    let payload_len = w.u64()? as usize;
    // Checked: the length comes from the file, and a wrapped sum could
    // match a short file.
    if payload_len.checked_add(8) != Some(w.remaining()) {
        return Err(format!(
            "torn {what}: header says {payload_len}B payload + 8B checksum, file has {}B",
            w.remaining()
        ));
    }
    let payload = w.bytes(payload_len)?;
    let want = w.u64()?;
    let got = fnv1a(payload);
    if want != got {
        return Err(format!(
            "checksum mismatch: stored {want:#x}, computed {got:#x}"
        ));
    }
    Ok(payload)
}

/// Writes `bytes` to `path` crash-safely (temp + fsync + rename + directory
/// fsync). The fault plan's snapshot faults apply: `snapshot_corrupt` flips
/// one bit mid-file (a sealed frame's checksum must catch it on load), and
/// `snapshot_kill_mid_write` abandons a half-written temp file without
/// renaming, so the target name never holds a torn file.
pub fn write_durable(path: &Path, mut bytes: Vec<u8>, fault: &FaultPlan) -> io::Result<()> {
    if fault.snapshot_corrupt && !bytes.is_empty() {
        let i = bytes.len() / 2;
        bytes[i] ^= 0x10;
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        if fault.snapshot_kill_mid_write {
            // Simulated kill: half the bytes land, no fsync, no rename.
            f.write_all(&bytes[..bytes.len() / 2])?;
            return Ok(());
        }
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseal_rejects_a_length_that_overflows() {
        let mut bytes = seal(b"LSMLTST1", 1, b"payload");
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(unseal(&bytes, b"LSMLTST1", 1, "test file").is_err());
    }
}
