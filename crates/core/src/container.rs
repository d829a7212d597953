//! Registry-keyed storage envelope.
//!
//! One frame works for every registered codec, replacing per-codec framing:
//!
//! ```text
//! magic "ALPC" | id_len: u8 | id bytes | count: u64 LE | payload_len: u64 LE
//!   | xxh64(payload): u64 LE | payload
//! ```
//!
//! The codec id is stored by name, so a reader needs no out-of-band schema to
//! pick the right decoder — it looks the id up in the [`Registry`] — and the
//! payload checksum (same xxh64 as ALP's row-group format) rejects bit rot
//! before any decoder sees the bytes.
//!
//! ## Parity section
//!
//! [`write_container_with_parity`] appends an optional erasure-protection
//! section *after* the payload — readers that predate it (including
//! [`try_read_header`], which only looks at `payload_len` bytes) skip it
//! transparently:
//!
//! ```text
//! "ALPP" | group_size:u8 | chunk_len:u32 | nchunks:u32
//!   | chunk xxh64s [nchunks * 8] | XOR blocks [ceil(nchunks/group_size) * chunk_len]
//!   | section xxh64
//! ```
//!
//! The payload is cut into `chunk_len`-byte chunks (the last possibly
//! short); per-chunk checksums *localize* damage the whole-payload checksum
//! can only detect, and one XOR block per `group_size` chunks reconstructs
//! any single damaged chunk per group ([`try_read_container_salvaged`]).
//! Truncation is not repairable — the section trails the payload and is cut
//! off with it — which is the honest trade for legacy compatibility.

use crate::codec::ColumnCodec;
use crate::error::CoreError;
use crate::registry::Registry;
use crate::scratch::Scratch;
use alp::format::FormatError;
use alp::parity::{self, GroupDamage};
use alp::ParityConfig;

/// Frame magic: ALP container.
pub const MAGIC: [u8; 4] = *b"ALPC";

/// Magic of the trailing parity section (shared with the stream's parity
/// frames — both spell "ALP parity").
pub const PARITY_MAGIC: [u8; 4] = *b"ALPP";

/// Seed of the payload checksum (distinct from ALP's row-group seed so the
/// two integrity domains cannot be confused).
const CHECKSUM_SEED: u64 = 0xC0_17_A1_9E;

/// Fixed bytes before the payload, excluding the variable-length id.
const FIXED_HEADER: usize = MAGIC.len() + 1 + 8 + 8 + 8;

/// Payload bytes per parity chunk — the localization granularity of repair.
const PARITY_CHUNK_LEN: usize = 4096;

/// Fixed bytes of the parity section before the chunk checksums.
const PARITY_FIXED: usize = PARITY_MAGIC.len() + 1 + 4 + 4;

/// Wraps `codec`-compressed `data` in a self-describing checksummed frame.
///
/// Errs with [`CoreError::Unsupported`] for ratio-only codecs.
pub fn write_container(
    codec: &dyn ColumnCodec,
    data: &[f64],
    scratch: &mut Scratch,
) -> Result<Vec<u8>, CoreError> {
    let mut payload = std::mem::take(&mut scratch.stage);
    let result = codec.try_compress_into(data, &mut payload, scratch);
    let frame = result.map(|()| {
        let id = codec.id().as_bytes();
        debug_assert!(id.len() <= u8::MAX as usize, "registry ids are short");
        let mut out = Vec::with_capacity(FIXED_HEADER + id.len() + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(id.len() as u8);
        out.extend_from_slice(id);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&alp::hash::xxh64(&payload, CHECKSUM_SEED).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    });
    scratch.stage = payload;
    frame
}

/// [`write_container`], then appends the XOR parity section described in the
/// module docs: any single damaged `chunk_len`-byte payload chunk per
/// `parity.group_size` chunks becomes reconstructible through
/// [`try_read_container_salvaged`], at ~`1/group_size` space overhead.
/// Readers that predate parity ignore the section entirely.
///
/// Errs with [`CoreError::Config`] when the group size is out of range, or
/// [`CoreError::Unsupported`] for ratio-only codecs.
pub fn write_container_with_parity(
    codec: &dyn ColumnCodec,
    data: &[f64],
    scratch: &mut Scratch,
    parity: ParityConfig,
) -> Result<Vec<u8>, CoreError> {
    parity.validate()?;
    let mut frame = write_container(codec, data, scratch)?;
    let payload_start = FIXED_HEADER + codec.id().len();
    let section =
        build_parity_section(frame.get(payload_start..).unwrap_or(&[]), parity.group_size);
    frame.extend_from_slice(&section);
    Ok(frame)
}

/// Builds the trailing parity section over a payload (see the module docs).
fn build_parity_section(payload: &[u8], group_size: usize) -> Vec<u8> {
    let chunks: Vec<&[u8]> = payload.chunks(PARITY_CHUNK_LEN).collect();
    let ngroups = chunks.len().div_ceil(group_size.max(1));
    let mut out =
        Vec::with_capacity(PARITY_FIXED + chunks.len() * 8 + ngroups * PARITY_CHUNK_LEN + 8);
    out.extend_from_slice(&PARITY_MAGIC);
    out.push(group_size as u8);
    out.extend_from_slice(&(PARITY_CHUNK_LEN as u32).to_le_bytes());
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for chunk in &chunks {
        out.extend_from_slice(&alp::hash::xxh64(chunk, CHECKSUM_SEED).to_le_bytes());
    }
    for group in chunks.chunks(group_size.max(1)) {
        let mut block = vec![0u8; PARITY_CHUNK_LEN];
        for chunk in group {
            parity::xor_into(&mut block, chunk);
        }
        out.extend_from_slice(&block);
    }
    let sum = alp::hash::xxh64(&out, CHECKSUM_SEED);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// A parsed container header plus its payload slice.
pub struct Container<'a> {
    /// The codec the payload was written with, resolved from the registry.
    pub codec: &'static dyn ColumnCodec,
    /// Number of values in the column.
    pub count: usize,
    /// The checksum-verified compressed payload.
    pub payload: &'a [u8],
}

/// Pops a little-endian `u64` off the front of `bytes`.
fn read_u64_le(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (word, rest) = bytes.split_at_checked(8)?;
    let word: [u8; 8] = word.try_into().ok()?;
    Some((u64::from_le_bytes(word), rest))
}

/// Parses and integrity-checks a container frame without decompressing.
pub fn try_read_header(bytes: &[u8]) -> Result<Container<'_>, CoreError> {
    use alp::format::FormatError;
    let truncated = || CoreError::Format(FormatError::Truncated);
    let rest = bytes.strip_prefix(&MAGIC).ok_or(CoreError::Format(FormatError::BadMagic))?;
    let (&id_len, rest) = rest.split_first().ok_or_else(truncated)?;
    let (id, rest) = rest.split_at_checked(id_len as usize).ok_or_else(truncated)?;
    let id = core::str::from_utf8(id)
        .map_err(|_| CoreError::Format(FormatError::Corrupt("container id is not utf-8")))?;
    let (count, rest) = read_u64_le(rest).ok_or_else(truncated)?;
    let (payload_len, rest) = read_u64_le(rest).ok_or_else(truncated)?;
    let (stored, rest) = read_u64_le(rest).ok_or_else(truncated)?;
    if count > usize::MAX as u64 {
        return Err(truncated());
    }
    let payload =
        usize::try_from(payload_len).ok().and_then(|n| rest.get(..n)).ok_or_else(truncated)?;
    let computed = alp::hash::xxh64(payload, CHECKSUM_SEED);
    if computed != stored {
        return Err(CoreError::Format(FormatError::ChecksumMismatch {
            rowgroup: 0,
            stored,
            computed,
        }));
    }
    let codec = Registry::get(id).ok_or_else(|| CoreError::UnknownCodec(id.to_owned()))?;
    Ok(Container { codec, count: count as usize, payload })
}

/// Reads a container and decompresses its column into `out`.
///
/// Returns the codec the frame was written with.
pub fn try_read_container_into(
    bytes: &[u8],
    out: &mut Vec<f64>,
    scratch: &mut Scratch,
) -> Result<&'static dyn ColumnCodec, CoreError> {
    let container = try_read_header(bytes)?;
    container.codec.try_decompress_into(container.payload, container.count, out, scratch)?;
    Ok(container.codec)
}

/// Outcome of a salvage-with-repair container read.
pub struct ContainerSalvage {
    /// The codec the frame was written with.
    pub codec: &'static dyn ColumnCodec,
    /// Payload chunk indices that were XOR-reconstructed from the parity
    /// section (empty on a clean read). The decoded column is byte-identical
    /// to the uncorrupted original whenever this path returns `Ok`.
    pub repaired_chunks: Vec<usize>,
}

impl core::fmt::Debug for ContainerSalvage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ContainerSalvage")
            .field("codec", &self.codec.id())
            .field("repaired_chunks", &self.repaired_chunks)
            .finish()
    }
}

/// The trailing parity section, parsed and section-checksum-verified.
struct ParitySection<'a> {
    group_size: usize,
    chunk_len: usize,
    /// Stored per-chunk checksums, 8 bytes each.
    sums: &'a [u8],
    nchunks: usize,
    /// The XOR blocks, `chunk_len` bytes per group.
    blocks: &'a [u8],
}

/// Parses the parity section from the bytes trailing the payload. `None`
/// when absent, malformed, or failing its own checksum — the caller then
/// degrades to plain detection.
fn parse_parity_section(tail: &[u8]) -> Option<ParitySection<'_>> {
    let rest = tail.strip_prefix(&PARITY_MAGIC)?;
    let (&gs, rest) = rest.split_first()?;
    let group_size = gs as usize;
    let (chunk_len, rest) = {
        let (w, rest) = rest.split_at_checked(4)?;
        (u32::from_le_bytes(w.try_into().ok()?) as usize, rest)
    };
    let (nchunks, rest) = {
        let (w, rest) = rest.split_at_checked(4)?;
        (u32::from_le_bytes(w.try_into().ok()?) as usize, rest)
    };
    if group_size == 0 || chunk_len == 0 {
        return None;
    }
    let (sums, rest) = rest.split_at_checked(nchunks.checked_mul(8)?)?;
    let ngroups = nchunks.div_ceil(group_size);
    let (blocks, rest) = rest.split_at_checked(ngroups.checked_mul(chunk_len)?)?;
    let (stored, _) = read_u64_le(rest)?;
    let section_len = tail.len().checked_sub(rest.len())?;
    let computed = alp::hash::xxh64(tail.get(..section_len)?, CHECKSUM_SEED);
    if computed != stored {
        return None;
    }
    Some(ParitySection { group_size, chunk_len, sums, nchunks, blocks })
}

/// Stored checksum of chunk `i` (little-endian u64 at `i * 8`).
fn stored_chunk_sum(sums: &[u8], i: usize) -> Option<u64> {
    let at = i.checked_mul(8)?;
    Some(u64::from_le_bytes(sums.get(at..at + 8)?.try_into().ok()?))
}

/// [`try_read_container_into`] that *repairs* instead of merely detecting:
/// when the payload checksum fails and the frame carries a parity section
/// ([`write_container_with_parity`]), damaged chunks are localized by their
/// stored per-chunk checksums (fanned out over up to `threads` morsel
/// workers), XOR-reconstructed — at most one per parity group — and the
/// repaired payload is re-verified against the header checksum before
/// decoding. Two or more damaged chunks in one group, a damaged parity
/// section, or a truncated frame surface the original error: detection
/// without repair, exactly as [`try_read_container_into`] reports today.
pub fn try_read_container_salvaged(
    bytes: &[u8],
    out: &mut Vec<f64>,
    scratch: &mut Scratch,
    threads: usize,
) -> Result<ContainerSalvage, CoreError> {
    match try_read_container_into(bytes, out, scratch) {
        Ok(codec) => Ok(ContainerSalvage { codec, repaired_chunks: Vec::new() }),
        Err(original @ CoreError::Format(FormatError::ChecksumMismatch { .. })) => {
            try_repair_container(bytes, out, scratch, threads).ok_or(original)
        }
        Err(e) => Err(e),
    }
}

/// The repair half of [`try_read_container_salvaged`]: re-parses the header
/// leniently, reconstructs damaged payload chunks from the parity section,
/// and decodes the repaired payload. `None` when repair is impossible.
fn try_repair_container(
    bytes: &[u8],
    out: &mut Vec<f64>,
    scratch: &mut Scratch,
    threads: usize,
) -> Option<ContainerSalvage> {
    // Lenient header walk: the strict read already classified the failure as
    // a payload checksum mismatch, so the structural fields are parseable.
    let rest = bytes.strip_prefix(&MAGIC)?;
    let (&id_len, rest) = rest.split_first()?;
    let (id, rest) = rest.split_at_checked(id_len as usize)?;
    let id = core::str::from_utf8(id).ok()?;
    let (count, rest) = read_u64_le(rest)?;
    let (payload_len, rest) = read_u64_le(rest)?;
    let (stored, rest) = read_u64_le(rest)?;
    let payload_len = usize::try_from(payload_len).ok()?;
    let payload = rest.get(..payload_len)?;
    let section = parse_parity_section(rest.get(payload_len..)?)?;

    let chunks: Vec<&[u8]> = payload.chunks(section.chunk_len).collect();
    if chunks.len() != section.nchunks {
        return None;
    }
    // Localize damage: verify every chunk against its stored checksum.
    let verdicts = alp::par::map_morsels(
        threads,
        chunks.len(),
        || (),
        |(), m| {
            let chunk = chunks.get(m)?;
            let ok = stored_chunk_sum(section.sums, m)? == alp::hash::xxh64(chunk, CHECKSUM_SEED);
            Some(ok)
        },
    );
    let mut repaired_payload = payload.to_vec();
    let mut repaired_chunks = Vec::new();
    for (g, group) in verdicts.chunks(section.group_size).enumerate() {
        let first = g * section.group_size;
        let damaged = (first..).zip(group).filter(|(_, v)| !matches!(v, Some(true)));
        let victim = match parity::group_damage(damaged.map(|(i, _)| i)) {
            GroupDamage::Intact => continue,
            GroupDamage::One(victim) => victim,
            GroupDamage::Beyond => return None,
        };
        let block_at = g.checked_mul(section.chunk_len)?;
        let mut block = section.blocks.get(block_at..block_at + section.chunk_len)?.to_vec();
        for i in (first..first + group.len()).filter(|&i| i != victim) {
            parity::xor_into(&mut block, chunks.get(i)?);
        }
        let start = victim.checked_mul(section.chunk_len)?;
        let slot = repaired_payload.get_mut(start..)?;
        let take = slot.len().min(section.chunk_len);
        slot.get_mut(..take)?.copy_from_slice(block.get(..take)?);
        // The reconstruction must match the chunk's own stored checksum.
        if stored_chunk_sum(section.sums, victim)?
            != alp::hash::xxh64(repaired_payload.get(start..start + take)?, CHECKSUM_SEED)
        {
            return None;
        }
        repaired_chunks.push(victim);
    }
    // End-to-end proof: the repaired payload must match the header checksum.
    if alp::hash::xxh64(&repaired_payload, CHECKSUM_SEED) != stored {
        return None;
    }
    let codec = Registry::get(id)?;
    codec
        .try_decompress_into(&repaired_payload, usize::try_from(count).ok()?, out, scratch)
        .ok()?;
    Some(ContainerSalvage { codec, repaired_chunks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<f64> {
        (0..2500).map(|i| (i as f64) * 0.01 - 7.25).collect()
    }

    #[test]
    fn roundtrips_every_serializable_codec() {
        let data = sample();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for codec in Registry::all().iter().filter(|c| !c.caps().ratio_only) {
            let frame = write_container(*codec, &data, &mut scratch).expect("compress");
            let found =
                try_read_container_into(&frame, &mut out, &mut scratch).expect("decompress");
            assert_eq!(found.id(), codec.id());
            assert_eq!(out, data, "{} container roundtrip", codec.id());
        }
    }

    #[test]
    fn ratio_only_codec_is_rejected_at_write() {
        let lwc = Registry::get("lwc-alp").expect("registered");
        let err = write_container(lwc, &sample(), &mut Scratch::new()).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { codec: "lwc-alp", .. }));
    }

    #[test]
    fn unknown_id_is_reported_by_name() {
        let mut scratch = Scratch::new();
        let alp_codec = Registry::get("alp").expect("registered");
        let mut frame = write_container(alp_codec, &sample(), &mut scratch).expect("compress");
        // Overwrite the stored id "alp" -> "zzz".
        frame[5..8].copy_from_slice(b"zzz");
        let err = try_read_container_into(&frame, &mut Vec::new(), &mut scratch)
            .map(|c| c.id())
            .unwrap_err();
        assert_eq!(err, CoreError::UnknownCodec("zzz".to_owned()));
    }

    #[test]
    fn payload_corruption_is_caught_by_checksum() {
        let mut scratch = Scratch::new();
        let alp_codec = Registry::get("alp").expect("registered");
        let mut frame = write_container(alp_codec, &sample(), &mut scratch).expect("compress");
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let err = try_read_container_into(&frame, &mut Vec::new(), &mut scratch)
            .map(|c| c.id())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Format(alp::format::FormatError::ChecksumMismatch { .. })),
            "got {err:?}"
        );
    }

    /// Payload byte range of a container frame (after the variable header).
    fn payload_range(codec: &dyn ColumnCodec, frame: &[u8]) -> (usize, usize) {
        let start = FIXED_HEADER + codec.id().len();
        let len_at = MAGIC.len() + 1 + codec.id().len() + 8;
        let payload_len =
            u64::from_le_bytes(frame[len_at..len_at + 8].try_into().unwrap()) as usize;
        (start, start + payload_len)
    }

    #[test]
    fn parity_container_roundtrips_clean_for_every_codec() {
        let data = sample();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for codec in Registry::all().iter().filter(|c| !c.caps().ratio_only) {
            let frame = write_container_with_parity(
                *codec,
                &data,
                &mut scratch,
                ParityConfig { group_size: 4 },
            )
            .expect("compress");
            // The legacy reader skips the trailing section transparently.
            let found =
                try_read_container_into(&frame, &mut out, &mut scratch).expect("legacy read");
            assert_eq!(found.id(), codec.id());
            assert_eq!(out, data, "{} legacy read", codec.id());
            // The salvage reader reports a clean read.
            let salvage = try_read_container_salvaged(&frame, &mut out, &mut scratch, 1)
                .expect("salvage read");
            assert!(salvage.repaired_chunks.is_empty());
            assert_eq!(out, data, "{} salvage read", codec.id());
        }
    }

    #[test]
    fn single_damaged_chunk_per_group_repairs_for_every_codec() {
        let data = sample();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for codec in Registry::all().iter().filter(|c| !c.caps().ratio_only) {
            let frame = write_container_with_parity(
                *codec,
                &data,
                &mut scratch,
                ParityConfig { group_size: 4 },
            )
            .expect("compress");
            let (pstart, pend) = payload_range(*codec, &frame);
            // One corrupted byte in the first chunk of each parity group.
            let mut bytes = frame.clone();
            let mut expected_chunks = Vec::new();
            let mut off = pstart;
            let mut chunk = 0usize;
            while off < pend {
                if chunk.is_multiple_of(4) {
                    bytes[off] ^= 0xA5;
                    expected_chunks.push(chunk);
                }
                off += PARITY_CHUNK_LEN;
                chunk += 1;
            }
            // Detection without repair still errors.
            assert!(try_read_container_into(&bytes, &mut out, &mut scratch).is_err());
            for threads in [1usize, 4] {
                let salvage = try_read_container_salvaged(&bytes, &mut out, &mut scratch, threads)
                    .unwrap_or_else(|e| panic!("{} repair (t={threads}): {e}", codec.id()));
                assert_eq!(salvage.repaired_chunks, expected_chunks, "{}", codec.id());
                assert_eq!(out, data, "{} repaired decode", codec.id());
            }
        }
    }

    #[test]
    fn two_damaged_chunks_in_one_group_report_the_original_error() {
        let data = sample();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        let codec = Registry::get("alp").expect("registered");
        let frame =
            write_container_with_parity(codec, &data, &mut scratch, ParityConfig { group_size: 4 })
                .expect("compress");
        let (pstart, pend) = payload_range(codec, &frame);
        let mut bytes = frame.clone();
        bytes[pstart] ^= 0x01;
        bytes[(pstart + PARITY_CHUNK_LEN).min(pend - 1)] ^= 0x01;
        let err = try_read_container_salvaged(&bytes, &mut out, &mut scratch, 2).unwrap_err();
        assert!(
            matches!(err, CoreError::Format(FormatError::ChecksumMismatch { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn damaged_parity_section_still_reads_data_clean() {
        let data = sample();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        let codec = Registry::get("alp").expect("registered");
        let frame =
            write_container_with_parity(codec, &data, &mut scratch, ParityConfig { group_size: 2 })
                .expect("compress");
        let (_, pend) = payload_range(codec, &frame);
        let mut bytes = frame.clone();
        for b in &mut bytes[pend..] {
            *b ^= 0x3C;
        }
        let salvage = try_read_container_salvaged(&bytes, &mut out, &mut scratch, 1)
            .expect("clean payload reads despite trashed parity");
        assert!(salvage.repaired_chunks.is_empty());
        assert_eq!(out, data);
    }

    #[test]
    fn parity_rejects_bad_group_size() {
        let err = write_container_with_parity(
            Registry::get("alp").unwrap(),
            &sample(),
            &mut Scratch::new(),
            ParityConfig { group_size: 0 },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)));
    }

    #[test]
    fn truncation_never_panics() {
        let mut scratch = Scratch::new();
        let alp_codec = Registry::get("alp").expect("registered");
        let frame = write_container(alp_codec, &sample(), &mut scratch).expect("compress");
        for cut in [0, 1, 3, 4, 5, 10, 20, frame.len() / 2, frame.len() - 1] {
            assert!(
                try_read_container_into(&frame[..cut], &mut Vec::new(), &mut scratch).is_err(),
                "truncation at {cut} must err"
            );
        }
    }
}
