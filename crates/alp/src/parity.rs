//! XOR erasure protection for framed row-groups — the repair half of the
//! durability story (checksums detect, salvage contains, parity *repairs*).
//!
//! A writer configured with [`ParityConfig`] emits one **parity frame** per
//! `group_size` row-group frames — after each group in a stream, after the
//! last row-group in a column (see [`crate::frame`]) — whose body is:
//!
//! ```text
//! "ALPP" | group_size:u8 | count:u8 | max_len:u32 | xor[max_len]
//! ```
//!
//! `xor` is the byte-wise XOR of the group's `count` data frames — each taken
//! *whole*, length prefix and checksum included — zero-padded to the longest
//! (`max_len`). The parity frame itself is framed exactly like a row-group
//! (`len:u32 | xxh64:u64 | body`), so readers that predate parity skip
//! past it as an ordinary unparseable frame, and parity-aware readers
//! recognize it unambiguously: row-group bodies always start with a scheme
//! tag (`0` or `1`), never `'A'`.
//!
//! Because XOR is its own inverse, a group with exactly one damaged frame is
//! reconstructible: XOR the parity block with every *intact* frame and what
//! remains is the missing frame, byte for byte — its own length prefix and
//! stored checksum included, so the reconstruction is self-verifying. Two or
//! more damaged frames in one group are beyond the protection level and
//! degrade to the pre-parity loss report.

use crate::sampler::ConfigError;

/// Magic prefix of a parity frame body.
pub const PARITY_MAGIC: &[u8; 4] = b"ALPP";

/// Fixed bytes of a parity body before the XOR block:
/// magic + group_size + count + max_len.
pub(crate) const PARITY_BODY_HEADER: usize = 4 + 1 + 1 + 4;

/// Erasure-protection knob for the framed writers: emit one parity frame per
/// `group_size` row-group frames, making any single damaged frame per group
/// reconstructible at ~`1/group_size` storage overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityConfig {
    /// Row-group frames per parity group. Small groups repair more
    /// independent faults per stream; large groups cost less space.
    pub group_size: usize,
}

impl ParityConfig {
    /// Validates the group size: at least 1 (full replication) and at most
    /// 255 (the body's `count` field is a byte).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.group_size == 0 || self.group_size > 255 {
            return Err(ConfigError { param: "parity group_size" });
        }
        Ok(())
    }
}

/// Writer-side accumulator: absorbs whole frames, and every `group_size`
/// absorptions (or on demand, for a partial tail group) yields one encoded
/// parity frame ready to append to the stream.
#[derive(Debug)]
pub(crate) struct ParityAccumulator {
    group_size: usize,
    /// Running XOR of absorbed frames, sized to the longest seen this group.
    acc: Vec<u8>,
    /// Frames absorbed into the current group so far.
    count: usize,
}

impl ParityAccumulator {
    pub(crate) fn new(group_size: usize) -> Self {
        Self { group_size, acc: Vec::new(), count: 0 }
    }

    /// Folds one whole frame (length prefix and checksum included) into the
    /// running XOR.
    pub(crate) fn absorb(&mut self, frame: &[u8]) {
        if frame.len() > self.acc.len() {
            self.acc.resize(frame.len(), 0);
        }
        xor_into(&mut self.acc, frame);
        self.count += 1;
    }

    /// Whether the current group is full and a parity frame is due.
    pub(crate) fn is_full(&self) -> bool {
        self.count >= self.group_size
    }

    /// Encodes the pending group's parity frame — `len | xxh64 | body` —
    /// and resets the accumulator. `None` when no frames are pending (so
    /// callers can flush unconditionally at stream end).
    pub(crate) fn take_frame(&mut self) -> Option<Vec<u8>> {
        if self.count == 0 {
            return None;
        }
        let mut frame =
            Vec::with_capacity(crate::frame::PREFIX_LEN + PARITY_BODY_HEADER + self.acc.len());
        crate::frame::encode(&mut frame, |body| {
            body.extend_from_slice(PARITY_MAGIC);
            body.push(self.group_size as u8);
            body.push(self.count as u8);
            body.extend_from_slice(&(self.acc.len() as u32).to_le_bytes());
            body.extend_from_slice(&self.acc);
        });
        self.acc.clear();
        self.count = 0;
        Some(frame)
    }
}

/// A parsed parity frame body.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParityBody<'a> {
    /// The writer's configured group size (data frames per parity frame).
    pub group_size: usize,
    /// Data frames this particular parity frame covers (`< group_size` only
    /// for the stream's final, partial group).
    pub count: usize,
    /// The XOR block, padded to the group's longest frame.
    pub xor: &'a [u8],
}

/// Whether a checksum-verified frame body is a parity frame. Row-group
/// bodies begin with a scheme tag (`0` or `1`), so the `"ALPP"` prefix is
/// unambiguous.
pub(crate) fn is_parity_body(body: &[u8]) -> bool {
    body.get(..4) == Some(PARITY_MAGIC.as_slice())
}

/// Parses a parity frame body; `None` when the layout is inconsistent
/// (wrong magic, counts out of range, or a truncated XOR block).
pub(crate) fn parse_parity_body(body: &[u8]) -> Option<ParityBody<'_>> {
    if !is_parity_body(body) {
        return None;
    }
    let group_size = *body.get(4)? as usize;
    let count = *body.get(5)? as usize;
    let max_len = u32::from_le_bytes(body.get(6..10)?.try_into().ok()?) as usize;
    let xor = body.get(PARITY_BODY_HEADER..)?;
    if group_size == 0 || count == 0 || count > group_size || xor.len() != max_len {
        return None;
    }
    Some(ParityBody { group_size, count, xor })
}

/// XORs `src` into the front of `acc` (bytes of `src` past `acc`'s end are
/// ignored): the one XOR loop behind every parity block, built or undone.
pub fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, b) in acc.iter_mut().zip(src) {
        *a ^= *b;
    }
}

/// Damage within one parity group, as XOR parity sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupDamage {
    /// No member is damaged.
    Intact,
    /// Exactly this member is damaged: one XOR block rebuilds it.
    One(usize),
    /// Two or more members are damaged: beyond the protection level.
    Beyond,
}

/// Classifies a group from the indices of its damaged members.
pub fn group_damage(damaged: impl IntoIterator<Item = usize>) -> GroupDamage {
    let mut damaged = damaged.into_iter();
    match (damaged.next(), damaged.next()) {
        (None, _) => GroupDamage::Intact,
        (Some(victim), None) => GroupDamage::One(victim),
        (Some(_), Some(_)) => GroupDamage::Beyond,
    }
}

/// Reconstructs the single missing frame of a parity group: XORs the parity
/// block with every intact frame, then self-verifies the result against its
/// own reconstructed length prefix and stored checksum. `None` when the
/// reconstruction is inconsistent — more than one frame was actually
/// damaged, or the parity block itself lied.
pub(crate) fn try_repair_frame(xor: &[u8], intact: &[&[u8]]) -> Option<Vec<u8>> {
    let mut buf = xor.to_vec();
    for frame in intact {
        if frame.len() > buf.len() {
            // An intact frame longer than the parity block cannot have been
            // absorbed into it: the group is inconsistent.
            return None;
        }
        xor_into(&mut buf, frame);
    }
    let (frame, padding) = crate::frame::split_frame(&buf)?;
    // Bytes past the reconstructed frame are XORed padding and must cancel
    // to zero; a nonzero tail means the group's intact set was wrong.
    if padding.iter().any(|&b| b != 0) {
        return None;
    }
    crate::frame::verified_body(frame)?;
    let total = frame.len();
    buf.truncate(total);
    Some(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{xxh64, CHECKSUM_SEED};

    /// Builds a V2-framed pseudo-frame (`len | xxh64 | body`) from a body.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&(body.len() as u32).to_le_bytes());
        f.extend_from_slice(&xxh64(body, CHECKSUM_SEED).to_le_bytes());
        f.extend_from_slice(body);
        f
    }

    #[test]
    fn config_bounds() {
        assert!(ParityConfig { group_size: 0 }.validate().is_err());
        assert!(ParityConfig { group_size: 256 }.validate().is_err());
        assert!(ParityConfig { group_size: 1 }.validate().is_ok());
        assert!(ParityConfig { group_size: 255 }.validate().is_ok());
    }

    #[test]
    fn parity_roundtrip_repairs_each_position() {
        let frames: Vec<Vec<u8>> =
            vec![frame(&[0u8, 1, 2, 3, 4, 5]), frame(&[1u8; 40]), frame(&[0u8, 9, 9])];
        let mut acc = ParityAccumulator::new(frames.len());
        for f in &frames {
            acc.absorb(f);
        }
        assert!(acc.is_full());
        let pframe = acc.take_frame().expect("group pending");
        let body = &pframe[12..];
        assert!(is_parity_body(body));
        let parsed = parse_parity_body(body).expect("well-formed parity body");
        assert_eq!(parsed.group_size, 3);
        assert_eq!(parsed.count, 3);

        for missing in 0..frames.len() {
            let intact: Vec<&[u8]> = frames
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != missing)
                .map(|(_, f)| f.as_slice())
                .collect();
            let repaired = try_repair_frame(parsed.xor, &intact).expect("single loss repairs");
            assert_eq!(repaired, frames[missing]);
        }
    }

    #[test]
    fn double_loss_is_detected() {
        let frames: Vec<Vec<u8>> = vec![frame(&[7u8; 16]), frame(&[8u8; 24]), frame(&[9u8; 8])];
        let mut acc = ParityAccumulator::new(3);
        for f in &frames {
            acc.absorb(f);
        }
        let pframe = acc.take_frame().unwrap();
        let parsed = parse_parity_body(&pframe[12..]).unwrap();
        // Only one intact frame of three: the "reconstruction" is the XOR of
        // two frames and must fail self-verification.
        assert!(try_repair_frame(parsed.xor, &[frames[0].as_slice()]).is_none());
    }

    #[test]
    fn partial_group_flushes_with_its_count() {
        let mut acc = ParityAccumulator::new(8);
        acc.absorb(&frame(&[1, 2, 3]));
        assert!(!acc.is_full());
        let pframe = acc.take_frame().unwrap();
        let parsed = parse_parity_body(&pframe[12..]).unwrap();
        assert_eq!(parsed.group_size, 8);
        assert_eq!(parsed.count, 1);
        // Flushing again with nothing pending yields nothing.
        assert!(acc.take_frame().is_none());
    }

    #[test]
    fn malformed_bodies_parse_to_none() {
        assert!(parse_parity_body(b"").is_none());
        assert!(parse_parity_body(b"ALPP").is_none());
        assert!(parse_parity_body(b"ALPX\x02\x01\x00\x00\x00\x00").is_none());
        // count > group_size
        assert!(parse_parity_body(b"ALPP\x02\x03\x00\x00\x00\x00").is_none());
        // max_len disagrees with the block
        assert!(parse_parity_body(b"ALPP\x02\x02\x05\x00\x00\x00abc").is_none());
    }
}
