//! The frame layer shared by the `"ALP2"` column ([`crate::format`]) and the
//! `"ALPT"` stream ([`crate::stream`]): frame encoding, the trailing frame
//! table, frame location, parity grouping, and repair.
//!
//! Both layouts store each row-group as one frame,
//!
//! ```text
//! len:u32 | xxh64:u64 | body[len]               (XXH64 of the body, seed 0)
//! ```
//!
//! and a writer configured with a [`ParityConfig`](crate::parity::ParityConfig)
//! adds one `"ALPP"` parity frame per `group_size` data frames (see
//! [`crate::parity`]): interleaved after each group in a stream, appended
//! after the last data frame in a column. Writers of `"ALPT"` streams and of
//! parity-protected `"ALP2"` columns end the file with
//!
//! ```text
//! len = 0 : u32                                       terminator
//! "ALPF" | values:u64 | rowgroups:u32 | xxh64:u64     commit footer
//! "ALPX" | group_size:u8 | frames:u32 | { len:u32 | kind:u8 }[frames]
//! table_len:u32 | xxh64:u64                           frame-table trailer
//! ```
//!
//! The **frame table** lists every frame's body length and kind (`0` data,
//! `1` parity) in file order, plus the parity group size (`0` without
//! parity). Its fixed-size trailer finds it from the end of the buffer in
//! O(1), and it verifies only when its checksum matches *and* its lengths
//! exactly fill the bytes between the first frame and the terminator.
//! Readers that stop at the terminator or the footer never see it.
//!
//! **Salvage.** `walk` delimits the frames of a buffer: by the table when
//! it verifies, restoring any length prefix that disagrees with it, and
//! otherwise by a plain length walk that stops at the first implausible
//! length — the rest is lost, never guessed at. Without a table a frame's
//! kind follows from the layout: a column's header gives its data-frame
//! count, and in a stream every `(k + 1)`-th frame is parity. `recover`
//! then verifies and decodes every data frame and repairs any single damaged
//! one per parity group: data frame `i` belongs to group `i / k`, and group
//! `g`'s parity is the `g`-th parity frame, wherever the parity frames sit.
//! Nothing probes for frames at arbitrary byte offsets.

use std::borrow::Cow;

use crate::hash::{xxh64, CHECKSUM_SEED};
use crate::parity::{self, GroupDamage, ParityAccumulator};
use crate::wire::PutExt;

/// Magic of the commit footer that follows the terminator.
pub const COMMIT_MAGIC: &[u8; 4] = b"ALPF";

/// Serialized size of the commit footer: magic + values + rowgroups + xxh64.
pub const COMMIT_FOOTER_LEN: usize = 4 + 8 + 4 + 8;

/// Magic of the frame table that follows the commit footer.
pub const TABLE_MAGIC: &[u8; 4] = b"ALPX";

/// `len:u32 | xxh64:u64` before every frame body.
pub(crate) const PREFIX_LEN: usize = 4 + 8;

/// Table bytes before the entries (magic, group size, frame count), one
/// entry (body length, kind), and the trailer (table length, checksum).
const TABLE_HEAD_LEN: usize = 4 + 1 + 4;
const ENTRY_LEN: usize = 4 + 1;
const TRAILER_LEN: usize = 4 + 8;

/// The commit footer of a cleanly finished file: what the writer intended it
/// to contain, attested by an XXH64 over the footer fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFooter {
    /// Total values the writer emitted.
    pub values: u64,
    /// Row-group frames the writer emitted.
    pub rowgroups: u32,
}

/// What a frame holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// One serialized row-group.
    Data = 0,
    /// An `"ALPP"` parity frame.
    Parity = 1,
}

/// Little-endian `u32` at `at`, when the bytes are there.
pub(crate) fn u32_at(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at.checked_add(4)?)?.try_into().ok()?))
}

/// Little-endian `u64` at `at`, when the bytes are there.
pub(crate) fn u64_at(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at.checked_add(8)?)?.try_into().ok()?))
}

/// Appends one frame whose body `write_body` appends: the length and
/// checksum are backfilled once the body is in place.
pub(crate) fn encode(out: &mut Vec<u8>, write_body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.resize(start + PREFIX_LEN, 0);
    write_body(out);
    let body = out.get(start + PREFIX_LEN..).unwrap_or_default();
    let len = (body.len() as u32).to_le_bytes();
    let sum = xxh64(body, CHECKSUM_SEED).to_le_bytes();
    if let Some(prefix) = out.get_mut(start..start + PREFIX_LEN) {
        let (l, s) = prefix.split_at_mut(4);
        l.copy_from_slice(&len);
        s.copy_from_slice(&sum);
    }
}

/// Splits the whole frame at the head of `buf` from the bytes after it;
/// `None` when `buf` does not hold a whole frame.
pub(crate) fn split_frame(buf: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = u32_at(buf, 0)? as usize;
    buf.split_at_checked(PREFIX_LEN.checked_add(len)?)
}

/// The body of a whole frame, when it matches the frame's stored checksum.
pub(crate) fn verified_body(frame: &[u8]) -> Option<&[u8]> {
    let stored = u64_at(frame, 4)?;
    let body = frame.get(PREFIX_LEN..)?;
    (xxh64(body, CHECKSUM_SEED) == stored).then_some(body)
}

/// Parses a commit footer from the head of `raw`; `None` on any defect.
pub(crate) fn read_footer(raw: &[u8]) -> Option<StreamFooter> {
    let attested = raw.get(..COMMIT_FOOTER_LEN - 8)?;
    if attested.get(..4)? != COMMIT_MAGIC.as_slice()
        || xxh64(attested, CHECKSUM_SEED) != u64_at(raw, COMMIT_FOOTER_LEN - 8)?
    {
        return None;
    }
    Some(StreamFooter { values: u64_at(raw, 4)?, rowgroups: u32_at(raw, 12)? })
}

/// Bytes a writer appends after its last frame: terminator, commit footer,
/// and a frame table of `frames` entries.
#[cfg(test)]
pub(crate) fn tail_len(frames: usize) -> usize {
    4 + COMMIT_FOOTER_LEN + TABLE_HEAD_LEN + frames * ENTRY_LEN + TRAILER_LEN
}

/// Every frame's body length and kind in file order, plus the parity group
/// size (`0` without parity).
#[derive(Debug)]
struct FrameTable {
    group_size: usize,
    entries: Vec<(u32, Kind)>,
}

/// Locates the frame table at the end of `buf`, whose first frame starts at
/// `start`; `None` unless it verifies (see the module docs).
fn read_table(buf: &[u8], start: usize) -> Option<FrameTable> {
    let trailer = buf.len().checked_sub(TRAILER_LEN)?;
    let table_at = trailer.checked_sub(u32_at(buf, trailer)? as usize)?;
    let table = buf.get(table_at..trailer)?;
    // Layout first, checksum second: a file without a table must not cost
    // a hash over whatever its last bytes claim is one.
    let rest = table.strip_prefix(TABLE_MAGIC.as_slice())?;
    let (&group_size, rest) = rest.split_first()?;
    let count = u32_at(rest, 0)? as usize;
    let raw = table.get(TABLE_HEAD_LEN..)?;
    if raw.len() != count.checked_mul(ENTRY_LEN)?
        || xxh64(table, CHECKSUM_SEED) != u64_at(buf, trailer + 4)?
    {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    let mut end = start;
    for entry in raw.chunks_exact(ENTRY_LEN) {
        let len = u32_at(entry, 0)?;
        let kind = match entry.get(4)? {
            0 => Kind::Data,
            1 => Kind::Parity,
            _ => return None,
        };
        end = end.checked_add(PREFIX_LEN)?.checked_add(len as usize)?;
        entries.push((len, kind));
    }
    let filled = end.checked_add(4 + COMMIT_FOOTER_LEN)? == table_at;
    filled.then_some(FrameTable { group_size: usize::from(group_size), entries })
}

/// Writer-side frame log: records every frame for the table and folds data
/// frames into parity groups. Shared by the column and stream writers, which
/// differ only in where they put the parity frames it returns.
#[derive(Debug)]
pub(crate) struct FrameLog {
    table: FrameTable,
    parity: Option<ParityAccumulator>,
}

impl FrameLog {
    /// A log for a writer with parity groups of `group_size` frames, or none.
    pub(crate) fn new(group_size: Option<usize>) -> Self {
        Self {
            table: FrameTable { group_size: group_size.unwrap_or(0), entries: Vec::new() },
            parity: group_size.map(ParityAccumulator::new),
        }
    }

    fn record(&mut self, frame: &[u8], kind: Kind) {
        let len = frame.len().saturating_sub(PREFIX_LEN) as u32;
        self.table.entries.push((len, kind));
    }

    /// Logs one whole data frame; returns the parity frame it completes,
    /// for the caller to place and log with [`FrameLog::parity`].
    pub(crate) fn data(&mut self, frame: &[u8]) -> Option<Vec<u8>> {
        self.record(frame, Kind::Data);
        let acc = self.parity.as_mut()?;
        acc.absorb(frame);
        if !acc.is_full() {
            return None;
        }
        self.close()
    }

    /// Closes a partial final group: its parity frame, when one is pending.
    pub(crate) fn close(&mut self) -> Option<Vec<u8>> {
        self.parity.as_mut()?.take_frame()
    }

    /// Logs a parity frame where the caller placed it.
    pub(crate) fn parity(&mut self, pframe: &[u8]) {
        self.record(pframe, Kind::Parity);
    }

    /// Appends terminator, commit footer, and frame table to `out`.
    pub(crate) fn write_tail(&self, out: &mut Vec<u8>, values: u64, rowgroups: u32) {
        out.put_u32_le(0);
        let footer = out.len();
        out.put_slice(COMMIT_MAGIC);
        out.put_u64_le(values);
        out.put_u32_le(rowgroups);
        let sum = xxh64(out.get(footer..).unwrap_or_default(), CHECKSUM_SEED);
        out.put_u64_le(sum);
        let table = out.len();
        out.put_slice(TABLE_MAGIC);
        out.put_u8(self.table.group_size as u8);
        out.put_u32_le(self.table.entries.len() as u32);
        for &(len, kind) in &self.table.entries {
            out.put_u32_le(len);
            out.put_u8(kind as u8);
        }
        let table = out.get(table..).unwrap_or_default();
        let (len, sum) = (table.len() as u32, xxh64(table, CHECKSUM_SEED));
        out.put_u32_le(len);
        out.put_u64_le(sum);
    }
}

/// How a walk without a verified table tells data frames from parity.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Layout {
    /// `"ALP2"`: the header's `rowgroups` data frames, then parity frames.
    Column { rowgroups: usize },
    /// `"ALPT"`: each parity frame follows its group. `from_start` is false
    /// when the walk begins past the first frame, where neither the table
    /// nor frame positions line up, so only self-verifying frames count.
    Stream { from_start: bool },
}

/// One delimited frame.
pub(crate) struct Frame<'a> {
    /// `len | xxh64 | body` as written — with the table's length restored
    /// where the on-disk prefix disagreed. The last frame of a walk that
    /// stopped early runs to the end of the buffer and never verifies.
    pub(crate) bytes: Cow<'a, [u8]>,
    pub(crate) kind: Kind,
    /// The length prefix disagreed with the verified table.
    pub(crate) restored: bool,
}

/// The frames of one buffer, in file order.
pub(crate) struct Walk<'a> {
    pub(crate) frames: Vec<Frame<'a>>,
    /// Parity group size: from the table, else from the first verified
    /// parity frame; `0` when the buffer shows no parity.
    pub(crate) group_size: usize,
    /// Whether the frame table verified and delimited the frames.
    pub(crate) tabled: bool,
    /// Offset of the terminator, when the walk reached it.
    pub(crate) terminator: Option<usize>,
}

/// Delimits the frames of `buf`, the first starting at `start` (see the
/// module docs). Cost is linear in the number of frames, plus one checksum
/// of the first parity frame when no table gives the group size.
pub(crate) fn walk(buf: &[u8], start: usize, layout: Layout) -> Walk<'_> {
    let from_start = !matches!(layout, Layout::Stream { from_start: false });
    if let Some(table) = read_table(buf, start).filter(|_| from_start) {
        let mut off = start;
        let mut frames = Vec::with_capacity(table.entries.len());
        for &(len, kind) in &table.entries {
            let end = off + PREFIX_LEN + len as usize;
            let whole = buf.get(off..end).unwrap_or_default();
            off = end;
            let restored = u32_at(whole, 0) != Some(len);
            let bytes = if restored {
                let mut owned = whole.to_vec();
                if let Some(prefix) = owned.get_mut(..4) {
                    prefix.copy_from_slice(&len.to_le_bytes());
                }
                Cow::Owned(owned)
            } else {
                Cow::Borrowed(whole)
            };
            frames.push(Frame { bytes, kind, restored });
        }
        let group_size = table.group_size;
        return Walk { frames, group_size, tabled: true, terminator: Some(off) };
    }

    let stream = matches!(layout, Layout::Stream { .. });
    let mut spans: Vec<&[u8]> = Vec::new();
    let mut off = start;
    let mut terminator = None;
    loop {
        let rest = buf.get(off..).unwrap_or_default();
        match u32_at(rest, 0) {
            Some(0) => {
                terminator = Some(off);
                break;
            }
            _ => match split_frame(rest) {
                Some((frame, _)) => {
                    off += frame.len();
                    spans.push(frame);
                }
                None => {
                    // Torn or implausibly long: the rest of the buffer is one
                    // damaged frame, and nothing after it can be delimited.
                    if stream || !rest.is_empty() {
                        spans.push(rest);
                    }
                    break;
                }
            },
        }
    }
    let magic = |f: &[u8]| f.get(PREFIX_LEN..PREFIX_LEN + 4) == Some(parity::PARITY_MAGIC);
    let parity_at = |i: usize, f: &[u8], k: usize| match layout {
        Layout::Column { rowgroups } => i >= rowgroups,
        Layout::Stream { .. } => magic(f) || (k > 0 && i % (k + 1) == k),
    };
    let group_size = spans
        .iter()
        .enumerate()
        .filter(|&(i, f)| from_start && parity_at(i, f, 0))
        .find_map(|(_, f)| verified_body(f).and_then(parity::parse_parity_body))
        .map_or(0, |pb| pb.group_size);
    let frames = spans
        .into_iter()
        .enumerate()
        .map(|(i, f)| Frame {
            kind: if parity_at(i, f, group_size) { Kind::Parity } else { Kind::Data },
            bytes: Cow::Borrowed(f),
            restored: false,
        })
        .collect();
    Walk { frames, group_size, tabled: false, terminator }
}

/// Verifies and decodes every data frame of `walk` on up to `threads`
/// morsel workers, then rebuilds the single damaged data frame of any
/// parity group whose parity frame verifies. Returns one slot per data
/// frame, in order, and the indices of data frames that were repaired —
/// restored from the table or rebuilt from parity — sorted. Parity frames
/// are checksummed only for groups that need them.
pub(crate) fn recover<T: Send>(
    walk: &Walk<'_>,
    threads: usize,
    decode: impl Fn(&[u8]) -> Option<T> + Sync,
) -> (Vec<Option<T>>, Vec<usize>) {
    let data: Vec<&Frame<'_>> = walk.frames.iter().filter(|f| f.kind == Kind::Data).collect();
    let open = |frame: &[u8]| verified_body(frame).and_then(&decode);
    let mut slots =
        crate::par::map_morsels(threads, data.len(), || (), |(), i| open(&data.get(i)?.bytes));
    let mut repaired: Vec<usize> = (0..data.len())
        .filter(|&i| {
            data.get(i).is_some_and(|f| f.restored) && slots.get(i).is_some_and(Option::is_some)
        })
        .collect();
    let k = walk.group_size;
    let parity = walk.frames.iter().filter(|f| f.kind == Kind::Parity);
    for (g, pframe) in parity.enumerate().take_while(|_| k > 0) {
        let first = g * k;
        let damaged =
            |n: usize| (first..first + n).filter(|&i| slots.get(i).is_none_or(Option::is_none));
        if damaged(k.min(data.len().saturating_sub(first))).next().is_none() {
            continue;
        }
        let Some(pb) = verified_body(&pframe.bytes).and_then(parity::parse_parity_body) else {
            continue;
        };
        if pb.group_size != k || first + pb.count > data.len() {
            continue;
        }
        let GroupDamage::One(victim) = parity::group_damage(damaged(pb.count)) else { continue };
        let intact: Vec<&[u8]> = (first..first + pb.count)
            .filter(|&i| i != victim)
            .filter_map(|i| Some(&*data.get(i)?.bytes))
            .collect();
        // The rebuilt frame already matched its own checksum.
        let rebuilt = parity::try_repair_frame(pb.xor, &intact);
        let value = rebuilt.and_then(|f| decode(f.get(PREFIX_LEN..)?));
        if let (Some(value), Some(slot)) = (value, slots.get_mut(victim)) {
            *slot = Some(value);
            repaired.push(victim);
        }
    }
    repaired.sort_unstable();
    (slots, repaired)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode(&mut out, |o| o.extend_from_slice(body));
        out
    }

    /// Three data frames in one parity group of 3, stream-style, with tail.
    fn protected() -> (Vec<Vec<u8>>, Vec<u8>) {
        let frames: Vec<Vec<u8>> = [&[0u8, 1, 2][..], &[1u8; 9], &[0u8, 7]].map(framed).to_vec();
        let mut log = FrameLog::new(Some(3));
        let mut out = Vec::new();
        for f in &frames {
            out.extend_from_slice(f);
            if let Some(p) = log.data(f) {
                log.parity(&p);
                out.extend_from_slice(&p);
            }
        }
        log.write_tail(&mut out, 7, 3);
        assert_eq!(out.len(), frames.iter().map(Vec::len).sum::<usize>() + 43 + tail_len(4));
        (frames, out)
    }

    fn bodies(walk: &Walk<'_>) -> (Vec<Option<Vec<u8>>>, Vec<usize>) {
        recover(walk, 1, |b| Some(b.to_vec()))
    }

    #[test]
    fn table_walk_restores_a_lying_length_prefix() {
        let (frames, mut out) = protected();
        out[frames[0].len()] ^= 0x80; // frame 1's length prefix
        let walk = walk(&out, 0, Layout::Stream { from_start: true });
        assert!(walk.tabled);
        assert_eq!(walk.group_size, 3);
        let (slots, repaired) = bodies(&walk);
        assert_eq!(repaired, vec![1]);
        assert_eq!(slots[1].as_deref(), Some(&frames[1][PREFIX_LEN..]));
    }

    #[test]
    fn parity_rebuilds_the_one_damaged_frame_without_a_table() {
        let (frames, mut out) = protected();
        out[PREFIX_LEN + 1] ^= 0x10; // frame 0's body
        let cut = out.len() - 1; // table torn: positional walk
        let walk = walk(&out[..cut], 0, Layout::Stream { from_start: true });
        assert!(!walk.tabled);
        assert_eq!(walk.group_size, 3);
        let (slots, repaired) = bodies(&walk);
        assert_eq!(repaired, vec![0]);
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[0].as_deref(), Some(&frames[0][PREFIX_LEN..]));
    }

    #[test]
    fn a_damaged_table_never_verifies() {
        let (_, out) = protected();
        for i in 0..tail_len(4) - 4 - COMMIT_FOOTER_LEN {
            let mut bad = out.clone();
            let at = out.len() - 1 - i;
            bad[at] ^= 0x01;
            let walk = walk(&bad, 0, Layout::Stream { from_start: true });
            assert!(!walk.tabled, "flip at {at}");
        }
    }

    #[test]
    fn footer_roundtrips_and_rejects_damage() {
        let (frames, out) = protected();
        let at = frames.iter().map(Vec::len).sum::<usize>() + 43 + 4;
        let footer = read_footer(&out[at..]).unwrap();
        assert_eq!(footer, StreamFooter { values: 7, rowgroups: 3 });
        let mut bad = out[at..at + COMMIT_FOOTER_LEN].to_vec();
        bad[5] ^= 1;
        assert!(read_footer(&bad).is_none());
    }
}
