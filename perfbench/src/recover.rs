//! `recover`: the roundtrip columns written with `ParityConfig { group_size: 4 }`
//! as `"ALP2"` columns (`format::to_bytes_with_parity`) and as `"ALPT"` streams
//! (`ColumnWriter::with_parity`), damaged during set-up with one fault per
//! parity group, then read through the salvage paths:
//! `format::from_bytes_salvage` (+ `decompress` of what survived) and
//! `ColumnReader::next_rowgroup_salvaged`.
//!
//! The fault families are those of the repository's corruption harness: a
//! flipped byte inside a row-group body, a flipped bit in a frame's length
//! prefix, and a tail truncated inside the last row-group frame. Every
//! dataset gets every family in both layouts: 180 damaged reads per pass.
//!
//! Damaged paths never abort the run. A read counts as failed only when the
//! salvage reader returns an error instead of finishing its walk. A read that
//! finishes but misreports, returning values that differ from the row-groups
//! its loss report leaves or leaving intact + repaired + lost row-groups short
//! of the row-groups written, is a measured outcome: its values are left out
//! of `recovered_fraction`, its row-groups show in `salvage.*`, and the detail
//! line counts and lists it under `misreported_reads`.

use std::time::Instant;

use alp::format;
use alp::stream::{ColumnReader, ColumnWriter};
use alp::{Compressor, ParityConfig};

use crate::roundtrip::{Columns, ROWGROUP_VALUES};
use crate::stats::Rng;
use crate::trace::{ns_per, Recorder};
use crate::{record_trace_shares, repeated_setup, Args, Outcome, MIN_PASSES};

const PARITY: ParityConfig = ParityConfig { group_size: 4 };

/// Passes whose reads the tail latency is read from: 1080 samples, so the
/// tail is the 99th percentile in every run.
const TAIL_PASSES: usize = 6;

/// Bytes before the first frame: `"ALP2" | bits | len | rowgroups`.
const ALP2_HEADER: usize = 4 + 1 + 8 + 4;
/// Bytes before the first frame: `"ALPT" | bits`.
const ALPT_HEADER: usize = 4 + 1;
/// `len:u32 | xxh64:u64` before every frame body.
const FRAME_PREFIX: usize = 12;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    Alp2 = 0,
    Alpt = 1,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    BodyByte,
    LengthBit,
    TruncatedTail,
}

impl Layout {
    fn name(self) -> &'static str {
        match self {
            Layout::Alp2 => "alp2",
            Layout::Alpt => "alpt",
        }
    }
}

const FAULTS: [Fault; 3] = [Fault::BodyByte, Fault::LengthBit, Fault::TruncatedTail];

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::BodyByte => "body_byte",
            Fault::LengthBit => "length_bit",
            Fault::TruncatedTail => "truncated_tail",
        }
    }
}

/// A planned fault: the edit the damaged copy of a clean layout gets.
#[derive(Clone, Copy)]
enum Edit {
    Xor { at: usize, mask: u8 },
    Truncate { len: usize },
}

struct Case {
    layout: Layout,
    fault: Fault,
    dataset: usize,
    edit: Edit,
    /// Length of the damaged bytes.
    len: usize,
}

impl Case {
    /// Writes the damaged bytes into `buf`: the clean layout, edited.
    fn damage_into(&self, clean: &[u8], buf: &mut Vec<u8>) {
        buf.clear();
        match self.edit {
            Edit::Xor { at, mask } => {
                buf.extend_from_slice(clean);
                buf[at] ^= mask;
            }
            Edit::Truncate { len } => buf.extend_from_slice(&clean[..len]),
        }
    }
}

struct Setup {
    cols: Columns,
    /// Undamaged bytes of each dataset, `"ALP2"` then `"ALPT"`.
    clean: Vec<[Vec<u8>; 2]>,
    cases: Vec<Case>,
}

/// `(start, body_len)` of every data frame (parity frames skipped).
fn data_frames(bytes: &[u8], mut at: usize) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    while let Some(len) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes(len.try_into().expect("four bytes")) as usize;
        let end = at + FRAME_PREFIX + len;
        if len == 0 || end > bytes.len() {
            break;
        }
        if bytes.get(at + FRAME_PREFIX..at + FRAME_PREFIX + 4) != Some(b"ALPP") {
            frames.push((at, len));
        }
        at = end;
    }
    frames
}

/// Plans one fault in the single parity group of a four-row-group column.
/// Which frame, and which bit of a length prefix, follow the dataset index
/// `k` alone: every run damages each frame and each of the 32 prefix bits
/// about equally often, at the same places, because the salvage cost of a
/// length fault varies by orders of magnitude with where it lands. The seed
/// picks the damaged body byte and the truncation point.
fn plan(bytes: &[u8], header: usize, fault: Fault, k: usize, rng: &mut Rng) -> Edit {
    let frames = data_frames(bytes, header);
    assert_eq!(frames.len(), PARITY.group_size, "one full parity group per column");
    let (start, len) = frames[k % frames.len()];
    match fault {
        Fault::BodyByte => Edit::Xor { at: start + FRAME_PREFIX + rng.below(len), mask: 0xFF },
        Fault::LengthBit => {
            let bit = k * 32 / datagen::DATASETS.len();
            Edit::Xor { at: start + bit / 8, mask: 1 << (bit % 8) }
        }
        Fault::TruncatedTail => {
            let (start, len) = frames[frames.len() - 1];
            Edit::Truncate { len: start + FRAME_PREFIX + rng.below(len) }
        }
    }
}

fn build(seed: u64) -> Setup {
    let cols = Columns::generate(seed);
    let mut rng = Rng::new(seed ^ 0xDA3A6E);
    let mut clean = Vec::new();
    let mut cases = Vec::new();
    for (i, col) in cols.data.iter().enumerate() {
        let alp2 = format::to_bytes_with_parity(&Compressor::new().compress(col), PARITY)
            .expect("valid parity config");
        let mut alpt = Vec::new();
        let mut w =
            ColumnWriter::<f64, _>::with_parity(&mut alpt, PARITY).expect("valid parity config");
        w.push(col).expect("in-memory sink");
        w.finish().expect("in-memory sink");
        for (layout, bytes, header) in
            [(Layout::Alp2, &alp2, ALP2_HEADER), (Layout::Alpt, &alpt, ALPT_HEADER)]
        {
            for fault in FAULTS {
                let edit = plan(bytes, header, fault, i, &mut rng);
                let len = match edit {
                    Edit::Xor { .. } => bytes.len(),
                    Edit::Truncate { len } => len,
                };
                cases.push(Case { layout, fault, dataset: i, edit, len });
            }
        }
        clean.push([alp2, alpt]);
    }
    Setup { cols, clean, cases }
}

/// What one salvage read handed back.
#[derive(Default)]
struct Read {
    /// `"ALP2"`: the surviving column decompressed, and its row-group lengths.
    column: (Vec<f64>, Vec<usize>),
    /// `"ALPT"`: one value vector per returned row-group.
    groups: Vec<Vec<f64>>,
    lost: Vec<usize>,
    repaired: usize,
    /// The reader returned an error instead of finishing its walk.
    errored: bool,
}

impl Read {
    /// Values of every returned row-group, in file order.
    fn rowgroups(&self) -> Vec<&[f64]> {
        let (values, lens) = &self.column;
        let mut at = 0;
        let column = lens.iter().map(|&len| {
            let rg = values.get(at..at + len).unwrap_or(&[]);
            at += len;
            rg
        });
        column.chain(self.groups.iter().map(Vec::as_slice)).collect()
    }
}

fn salvage(bytes: &[u8], layout: Layout, mut rec: Option<&mut Recorder>) -> Read {
    let mut time = |name: &'static str, f: &mut dyn FnMut()| match rec.as_deref_mut() {
        Some(r) => r.time(name, f),
        None => f(),
    };
    match layout {
        Layout::Alp2 => {
            let mut res = None;
            time("format.salvage", &mut || res = Some(format::from_bytes_salvage::<f64>(bytes)));
            match res.expect("salvage ran") {
                Err(_) => Read { errored: true, ..Read::default() },
                Ok(s) => {
                    let lens = s.column.rowgroups.iter().map(|rg| rg.len()).collect();
                    let mut values = Vec::new();
                    time("rowgroup.decompress", &mut || values = s.column.decompress());
                    Read {
                        column: (values, lens),
                        lost: s.lost_rowgroups,
                        repaired: s.repaired_rowgroups.len(),
                        ..Read::default()
                    }
                }
            }
        }
        Layout::Alpt => {
            let mut opened = None;
            time("stream.open", &mut || opened = Some(ColumnReader::<f64, _>::new(bytes)));
            let mut reader = match opened.expect("open ran") {
                Ok(r) => r,
                Err(_) => return Read { errored: true, ..Read::default() },
            };
            let mut groups = Vec::new();
            let errored = loop {
                let mut next = None;
                time("stream.salvage", &mut || next = Some(reader.next_rowgroup_salvaged()));
                match next.expect("salvage ran") {
                    Ok(Some(values)) => groups.push(values),
                    Ok(None) => break false,
                    Err(_) => break true,
                }
            };
            let lost = reader.lost_rowgroups().to_vec();
            let repaired = reader.repaired_rowgroups().len();
            Read { groups, lost, repaired, errored, ..Read::default() }
        }
    }
}

/// Row-group accounting and value check of one read.
#[derive(Default, Clone, Copy)]
struct Verdict {
    recovered_values: usize,
    repaired: usize,
    lost: usize,
    unaccounted: usize,
    /// The reader returned an error: the read failed.
    errored: bool,
    /// What the read got wrong; empty when nothing.
    why: &'static str,
}

impl Verdict {
    fn misreported(&self) -> bool {
        !self.why.is_empty()
    }
}

fn judge(read: &Read, raw: &[f64]) -> Verdict {
    let written = raw.len().div_ceil(ROWGROUP_VALUES);
    let mut v = Verdict {
        repaired: read.repaired,
        lost: read.lost.len(),
        errored: read.errored,
        ..Verdict::default()
    };
    let returned = read.rowgroups();
    let accounted = returned.len() + read.lost.len();
    v.unaccounted = written.abs_diff(accounted);
    v.why = if read.errored {
        "read error"
    } else if v.unaccounted > 0 {
        "intact + repaired + lost != row-groups written"
    } else if read.lost.iter().any(|&i| i >= written) {
        "lost index beyond the row-groups written"
    } else {
        ""
    };
    let survivors = (0..written).filter(|i| !read.lost.contains(i));
    for (values, i) in returned.into_iter().zip(survivors) {
        let want = &raw[i * ROWGROUP_VALUES..((i + 1) * ROWGROUP_VALUES).min(raw.len())];
        if values.len() == want.len()
            && values.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
        {
            v.recovered_values += values.len();
        } else if v.why.is_empty() {
            v.why = "returned values differ from the row-groups the loss report leaves";
        }
    }
    v
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = repeated_setup(|| build(args.seed));
    out.setup_s = setup_s;
    let Setup { cols, clean, cases } = setup;
    out.tail_window = TAIL_PASSES * cases.len();
    let clean_bytes: usize = clean.iter().map(|[a, b]| a.len() + b.len()).sum();
    let values: usize = cols.data.iter().map(Vec::len).sum();
    out.bits_per_value = clean_bytes as f64 * 8.0 / (2 * values) as f64;
    // Every read is of a whole dataset: its values are what it should return.
    let written: usize = cases.iter().map(|c| cols.data[c.dataset].len()).sum();
    let damaged_bytes: usize = cases.iter().map(|c| c.len).sum();
    let bytes_of =
        |layout| cases.iter().filter(|c| c.layout == layout).map(|c| c.len).sum::<usize>();
    let (alp2_bytes, alpt_bytes) = (bytes_of(Layout::Alp2), bytes_of(Layout::Alpt));
    let clean_of = |c: &Case| &clean[c.dataset][c.layout as usize][..];
    let mut bytes = Vec::new();

    let mut rec = Recorder::new();
    let mut case_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut verdicts = vec![Verdict::default(); cases.len()];
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let deadline = args.deadline();
    let mut pass = 0usize;
    while pass < MIN_PASSES || Instant::now() < deadline {
        let mut pass_s = 0.0;
        for (k, case) in cases.iter().enumerate() {
            case.damage_into(clean_of(case), &mut bytes);
            let t0 = Instant::now();
            let read = salvage(&bytes, case.layout, None);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            verdicts[k] = judge(&read, &cols.data[case.dataset]);
            out.attempted += 1;
            out.failed += u64::from(verdicts[k].errored);
            out.op_ms.push(ms);
            case_ms[k].push(ms);
            pass_s += ms / 1e3;
        }
        out.pass_mbps.push(damaged_bytes as f64 / pass_s / 1e6);
        untraced_s.push(pass_s);
        if args.trace && rec.room_for_pass() {
            let mut total = 0.0;
            for (k, case) in cases.iter().enumerate() {
                case.damage_into(clean_of(case), &mut bytes);
                let t0 = Instant::now();
                rec.begin_op((pass * cases.len() + k) as u32, "op.salvage");
                let read = salvage(&bytes, case.layout, Some(&mut rec));
                rec.end();
                total += t0.elapsed().as_secs_f64();
                std::hint::black_box(&read);
            }
            traced_s.push(total);
        }
        pass += 1;
    }

    let total = verdicts.iter().fold(Verdict::default(), |a, v| Verdict {
        recovered_values: a.recovered_values + v.recovered_values,
        repaired: a.repaired + v.repaired,
        lost: a.lost + v.lost,
        unaccounted: a.unaccounted + v.unaccounted,
        ..Verdict::default()
    });
    out.recovered_fraction = total.recovered_values as f64 / written as f64;
    out.series("salvage_mbps", "MB/s", &out.pass_mbps.clone());
    out.ratio(
        "recovered_fraction",
        total.recovered_values as f64,
        written as f64,
        "values written",
    );
    let misreports: Vec<String> = cases
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| v.misreported())
        .map(|(c, v)| {
            format!(
                "{{\"read\": \"{}.{}\", \"dataset\": \"{}\", \"why\": \"{}\", \"lost\": {}, \"unaccounted\": {}}}",
                c.layout.name(),
                c.fault.name(),
                cols.names[c.dataset],
                v.why,
                v.lost,
                v.unaccounted
            )
        })
        .collect();
    out.ratio(
        "misreported_reads",
        misreports.len() as f64,
        cases.len() as f64,
        "damaged reads per pass",
    );
    out.detail.push(("misreported_reads_list".into(), format!("[{}]", misreports.join(", "))));
    // Per layout and fault family, so each known defect stays visible.
    for layout in [Layout::Alp2, Layout::Alpt] {
        for fault in FAULTS {
            let ks: Vec<usize> = (0..cases.len())
                .filter(|&k| cases[k].layout == layout && cases[k].fault == fault)
                .collect();
            let ms: Vec<f64> = ks.iter().flat_map(|&k| case_ms[k].iter().copied()).collect();
            let sum = |f: fn(&Verdict) -> usize| ks.iter().map(|&k| f(&verdicts[k])).sum::<usize>();
            let base: usize = ks.iter().map(|&k| cols.data[cases[k].dataset].len()).sum();
            out.detail.push((
                format!("{}.{}", layout.name(), fault.name()),
                format!(
                    "{{\"reads\": {}, \"misreported\": {}, \"recovered_fraction\": {}, \"repaired\": {}, \"lost\": {}, \"unaccounted\": {}, \"op_ms\": {}}}",
                    ks.len(),
                    ks.iter().filter(|&&k| verdicts[k].misreported()).count(),
                    crate::num(sum(|v| v.recovered_values) as f64 / base.max(1) as f64),
                    sum(|v| v.repaired),
                    sum(|v| v.lost),
                    sum(|v| v.unaccounted),
                    crate::series_json("ms", &ms)
                ),
            ));
        }
    }

    if args.trace && !traced_s.is_empty() {
        let s = rec.summarize();
        let passes = traced_s.len() as f64;
        let l = &mut out.layers;
        let alp2_ns = ns_per(&s, "format.salvage", alp2_bytes as f64 * passes);
        l.insert("format.salvage_ns_per_byte", alp2_ns);
        let alpt_ns = ns_per(&s, "stream.salvage", alpt_bytes as f64 * passes);
        l.insert("stream.salvage_ns_per_byte", alpt_ns);
        l.insert("salvage.repaired_rowgroups", total.repaired as f64);
        l.insert("salvage.lost_rowgroups", total.lost as f64);
        l.insert("salvage.unaccounted_rowgroups", total.unaccounted as f64);
        record_trace_shares(&mut out, &s, "op.salvage", &untraced_s, &traced_s);
        if let Err(e) = rec.write_tsv(&args.spans_path()) {
            out.error.get_or_insert(format!("writing spans: {e}"));
        }
    }
    out
}
