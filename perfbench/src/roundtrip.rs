//! `roundtrip`: every Table-1 dataset at one column length, written and read
//! back through the CLI's three paths — `compress` (`Compressor::compress` +
//! `format::to_bytes`), `compress --stream` (`PipelinedColumnWriter`), and
//! `decompress` (strict `format::from_bytes` + `decompress`).
//!
//! One operation is one column through all three paths. The traced pass
//! re-composes each path from the layer functions the library composes
//! (level-1/level-2 sampling, `encode_vector_into` or ALP_rd, `write_rowgroup`
//! plus XXH64 framing, `read_rowgroup`, `decode_vector`/`decode_rd_vector`)
//! and checks that the re-composed bytes equal `format::to_bytes`.

use std::hint::black_box;
use std::time::Instant;

use alp::decode::decode_vector;
use alp::encode::{encode_vector_into, ExcArena};
use alp::format;
use alp::hash::{xxh64, CHECKSUM_SEED};
use alp::pipeline::{PipelineConfig, PipelinedColumnWriter};
use alp::rd::{choose_cut, decode_rd_vector, encode_rd_vector};
use alp::sampler::{first_level, second_level, SamplerParams, SamplerStats};
use alp::stream::ColumnWriter;
use alp::{AlpGroup, Compressor, RowGroup, VECTOR_SIZE};

use crate::stats::{self, dataset_seed};
use crate::trace::{ns_per, Recorder};
use crate::{record_trace_shares, repeated_setup, Args, Outcome, MIN_PASSES};

/// Values per row-group under the default sampling parameters.
pub const ROWGROUP_VALUES: usize = 100 * VECTOR_SIZE;

/// Column length of every dataset: four full row-groups (3.1 MiB of f64),
/// so the 30 columns are ~94 MiB of input per pass and one parity group of
/// four in the `recover` workload.
pub const COLUMN_VALUES: usize = 4 * ROWGROUP_VALUES;

/// Values per `push`, as the CLI's `compress --stream` feeds its writer.
const PUSH_CHUNK: usize = 64 * 1024;

/// Passes whose operations the tail latency is read from: 1020 samples, so
/// the tail is the 99th percentile in every run.
const TAIL_PASSES: usize = 34;

/// The ingest pipeline: the host has two cores, so at most two threads.
const PIPELINE: PipelineConfig = PipelineConfig { threads: 2, depth: 2, panic_at: None };

/// The 30 generated columns of one seed.
pub struct Columns {
    pub names: Vec<&'static str>,
    pub data: Vec<Vec<f64>>,
}

impl Columns {
    pub fn generate(seed: u64) -> Self {
        let (names, data) = datagen::DATASETS
            .iter()
            .enumerate()
            .map(|(i, d)| {
                (d.name, datagen::generate_spec(&d.spec, COLUMN_VALUES, dataset_seed(seed, i)))
            })
            .unzip();
        Self { names, data }
    }

    pub fn raw_bytes(&self) -> f64 {
        self.data.iter().map(|c| c.len() * 8).sum::<usize>() as f64
    }
}

/// Reference outputs, built once after set-up and outside every timer.
struct Refs {
    /// `format::to_bytes(Compressor::compress(column))`.
    alp2: Vec<Vec<u8>>,
    /// The serial `ColumnWriter` stream the pipelined writer must equal.
    alpt: Vec<Vec<u8>>,
}

impl Refs {
    fn build(cols: &Columns) -> Result<Self, String> {
        let mut alp2 = Vec::new();
        let mut alpt = Vec::new();
        for col in &cols.data {
            alp2.push(format::to_bytes(&Compressor::new().compress(col)));
            let mut stream = Vec::new();
            let mut w = ColumnWriter::<f64, _>::new(&mut stream);
            for chunk in col.chunks(PUSH_CHUNK) {
                w.push(chunk).map_err(|e| format!("serial stream: {e}"))?;
            }
            w.finish().map_err(|e| format!("serial stream: {e}"))?;
            alpt.push(stream);
        }
        Ok(Self { alp2, alpt })
    }
}

/// Seconds spent in each path for one column.
struct ColumnTimes {
    compress: f64,
    ingest: f64,
    decompress: f64,
}

impl ColumnTimes {
    fn total(&self) -> f64 {
        self.compress + self.ingest + self.decompress
    }
}

fn bit_exact(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn ingest(col: &[f64], stream: &mut Vec<u8>) -> Result<(), String> {
    stream.clear();
    let mut w = PipelinedColumnWriter::<f64, _>::new(&mut *stream, PIPELINE);
    for chunk in col.chunks(PUSH_CHUNK) {
        w.push(chunk).map_err(|e| format!("pipelined ingest: {e:?}"))?;
    }
    w.finish().map_err(|e| format!("pipelined ingest: {e:?}"))?;
    Ok(())
}

/// One column through the three library paths, untraced.
fn column_untraced(
    name: &str,
    col: &[f64],
    refs: (&[u8], &[u8]),
    stream: &mut Vec<u8>,
) -> Result<ColumnTimes, String> {
    let t0 = Instant::now();
    let bytes = format::to_bytes(&Compressor::new().compress(black_box(col)));
    let t1 = Instant::now();
    ingest(col, stream)?;
    let t2 = Instant::now();
    let back = format::from_bytes::<f64>(black_box(&bytes))
        .map_err(|e| format!("{name}: from_bytes: {e}"))?
        .decompress();
    let t3 = Instant::now();
    if bytes != refs.0 {
        return Err(format!("{name}: to_bytes differs between runs of the same input"));
    }
    if stream[..] != *refs.1 {
        return Err(format!(
            "{name}: pipelined stream differs from the serial ColumnWriter stream"
        ));
    }
    if !bit_exact(&back, col) {
        return Err(format!("{name}: decompress is not bit-exact"));
    }
    Ok(ColumnTimes {
        compress: (t1 - t0).as_secs_f64(),
        ingest: (t2 - t1).as_secs_f64(),
        decompress: (t3 - t2).as_secs_f64(),
    })
}

/// Work counted during traced passes: the denominators of the layer metrics.
#[derive(Default)]
struct Counts {
    values: u64,
    alp_values: u64,
    rd_values: u64,
    rowgroups: u64,
    rd_rowgroups: u64,
    exceptions: u64,
    hashed_bytes: u64,
    stats: SamplerStats,
    finish_ms: Vec<f64>,
}

/// `Compressor::compress`, re-composed from the sampler, encode and rd layers.
fn compress_traced(rec: &mut Recorder, col: &[f64], n: &mut Counts) -> Vec<RowGroup> {
    let params = SamplerParams::default();
    let mut rowgroups = Vec::new();
    for rg in col.chunks(ROWGROUP_VALUES) {
        n.rowgroups += 1;
        let outcome = rec.time("sampler.first_level", || first_level(rg, &params));
        if outcome.should_use_rd::<f64>() {
            n.rd_rowgroups += 1;
            n.rd_values += rg.len() as u64;
            let sample = params.sample_vectors * params.sample_values;
            let meta = rec.time("rd.choose_cut", || choose_cut::<f64>(rg, sample));
            let mut vectors = Vec::with_capacity(rg.len().div_ceil(VECTOR_SIZE));
            for chunk in rg.chunks(VECTOR_SIZE) {
                vectors.push(rec.time("rd.encode", || encode_rd_vector(chunk, &meta)));
            }
            rowgroups.push(RowGroup::Rd(meta, vectors));
        } else {
            n.alp_values += rg.len() as u64;
            let mut group = AlpGroup {
                vectors: Vec::with_capacity(rg.len().div_ceil(VECTOR_SIZE)),
                exceptions: ExcArena::new(),
            };
            for chunk in rg.chunks(VECTOR_SIZE) {
                let combo = rec.time("sampler.second_level", || {
                    second_level(chunk, &outcome.combinations, &params, &mut n.stats)
                });
                let v = rec.time("encode.vector", || {
                    encode_vector_into(chunk, combo.e, combo.f, &mut group.exceptions)
                });
                n.exceptions += v.exception_count() as u64;
                group.vectors.push(v);
            }
            rowgroups.push(RowGroup::Alp(group));
        }
    }
    rowgroups
}

/// `format::to_bytes`, re-composed: header, then per row-group
/// `len | xxh64 | write_rowgroup body`.
fn serialize_traced(rec: &mut Recorder, rgs: &[RowGroup], len: usize, n: &mut Counts) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(format::MAGIC);
    out.push(64);
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out.extend_from_slice(&(rgs.len() as u32).to_le_bytes());
    let mut body = Vec::new();
    for rg in rgs {
        body.clear();
        rec.time("format.write", || format::write_rowgroup::<f64>(&mut body, rg));
        let checksum = rec.time("hash.xxh64", || xxh64(&body, CHECKSUM_SEED));
        n.hashed_bytes += body.len() as u64;
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
    if buf.len() < n {
        return Err("ALP2 bytes end early".into());
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn le_u64(b: &[u8]) -> u64 {
    b.iter().rev().fold(0, |acc, &x| (acc << 8) | u64::from(x))
}

/// Strict `format::from_bytes` + `decompress`, re-composed: checksum check,
/// `read_rowgroup`, then one decode call per vector.
fn read_traced(rec: &mut Recorder, bytes: &[u8], n: &mut Counts) -> Result<Vec<f64>, String> {
    let mut buf = bytes;
    let header = take(&mut buf, 4 + 1 + 8 + 4)?;
    if &header[..4] != format::MAGIC || header[4] != 64 {
        return Err("not an ALP2 f64 column".into());
    }
    let len = le_u64(&header[5..13]) as usize;
    let rowgroups = le_u64(&header[13..17]);
    let mut out = Vec::with_capacity(len);
    let mut scratch = vec![0.0f64; VECTOR_SIZE];
    for _ in 0..rowgroups {
        let prefix = take(&mut buf, 12)?;
        let body = take(&mut buf, le_u64(&prefix[..4]) as usize)?;
        let checksum = rec.time("hash.xxh64", || xxh64(body, CHECKSUM_SEED));
        n.hashed_bytes += body.len() as u64;
        if checksum != le_u64(&prefix[4..]) {
            return Err("row-group checksum mismatch".into());
        }
        let mut slice = body;
        let rg = rec
            .time("format.read", || format::read_rowgroup::<f64>(&mut slice))
            .map_err(|e| format!("read_rowgroup: {e}"))?;
        if !slice.is_empty() {
            return Err("row-group body longer than its row-group".into());
        }
        match &rg {
            RowGroup::Alp(g) => {
                for v in &g.vectors {
                    let k = rec.time("decode.alp", || decode_vector(v, g.view(v), &mut scratch));
                    out.extend_from_slice(&scratch[..k]);
                }
            }
            RowGroup::Rd(meta, vectors) => {
                for v in vectors {
                    let k = rec.time("decode.rd", || decode_rd_vector(v, meta, &mut scratch));
                    out.extend_from_slice(&scratch[..k]);
                }
            }
        }
    }
    if out.len() != len {
        return Err("column length differs from its header".into());
    }
    Ok(out)
}

/// One column through the three paths, re-composed and traced. Returns the
/// operation time (its root span).
fn column_traced(
    rec: &mut Recorder,
    run: u32,
    name: &str,
    col: &[f64],
    refs: (&[u8], &[u8]),
    stream: &mut Vec<u8>,
    n: &mut Counts,
) -> Result<f64, String> {
    let t0 = Instant::now();
    rec.begin_op(run, "op.roundtrip");
    let rgs = compress_traced(rec, col, n);
    let bytes = serialize_traced(rec, &rgs, col.len(), n);
    stream.clear();
    let mut w =
        rec.time("pipeline.new", || PipelinedColumnWriter::<f64, _>::new(&mut *stream, PIPELINE));
    let mut pushed = Ok(());
    for chunk in col.chunks(PUSH_CHUNK) {
        pushed = rec.time("pipeline.push", || w.push(chunk));
        if pushed.is_err() {
            break;
        }
    }
    let t_finish = Instant::now();
    let finished = rec.time("pipeline.finish", move || w.finish());
    let finish_ms = t_finish.elapsed().as_secs_f64() * 1e3;
    let back = read_traced(rec, &bytes, n);
    rec.end();
    let op_s = t0.elapsed().as_secs_f64();

    pushed.map_err(|e| format!("{name}: traced ingest: {e:?}"))?;
    finished.map_err(|e| format!("{name}: traced ingest: {e:?}"))?;
    let back = back.map_err(|e| format!("{name}: traced read: {e}"))?;
    if bytes != refs.0 {
        return Err(format!("{name}: traced re-composition differs from format::to_bytes"));
    }
    if stream[..] != *refs.1 {
        return Err(format!(
            "{name}: pipelined stream differs from the serial ColumnWriter stream"
        ));
    }
    if !bit_exact(&back, col) {
        return Err(format!("{name}: traced decode is not bit-exact"));
    }
    n.values += col.len() as u64;
    n.finish_ms.push(finish_ms);
    Ok(op_s)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (cols, setup_s) = repeated_setup(|| Columns::generate(args.seed));
    out.tail_window = TAIL_PASSES * cols.data.len();
    out.setup_s = setup_s;
    let refs = match Refs::build(&cols) {
        Ok(r) => r,
        Err(e) => {
            out.error = Some(e);
            return out;
        }
    };
    let raw = cols.raw_bytes();
    let stored: usize = refs.alp2.iter().map(Vec::len).sum();
    let values = cols.data.iter().map(Vec::len).sum::<usize>() as f64;
    out.bits_per_value = stored as f64 * 8.0 / values;

    let mut stream = Vec::new();
    let mut rec = Recorder::new();
    let mut n = Counts::default();
    let (mut compress, mut ingest_mbps, mut decompress) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut checked_values = 0usize;

    let result = (|| -> Result<(), String> {
        // Warm-up pass: checked, not timed.
        for (i, col) in cols.data.iter().enumerate() {
            column_untraced(cols.names[i], col, (&refs.alp2[i], &refs.alpt[i]), &mut stream)?;
        }
        let deadline = args.deadline();
        let mut pass = 0usize;
        while pass < MIN_PASSES || Instant::now() < deadline {
            let mut t = ColumnTimes { compress: 0.0, ingest: 0.0, decompress: 0.0 };
            for (i, col) in cols.data.iter().enumerate() {
                out.attempted += 3;
                let c = column_untraced(
                    cols.names[i],
                    col,
                    (&refs.alp2[i], &refs.alpt[i]),
                    &mut stream,
                )?;
                checked_values += col.len();
                out.op_ms.push(c.total() * 1e3);
                t.compress += c.compress;
                t.ingest += c.ingest;
                t.decompress += c.decompress;
            }
            compress.push(raw / t.compress / 1e6);
            ingest_mbps.push(raw / t.ingest / 1e6);
            decompress.push(raw / t.decompress / 1e6);
            out.pass_mbps.push(raw / t.total() / 1e6);
            untraced_s.push(t.total());
            if args.trace && rec.room_for_pass() {
                let mut total = 0.0;
                for (i, col) in cols.data.iter().enumerate() {
                    let run = (pass * cols.data.len() + i) as u32;
                    let refs = (&refs.alp2[i][..], &refs.alpt[i][..]);
                    total += column_traced(
                        &mut rec,
                        run,
                        cols.names[i],
                        col,
                        refs,
                        &mut stream,
                        &mut n,
                    )?;
                }
                traced_s.push(total);
            }
            pass += 1;
        }
        Ok(())
    })();
    out.error = result.err();
    // Every pass checks every value, and a mismatch ends the run: what a
    // finished run counts came back bit-exact.
    out.recovered_fraction = 1.0;
    out.series("compress_mbps", "MB/s", &compress);
    out.series("ingest_mbps", "MB/s", &ingest_mbps);
    out.series("decompress_mbps", "MB/s", &decompress);
    out.ratio("bits_per_value", stored as f64 * 8.0, values, "values written");
    let checked = checked_values as f64;
    out.ratio("recovered_fraction", checked, checked, "values written and checked");
    out.detail.push(("columns".into(), format!("{}", cols.data.len())));
    out.detail.push(("column_values".into(), format!("{COLUMN_VALUES}")));

    if args.trace && !traced_s.is_empty() {
        layer_metrics(&mut out, &rec, &n, &untraced_s, &traced_s);
        if let Err(e) = rec.write_tsv(&args.spans_path()) {
            out.error.get_or_insert(format!("writing spans: {e}"));
        }
    }
    out
}

fn layer_metrics(out: &mut Outcome, rec: &Recorder, n: &Counts, untraced: &[f64], traced: &[f64]) {
    let s = rec.summarize();
    let (values, alp, rd) = (n.values as f64, n.alp_values as f64, n.rd_values as f64);
    let tried: usize = n.stats.combinations_tried.iter().sum();
    let tried_weighted: usize =
        n.stats.combinations_tried.iter().enumerate().map(|(k, c)| k * c).sum();
    let l = &mut out.layers;
    l.insert("sampler.first_level_ns_per_value", ns_per(&s, "sampler.first_level", values));
    l.insert("sampler.second_level_ns_per_value", ns_per(&s, "sampler.second_level", alp));
    l.insert("encode.vector_ns_per_value", ns_per(&s, "encode.vector", alp));
    l.insert("rd.choose_cut_ns_per_value", ns_per(&s, "rd.choose_cut", rd));
    l.insert("rd.encode_ns_per_value", ns_per(&s, "rd.encode", rd));
    l.insert("format.write_ns_per_value", ns_per(&s, "format.write", values));
    l.insert("hash.xxh64_ns_per_byte", ns_per(&s, "hash.xxh64", n.hashed_bytes as f64));
    l.insert("format.read_ns_per_value", ns_per(&s, "format.read", values));
    l.insert("decode.alp_ns_per_value", ns_per(&s, "decode.alp", alp));
    l.insert("decode.rd_ns_per_value", ns_per(&s, "decode.rd", rd));
    l.insert("pipeline.push_ns_per_value", ns_per(&s, "pipeline.push", values));
    l.insert("pipeline.finish_ms", stats::median(&n.finish_ms));
    let vectors = "vectors encoded with ALP";
    out.layer_ratio(
        "sampler.combinations_tried_mean",
        tried_weighted as f64,
        tried as f64,
        vectors,
    );
    let exceptions = n.exceptions as f64;
    out.layer_ratio("encode.exception_rate", exceptions, alp, "values in ALP row-groups");
    let rgs = (n.rd_rowgroups as f64, n.rowgroups as f64);
    out.layer_ratio("rowgroup.rd_share", rgs.0, rgs.1, "row-groups");
    record_trace_shares(out, &s, "op.roundtrip", untraced, traced);
}
