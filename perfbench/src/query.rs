//! `scan` and `serve`: the 30 datasets concatenated into one ~129 MiB store
//! (about twice the default 64 MiB page-cache ceiling), queried by two
//! closed-loop clients with `Service::sum_where` predicates of 0.1% to 100%
//! selectivity, one worker thread per query.
//!
//! `scan` disables the page cache as the CLI `query` command does, so every
//! overlapping page runs the fused compressed-domain kernels. `serve` keeps
//! the default `CacheConfig`: misses materialize and are admitted under LRU,
//! and later queries hit. Every result is checked bit-for-bit against a
//! reference folded from the raw values in the service's documented order
//! (vector chain, then page order).
//!
//! The traced pass re-composes each query page by page from the public
//! pieces `Store::execute_page` is made of — zone maps, `PageCache`,
//! `Column::try_scan_vector_fused`, `Column::try_decompress_vector_at` and
//! `alp::scan_decoded` — on one thread, with its own cache of the same
//! configuration.

use std::sync::Arc;
use std::time::Instant;

use alp::{VectorScan, VECTOR_SIZE};
use alp_core::Scratch;
use vectorq::cache::{CacheConfig, PageCache};
use vectorq::service::{QueryOptions, QueryResult, Service, ServiceConfig, Store};
use vectorq::{Column, Format};

use crate::roundtrip::ROWGROUP_VALUES;
use crate::stats::{dataset_seed, Rng};
use crate::trace::{ns_per, Recorder};
use crate::{record_trace_shares, repeated_setup, Args, Outcome, MIN_PASSES};

/// Values per dataset: 5.5 row-groups, so the 30 datasets make a 16.9 M-value
/// (129 MiB decoded) store, 2.0× the default cache's 64 MiB ceiling.
const DATASET_VALUES: usize = ROWGROUP_VALUES * 11 / 2;

/// Predicates per query list (one pass).
const QUERIES: usize = 64;

/// Full-range predicates among them: 3 of 64 (4.7%) puts the 98th-percentile
/// tail inside the full-range queries rather than on the edge between them
/// and the next-widest ones.
const FULL_RANGE: usize = 3;

/// Passes whose queries the tail latency is read from: 640 samples, so the
/// tail is the 98th percentile in every run.
const TAIL_PASSES: usize = 10;

/// Closed-loop clients; client `c` runs queries `c, c + CLIENTS, ...` in order.
const CLIENTS: usize = 2;

/// Values sampled to place predicate bounds at target selectivities.
const QUANTILE_SAMPLE: usize = 1 << 16;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Scan,
    Serve,
}

impl Mode {
    fn cache(self) -> CacheConfig {
        match self {
            Mode::Scan => CacheConfig { max_entries: 0, ..CacheConfig::default_config() },
            Mode::Serve => CacheConfig::default_config(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Scan => "scan",
            Mode::Serve => "serve",
        }
    }
}

#[derive(Clone, Copy)]
struct Predicate {
    lo: f64,
    hi: f64,
    /// Target selectivity the bounds were placed for.
    selectivity: f64,
}

/// Expected result of one predicate.
#[derive(Clone, Copy)]
struct Expected {
    sum_bits: u64,
    matches: usize,
}

struct Setup {
    service: Service,
    /// Decoded values, kept until the references are folded.
    data: Vec<f64>,
}

fn build(seed: u64, mode: Mode) -> Setup {
    let mut data = Vec::with_capacity(DATASET_VALUES * datagen::DATASETS.len());
    for (i, d) in datagen::DATASETS.iter().enumerate() {
        data.extend(datagen::generate_spec(&d.spec, DATASET_VALUES, dataset_seed(seed, i)));
    }
    let column = Column::from_f64(&data, Format::alp());
    let store = Arc::new(Store::new(column, mode.cache()));
    let config = ServiceConfig { max_concurrent: CLIENTS, max_queued: CLIENTS, threads: 1 };
    Setup { service: Service::new(store, config), data }
}

/// Seed of the query list itself, the same in every run: only the bounds
/// move with `--seed`, because they sit at quantiles of the seeded data.
const LIST_SEED: u64 = 0x5EED;

/// The fixed query list: selectivities stratified on a log scale from 0.1%
/// to 100%, each placed at a fixed quantile offset, plus [`FULL_RANGE`]
/// full-range predicates. Bounds are read from a sorted sample of the
/// store's values; the order is shuffled so both clients mix narrow and wide
/// queries.
fn predicates(data: &[f64], seed: u64) -> Vec<Predicate> {
    let mut rng = Rng::new(seed);
    let mut sample: Vec<f64> =
        (0..QUANTILE_SAMPLE).map(|_| data[rng.below(data.len())]).filter(|v| !v.is_nan()).collect();
    sample.sort_by(f64::total_cmp);
    let mut list_rng = Rng::new(LIST_SEED);
    let ranged = QUERIES - FULL_RANGE;
    let mut list: Vec<Predicate> = (0..ranged)
        .map(|i| {
            let s = 10f64.powf(-3.0 + 3.0 * (i as f64 + list_rng.unit()) / ranged as f64);
            let k = ((s * sample.len() as f64).round() as usize).clamp(1, sample.len());
            let start = ((sample.len() - k) as f64 * list_rng.unit()) as usize;
            Predicate { lo: sample[start], hi: sample[start + k - 1], selectivity: s }
        })
        .collect();
    let full = Predicate { lo: f64::NEG_INFINITY, hi: f64::INFINITY, selectivity: 1.0 };
    list.resize(QUERIES, full);
    for i in (1..list.len()).rev() {
        list.swap(i, list_rng.below(i + 1));
    }
    list
}

/// Folds every predicate's sum from the raw values in the service's order:
/// a chain per vector, vectors added in order into a per-page partial, page
/// partials added in page order. Vectors whose range misses the predicate
/// contribute nothing, exactly as zone-map pruning skips them.
fn references(data: &[f64], preds: &[Predicate], rows_per_page: usize) -> Vec<Expected> {
    let ranges: Vec<(f64, f64)> = data
        .chunks(VECTOR_SIZE)
        .map(|v| {
            v.iter()
                .filter(|x| !x.is_nan())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
        })
        .collect();
    let vectors_per_page = rows_per_page / VECTOR_SIZE;
    preds
        .iter()
        .map(|p| {
            let mut total = 0.0f64;
            let mut matches = 0usize;
            for (page_no, page) in data.chunks(rows_per_page).enumerate() {
                let mut page_sum = 0.0f64;
                for (k, v) in page.chunks(VECTOR_SIZE).enumerate() {
                    let (min, max) = ranges[page_no * vectors_per_page + k];
                    if !(min <= max && min <= p.hi && max >= p.lo) {
                        continue;
                    }
                    let mut chain = 0.0f64;
                    for &x in v {
                        let hit = x >= p.lo && x <= p.hi;
                        chain += if hit { x } else { 0.0 };
                        matches += usize::from(hit);
                    }
                    page_sum += chain;
                }
                total += page_sum;
            }
            Expected { sum_bits: total.to_bits(), matches }
        })
        .collect()
}

fn check(mode: Mode, i: usize, sum: f64, matches: usize, want: Expected) -> Result<(), String> {
    if sum.to_bits() != want.sum_bits || matches != want.matches {
        return Err(format!(
            "{}: query {i} returned sum {sum:e} ({matches} matches), reference {:e} ({} matches)",
            mode.name(),
            f64::from_bits(want.sum_bits),
            want.matches
        ));
    }
    Ok(())
}

/// Service counters summed over the measured passes.
#[derive(Default)]
struct Served {
    queries: u64,
    pages_fused: u64,
    pages_materialized: u64,
    vectors_skipped: u64,
    vectors_visited: u64,
}

/// A client's record of one query: list index, latency in ms, result.
type Answer = (usize, f64, Result<QueryResult, String>);

/// One pass of the query list by the closed-loop clients. Returns the pass
/// wall time; latencies of completed queries go to `latencies`.
fn pass(
    mode: Mode,
    service: &Service,
    preds: &[Predicate],
    want: &[Expected],
    latencies: &mut Vec<f64>,
    served: &mut Served,
    failed: &mut u64,
) -> Result<f64, String> {
    let opts = QueryOptions { threads: Some(1), ..QueryOptions::default() };
    let t0 = Instant::now();
    let per_client: Vec<Vec<Answer>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    (c..preds.len())
                        .step_by(CLIENTS)
                        .map(|i| {
                            let t = Instant::now();
                            let r = service.sum_where(preds[i].lo, preds[i].hi, &opts);
                            (i, t.elapsed().as_secs_f64() * 1e3, r.map_err(|e| format!("{e:?}")))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query client panicked")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    for (i, ms, r) in per_client.into_iter().flatten() {
        match r {
            // A refused or abandoned query is a failed operation, not a
            // wrong answer.
            Err(_) => *failed += 1,
            Ok(r) => {
                check(mode, i, r.value.sum, r.value.matches, want[i])?;
                if !r.loss.is_complete() {
                    return Err(format!("{}: query {i} lost pages on a clean store", mode.name()));
                }
                latencies.push(ms);
                served.queries += 1;
                served.pages_fused += r.pages_fused as u64;
                served.pages_materialized += r.pages_materialized as u64;
                served.vectors_skipped += r.value.vectors_skipped as u64;
                served.vectors_visited +=
                    (r.value.vectors_skipped + r.value.vectors_scanned) as u64;
            }
        }
    }
    Ok(wall)
}

/// Work counted during traced passes.
#[derive(Default)]
struct Counts {
    fused_values: u64,
    materialized_values: u64,
}

/// Page-by-page re-composition of `Store::execute_page` for one query.
struct Tracer {
    cache: PageCache,
    scratch: Scratch,
    vec_buf: Vec<f64>,
    page_buf: Vec<f64>,
    rows_per_page: usize,
}

impl Tracer {
    fn new(config: &CacheConfig) -> Self {
        Self {
            cache: PageCache::new(config),
            scratch: Scratch::new(),
            vec_buf: Vec::new(),
            page_buf: Vec::new(),
            rows_per_page: config.rows_per_page(),
        }
    }

    fn query(
        &mut self,
        rec: &mut Recorder,
        column: &Column,
        p: Predicate,
        n: &mut Counts,
    ) -> Result<(f64, usize), String> {
        let zones = column.zone_maps();
        let vectors_per_page = self.rows_per_page / VECTOR_SIZE;
        let mut total = 0.0f64;
        let mut matches = 0usize;
        let vec_len = |v: usize| column.len().saturating_sub(v * VECTOR_SIZE).min(VECTOR_SIZE);
        for v0 in (0..zones.len()).step_by(vectors_per_page) {
            let page = v0 / vectors_per_page;
            let v1 = (v0 + vectors_per_page).min(zones.len());
            let overlapping =
                rec.time("zonemap.page", || zones[v0..v1].iter().any(|z| z.overlaps(p.lo, p.hi)));
            if !overlapping {
                continue;
            }
            let mut page_sum = 0.0f64;
            let cached = rec.time("cache.get", || self.cache.get(page));
            let page_bytes = (v0..v1).map(vec_len).sum::<usize>() * 8;
            let values = match cached {
                Some(values) => Some(values),
                None if !self.cache.would_admit(page_bytes) && column.supports_fused_scan() => {
                    for (v, zone) in (v0..v1).zip(&zones[v0..v1]) {
                        if !zone.overlaps(p.lo, p.hi) {
                            continue;
                        }
                        let scan = rec
                            .time("decode.scan_fused", || {
                                column.try_scan_vector_fused(v, p.lo, p.hi, &mut self.scratch)
                            })
                            .map_err(|e| format!("fused scan of vector {v}: {e}"))?
                            .ok_or("ALP storage has no fused kernel")?;
                        n.fused_values += vec_len(v) as u64;
                        page_sum += scan.sum;
                        matches += scan.matches;
                    }
                    None
                }
                None => {
                    self.page_buf.clear();
                    for v in v0..v1 {
                        rec.time("decode.materialize", || {
                            column.try_decompress_vector_at(v, &mut self.vec_buf, &mut self.scratch)
                        })
                        .map_err(|e| format!("materializing vector {v}: {e}"))?;
                        n.materialized_values += self.vec_buf.len() as u64;
                        self.page_buf.extend_from_slice(&self.vec_buf);
                    }
                    let values = Arc::new(std::mem::take(&mut self.page_buf));
                    rec.time("cache.insert", || self.cache.insert(page, Arc::clone(&values)));
                    Some(values)
                }
            };
            if let Some(values) = values {
                let mut offset = 0;
                for (v, zone) in (v0..v1).zip(&zones[v0..v1]) {
                    let len = vec_len(v);
                    let slice = values.get(offset..offset + len).ok_or("cached page too short")?;
                    offset += len;
                    if !zone.overlaps(p.lo, p.hi) {
                        continue;
                    }
                    let mut scan = VectorScan::empty(len);
                    rec.time("decode.scan_decoded", || {
                        alp::scan_decoded(slice, p.lo, p.hi, false, &mut scan)
                    });
                    page_sum += scan.sum;
                    matches += scan.matches;
                }
            }
            total += page_sum;
        }
        Ok((total, matches))
    }
}

pub fn run(args: &Args, mode: Mode) -> Outcome {
    let mut out = Outcome { tail_window: TAIL_PASSES * QUERIES, ..Outcome::default() };
    let (setup, setup_s) = repeated_setup(|| build(args.seed, mode));
    out.setup_s = setup_s;
    let Setup { service, data } = setup;
    let rows_per_page = mode.cache().rows_per_page();
    let preds = predicates(&data, args.seed);
    let want = references(&data, &preds, rows_per_page);
    let raw_bytes = (data.len() * 8) as f64;
    let rows = data.len() as f64;
    drop(data);
    let column = service.store().column();
    out.bits_per_value = column.compressed_bytes() as f64 * 8.0 / rows;

    let mut rec = Recorder::new();
    let mut tracer = Tracer::new(&mode.cache());
    let mut n = Counts::default();
    let mut served = Served::default();
    let mut qps = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut cache_before = service.cache_stats();

    let result = (|| -> Result<(), String> {
        if mode == Mode::Serve {
            // Warm-up pass that fills the page cache: checked, not timed.
            let mut ignored = (Vec::new(), Served::default(), 0u64);
            pass(mode, &service, &preds, &want, &mut ignored.0, &mut ignored.1, &mut ignored.2)?;
            cache_before = service.cache_stats();
        }
        let deadline = args.deadline();
        let mut pass_no = 0usize;
        while pass_no < MIN_PASSES || Instant::now() < deadline {
            out.attempted += preds.len() as u64;
            let wall =
                pass(mode, &service, &preds, &want, &mut out.op_ms, &mut served, &mut out.failed)?;
            qps.push(preds.len() as f64 / wall);
            out.pass_mbps.push(preds.len() as f64 * raw_bytes / wall / 1e6);
            if args.trace && rec.room_for_pass() {
                // The traced pass runs on one thread: compare it with the
                // same queries' summed untraced latencies.
                let lat = &out.op_ms[out.op_ms.len() - preds.len()..];
                untraced_s.push(lat.iter().sum::<f64>() / 1e3);
                let t0 = Instant::now();
                for (i, p) in preds.iter().enumerate() {
                    rec.begin_op((pass_no * preds.len() + i) as u32, "op.query");
                    let r = tracer.query(&mut rec, column, *p, &mut n);
                    rec.end();
                    let (sum, matches) = r?;
                    check(mode, i, sum, matches, want[i])?;
                }
                traced_s.push(t0.elapsed().as_secs_f64());
            }
            pass_no += 1;
        }
        Ok(())
    })();
    out.error = result.err();
    let cache = service.cache_stats();
    // A query that loses a page on this clean store ends the run: what a
    // finished run counts was served whole.
    out.recovered_fraction = 1.0;
    out.series("query_qps", "1/s", &qps);
    out.detail.push(("query_p50_ms".into(), crate::series_json("ms", &out.op_ms)));
    let (hits, misses) = (cache.hits - cache_before.hits, cache.misses - cache_before.misses);
    let evictions = cache.evictions - cache_before.evictions;
    let fused = served.pages_fused as f64;
    let pages = (served.pages_fused + served.pages_materialized) as f64;
    let pruned = served.vectors_skipped as f64;
    out.detail.push((
        "store".into(),
        format!(
            "{{\"rows\": {rows}, \"pages\": {}, \"raw_mb\": {}, \"cache_max_mb\": {}, \"clients\": {CLIENTS}, \"queries_per_pass\": {}}}",
            service.store().pages(),
            crate::num(raw_bytes / 1e6),
            crate::num(mode.cache().max_bytes as f64 / 1e6),
            preds.len()
        ),
    ));
    let sel: Vec<f64> = preds.iter().map(|p| p.selectivity).collect();
    out.series("target_selectivity", "ratio", &sel);

    if args.trace && !traced_s.is_empty() {
        let s = rec.summarize();
        let l = &mut out.layers;
        let fused_ns = ns_per(&s, "decode.scan_fused", n.fused_values as f64);
        l.insert("decode.scan_fused_ns_per_value", fused_ns);
        let materialize_ns = ns_per(&s, "decode.materialize", n.materialized_values as f64);
        l.insert("decode.materialize_ns_per_value", materialize_ns);
        l.insert("cache.bytes_peak_mb", cache.bytes_peak as f64 / 1e6);
        out.layer_ratio("service.pages_fused_share", fused, pages, "pages scanned");
        out.layer_ratio("cache.hit_rate", hits as f64, (hits + misses) as f64, "page lookups");
        let queries = served.queries as f64;
        out.layer_ratio("cache.evictions_per_query", evictions as f64, queries, "queries");
        let visited = served.vectors_visited as f64;
        out.layer_ratio("zonemap.vectors_pruned_share", pruned, visited, "vectors visited");
        record_trace_shares(&mut out, &s, "op.query", &untraced_s, &traced_s);
        if let Err(e) = rec.write_tsv(&args.spans_path()) {
            out.error.get_or_insert(format!("writing spans: {e}"));
        }
    }
    out
}
