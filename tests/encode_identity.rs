//! Byte-identity pins for the compress path.
//!
//! The sampler and the encode kernel may be rewritten for speed, but the
//! bytes they produce may not move: `format::to_bytes` of every column below
//! must keep the length and XXH64 recorded here. The columns cover every
//! `datagen` dataset, an `f32` column, and a column of special values (NaN,
//! ±inf, −0.0, 1e300, and integers at or above 2^51 that encode without
//! exception) that exercise the out-of-range fallback of the encode kernel.
//! The second half pins the pipelined writer to the serial writer on the
//! same columns at every tested thread count and pipeline depth.

use alp::format;
use alp::hash::xxh64;
use alp::pipeline::{PipelineConfig, PipelinedColumnWriter};
use alp::stream::ColumnWriter;
use alp::{AlpFloat, Compressor, SamplerParams};

/// Two row-groups under the default parameters (102,400 + 7,600 values), so
/// both the full and the ragged-tail sampling paths run.
const VALUES: usize = 110_000;

/// `(column, to_bytes length, xxh64(to_bytes, 0))`.
const PINNED: [(&str, usize, u64); 32] = [
    ("Air-Pressure", 143657, 0x7CACF1641CF7A1B9),
    ("Basel-Temp", 307313, 0x51B0A19777009784),
    ("Basel-Wind", 301351, 0xA3BB76CD7FC6A7F8),
    ("Bird-Mig", 258099, 0x71E205EA67BAC2EB),
    ("Btc-Price", 315001, 0xD4C80DBDA9462397),
    ("City-Temp", 130567, 0xE74E9BF51E74CD92),
    ("Dew-Temp", 177631, 0x5990D630191C2A2F),
    ("Bio-Temp", 126727, 0xF9FDE38BE32A0EF6),
    ("PM10-dust", 89179, 0x45DEA1E489964D39),
    ("Stocks-DE", 116753, 0xCB74E0EAFADA3F3F),
    ("Stocks-UK", 127495, 0xA677792D1725C0BC),
    ("Stocks-USA", 101767, 0x56CC8CB6E4F55585),
    ("Wind-dir", 209671, 0xBEF978D14D5EB531),
    ("Arade/4", 341787, 0x3FF9C61BC6943221),
    ("Blockchain", 558861, 0x773F32D2D06870AC),
    ("CMS/1", 332635, 0x917A9D384FEEBCE4),
    ("CMS/25", 561821, 0x5F0B10F5F03BFE0F),
    ("CMS/9", 195207, 0x747F0A8945B417CA),
    ("Food-prices", 343967, 0xB0DDD31393642DAF),
    ("Gov/10", 441421, 0x983D9425B035C7E3),
    ("Gov/26", 8967, 0x663ECF32EDF2F975),
    ("Gov/30", 92387, 0x3FA15CC38F98BAC0),
    ("Gov/31", 61611, 0xFA509A5500F0C4DD),
    ("Gov/40", 10289, 0x3E153B6421AB69F7),
    ("Medicare/1", 332219, 0x9F4722E079CFB8A4),
    ("Medicare/9", 195207, 0x389F57591CCD13DE),
    ("NYC/29", 588229, 0x7709AA063230F9E1),
    ("POI-lat", 777461, 0xB5033EF633A6E45D),
    ("POI-lon", 779329, 0x5B829999EE464233),
    ("SD-bench", 209031, 0x1468A2D8A367805D),
    ("ml_weights_f32", 382413, 0x77999A6168ECFAEE),
    ("specials", 27141, 0x7F043DB4E5F0FAE7),
];

fn specials() -> Vec<f64> {
    // Integers between 2^51 and 2^52: just outside the fast conversions'
    // range, yet each encodes exactly under `(e, f) = (0, 0)`.
    let p51 = 2f64.powi(51);
    let wide = [p51, p51 + 2.0, p51 + 6.0, 2.0 * p51 - 2.0, -p51, -p51 - 2.0];
    let huge = [1e17, 1e17 + 16.0, -1e17, 2f64.powi(53)];
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300, -1e300, f64::MIN_POSITIVE];
    (0..4 * 1024 + 300)
        .map(|i| match (i / 1024, i % 97 == 5, i % 50) {
            // Integers with sparse wide lanes, then with sparse huge lanes:
            // these vectors take the scalar fallback and still encode
            // without exceptions.
            (0, true, _) => wide[i % wide.len()],
            (1, true, _) => huge[i % huge.len()],
            (0 | 1, false, _) => (i * 3) as f64,
            // Decimals with sparse NaN/inf/-0.0/huge exceptions.
            (2, _, _) if i % 61 == 7 => odd[i % odd.len()],
            (2, _, _) => (i as f64 * 7.0 + 13.0) / 100.0,
            // Mixed: every kind of special lane in one vector.
            (_, _, 3) => wide[i % wide.len()],
            (_, _, 4) => huge[i % huge.len()],
            (_, _, 5) => odd[i % odd.len()],
            _ => (i % 1000) as f64 / 8.0,
        })
        .collect()
}

fn fingerprint<F: AlpFloat>(data: &[F]) -> (usize, u64) {
    let bytes = format::to_bytes(&Compressor::new().compress(data));
    (bytes.len(), xxh64(&bytes, 0))
}

#[test]
fn to_bytes_is_pinned_on_every_dataset_f32_and_specials() {
    let mut actual: Vec<(String, usize, u64)> = datagen::DATASETS
        .iter()
        .map(|d| {
            let (len, hash) = fingerprint(&datagen::generate_spec(&d.spec, VALUES, 1));
            (d.name.to_string(), len, hash)
        })
        .collect();
    let (len, hash) = fingerprint(&datagen::ml_weights_f32(VALUES, 1));
    actual.push(("ml_weights_f32".to_string(), len, hash));
    let (len, hash) = fingerprint(&specials());
    actual.push(("specials".to_string(), len, hash));

    let mismatched: Vec<String> = actual
        .iter()
        .filter(|(name, len, hash)| {
            !PINNED.iter().any(|(n, l, h)| n == name && l == len && h == hash)
        })
        .map(|(name, len, hash)| format!("(\"{name}\", {len}, 0x{hash:016X}),"))
        .collect();
    assert!(
        mismatched.is_empty() && actual.len() == PINNED.len(),
        "to_bytes moved on {} of {} columns; actual:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n")
    );
}

#[test]
fn specials_roundtrip_and_huge_integers_are_not_exceptions() {
    let data = specials();
    let compressed = Compressor::new().compress(&data);
    let back = compressed.decompress();
    assert!(data.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()));
    // The integer vectors hold lanes at and above 2^51: they are outside the
    // fast conversions' range, yet encode exactly, not as exceptions.
    for vector in data[..2 * 1024].chunks(1024) {
        assert_eq!(alp::encode::encode_vector(vector, 0, 0).exception_count(), 0);
    }
}

/// Small row-groups (seven per column) give the pipeline frames to keep in
/// flight.
fn stream_params() -> SamplerParams {
    SamplerParams { vectors_per_rowgroup: 16, ..SamplerParams::default() }
}

fn serial_stream<F: AlpFloat>(data: &[F]) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut writer = ColumnWriter::<F, _>::with_params(&mut sink, stream_params()).expect("params");
    writer.push(data).expect("push");
    writer.finish().expect("finish");
    sink
}

fn assert_pipelined_matches_serial<F: AlpFloat>(name: &str, data: &[F]) {
    let serial = serial_stream(data);
    for threads in [2usize, 4] {
        for depth in [1usize, 2, 4] {
            let mut sink = Vec::new();
            let config = PipelineConfig { threads, depth, panic_at: None };
            let mut writer =
                PipelinedColumnWriter::<F, _>::with_params(&mut sink, stream_params(), config)
                    .expect("params");
            for chunk in data.chunks(20_000) {
                writer.push(chunk).expect("push");
            }
            writer.finish().expect("finish");
            assert!(sink == serial, "{name}: threads={threads} depth={depth}");
        }
    }
}

#[test]
fn pipelined_streams_equal_serial_streams_on_the_pinned_columns() {
    for d in &datagen::DATASETS {
        assert_pipelined_matches_serial(d.name, &datagen::generate_spec(&d.spec, VALUES, 1));
    }
    assert_pipelined_matches_serial("ml_weights_f32", &datagen::ml_weights_f32(VALUES, 1));
    assert_pipelined_matches_serial("specials", &specials());
}
