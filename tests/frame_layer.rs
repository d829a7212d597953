//! Regression suite for the shared frame layer (`alp::frame`, DESIGN.md §16):
//! the frame table delimits `"ALP2"` columns and `"ALPT"` streams past a
//! corrupted length prefix, salvage stays linear in the file size, and a
//! lying length prefix costs no allocation beyond the bytes present.
//!
//! Allocation sizes are measured by a byte-tracking global allocator local
//! to this test binary. It refuses requests above 1 GiB, so a regression
//! fails fast instead of exhausting the host's memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use alp::format;
use alp::stream::{ColumnReader, ColumnWriter};
use alp::{Compressor, ParityConfig, SamplerParams, VECTOR_SIZE};

/// Requests larger than this are refused (the allocation returns null).
const REFUSE_ABOVE: usize = 1 << 30;

/// System allocator wrapper that records the largest request per thread.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: a recording veneer; every allocator duty is delegated verbatim to
// `System`, and a refused request returns null as `GlobalAlloc` permits.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        // SAFETY: delegated verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        if new_size > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        // SAFETY: same contract as `System::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The largest single allocation request `f` makes on this thread.
fn peak_request(f: impl FnOnce()) -> usize {
    let _ = PEAK.try_with(|p| p.set(0));
    f();
    PEAK.try_with(Cell::get).unwrap_or(0)
}

/// Small row-groups (2 × 1024 values) give many frames per column.
fn params() -> SamplerParams {
    SamplerParams { vectors_per_rowgroup: 2, ..SamplerParams::default() }
}

/// `rowgroups` row-groups of decimal data, the last one partial.
fn dataset(rowgroups: usize) -> Vec<f64> {
    let n = rowgroups * 2 * VECTOR_SIZE - 700;
    (0..n).map(|i| ((i % 901) as f64) * 0.05 + (i / 4096) as f64).collect()
}

fn column(data: &[f64], params: SamplerParams) -> Vec<u8> {
    let compressed = Compressor::with_params(params).expect("valid params").compress(data);
    format::to_bytes_with_parity(&compressed, ParityConfig { group_size: 4 }).expect("parity")
}

fn stream(data: &[f64], parity: Option<usize>) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut writer = match parity {
        Some(group_size) => ColumnWriter::<f64, _>::with_params_and_parity(
            &mut sink,
            params(),
            ParityConfig { group_size },
        ),
        None => ColumnWriter::<f64, _>::with_params(&mut sink, params()),
    }
    .expect("valid writer");
    writer.push(data).expect("push");
    writer.finish().expect("finish");
    sink
}

/// Start offsets of the data frames from `at`, up to the terminator or the
/// end of the buffer (parity frames skipped by their `"ALPP"` body magic).
fn data_frames(bytes: &[u8], mut at: usize) -> Vec<usize> {
    let mut starts = Vec::new();
    while let Some(len) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes(len.try_into().expect("four bytes")) as usize;
        if len == 0 || at + 12 + len > bytes.len() {
            break;
        }
        if !bytes[at + 12..].starts_with(b"ALPP") {
            starts.push(at);
        }
        at += 12 + len;
    }
    starts
}

fn assert_bits(expect: &[f64], got: &[f64], label: &str) {
    assert_eq!(expect.len(), got.len(), "{label}: length");
    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: value {i}");
    }
}

#[test]
fn column_length_prefix_flips_are_restored_from_the_frame_table() {
    let data = dataset(10);
    let clean = column(&data, params());
    let frames = data_frames(&clean, 4 + 1 + 8 + 4);
    assert_eq!(frames.len(), 10);
    for index in [0, 9] {
        for bit in 0..32 {
            let label = format!("frame {index}, length bit {bit}");
            let mut bytes = clean.clone();
            bytes[frames[index] + bit / 8] ^= 1 << (bit % 8);
            let salvage = format::from_bytes_salvage::<f64>(&bytes).expect(&label);
            assert!(
                salvage.lost_rowgroups.is_empty(),
                "{label}: lost {:?}",
                salvage.lost_rowgroups
            );
            assert_eq!(salvage.repaired_rowgroups, vec![index], "{label}");
            assert_bits(&data, &salvage.column.decompress(), &label);
        }
    }
}

#[test]
fn stream_length_prefix_flips_lose_nothing_with_the_frame_table() {
    let data = dataset(10);
    for parity in [None, Some(4)] {
        let clean = stream(&data, parity);
        let frames = data_frames(&clean, 5);
        assert_eq!(frames.len(), 10);
        for index in [0, 9] {
            for bit in 0..32 {
                let label = format!("parity {parity:?}, frame {index}, length bit {bit}");
                let mut bytes = clean.clone();
                bytes[frames[index] + bit / 8] ^= 1 << (bit % 8);
                let mut reader = ColumnReader::<f64, _>::new(&bytes[..]).expect(&label);
                let mut groups = Vec::new();
                while let Some(values) = reader.next_rowgroup_salvaged().expect(&label) {
                    groups.push(values);
                }
                let lost = reader.lost_rowgroups();
                assert_eq!(groups.len() + lost.len(), frames.len(), "{label}: accounting");
                assert!(lost.is_empty(), "{label}: lost {lost:?}");
                assert_eq!(reader.repaired_rowgroups(), &[index], "{label}");
                assert!(reader.is_committed(), "{label}");
                assert_bits(&data, &groups.concat(), &label);
            }
        }
    }
}

/// Best of three wall-clock timings of `f`.
fn best_of_three(mut f: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("three runs")
}

#[test]
fn length_prefix_salvage_stays_linear() {
    // 24 frames of default 102,400-value row-groups, about 4 MB. A resync
    // that probes every byte offset costs about 10x the clean read here.
    let data: Vec<f64> = (0..24 * 102_400).map(|i| ((i % 7919) as f64) * 0.01).collect();
    let clean = column(&data, SamplerParams::default());
    let mut damaged = clean.clone();
    damaged[4 + 1 + 8 + 4 + 3] ^= 0x80; // frame 0's length now runs past the file
    let salvage = |bytes: &[u8]| {
        let s = format::from_bytes_salvage::<f64>(bytes).expect("header intact");
        assert!(s.lost_rowgroups.is_empty());
        assert_eq!(s.column.len, data.len());
    };
    let clean_time = best_of_three(|| salvage(&clean));
    let damaged_time = best_of_three(|| salvage(&damaged));
    assert!(
        damaged_time <= clean_time * 5,
        "length-prefix salvage took {damaged_time:?}, clean salvage {clean_time:?}"
    );
}

#[test]
fn lying_length_prefix_allocates_in_proportion_to_the_stream() {
    let data = dataset(10);
    let mut bytes = stream(&data, None);
    bytes[5..9].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
    let bound = 2 * bytes.len();

    let strict = peak_request(|| {
        let mut reader = ColumnReader::<f64, _>::new(&bytes[..]).expect("header intact");
        assert!(reader.next_rowgroup().is_err(), "strict read must refuse the frame");
    });
    assert!(
        strict <= bound,
        "strict read requested {strict} bytes for a {}-byte stream",
        bytes.len()
    );

    let salvage = peak_request(|| {
        let mut reader = ColumnReader::<f64, _>::new(&bytes[..]).expect("header intact");
        // Compared chunk by chunk: collecting the values would itself
        // allocate more than the stream's size.
        let mut at = 0;
        while let Some(chunk) = reader.next_rowgroup_salvaged().expect("salvage finishes") {
            assert_bits(&data[at..at + chunk.len()], &chunk, "salvaged row-group");
            at += chunk.len();
        }
        assert_eq!(at, data.len());
    });
    assert!(
        salvage <= bound,
        "salvage requested {salvage} bytes for a {}-byte stream",
        bytes.len()
    );
}
