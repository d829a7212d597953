//! `alp` — command-line front end for the ALP compression library.
//!
//! ```text
//! alp compress   <in.f64> <out.alp> [--f32] [--parity K]   raw LE floats -> ALP column
//!                [--stream [--threads N] [--pipeline-depth D]]
//!                --stream writes the incremental "ALPT" stream layout via
//!                the pipelined ingest path (compression overlapped with
//!                file reads; identical bytes at every N and D);
//!                --parity K emits one XOR parity frame per K row-groups so
//!                any single damaged row-group per group repairs on read
//! alp decompress <in.alp> <out.f64>             ALP column/stream -> raw LE floats
//!                (repair-on-read: parity-reconstructible damage decompresses
//!                byte-identically, with the repaired row-groups named)
//! alp inspect    <in.alp>                       header, row-groups, schemes (column or stream)
//! alp verify     <in.alp> [--threads N]         checksum + salvage report (column or stream)
//!                exit codes: 0 clean, 2 damaged-but-fully-repaired,
//!                3 salvageable, 4 unreadable, 1 error
//! alp scrub      <in.alp> [--threads N] [--rewrite]
//!                walk + repair report for a column or stream; --rewrite
//!                atomically replaces a fully-repaired column file
//!                exit codes: same as verify
//! alp stats      <in.f64> [--f32]               Table 2-style dataset metrics
//! alp gen        <dataset> <n> <out.f64>        synthetic dataset to a file
//! alp shootout   <in.f64> [--threads N]         ratio/speed of every codec
//! alp query      <in.f64> <lo> <hi> [--threads N] [--deadline-ms M] [--no-fused]
//!                predicated sum through the query service (cache, deadlines,
//!                quarantine — ALP_FAULT_SEED injects bad pages; --no-fused
//!                forces the materializing scan path)
//! alp codecs                                    list the codec registry
//! alp datasets                                  list generatable datasets
//! alp analyze    [--root <path>] [--format text|json]   workspace lint pass
//! ```

#![forbid(unsafe_code)]

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `analyze` owns its value-taking flags (--root, --format), which the
    // generic boolean-flag partition below would mangle.
    if args.first().map(String::as_str) == Some("analyze") {
        return commands::analyze(&args[1..]);
    }
    // `--threads` takes a value, so extract it (and its argument) before the
    // boolean-flag partition below.
    let mut threads_flag: Option<usize> = None;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--threads requires a value");
            return usage();
        };
        match value.parse::<usize>() {
            Ok(n) if n > 0 => threads_flag = Some(n),
            _ => {
                eprintln!("--threads expects a positive integer, got {value:?}");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    // `--pipeline-depth` (compress --stream) takes a value too.
    let mut depth_flag: Option<usize> = None;
    if let Some(i) = args.iter().position(|a| a == "--pipeline-depth") {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--pipeline-depth requires a value");
            return usage();
        };
        match value.parse::<usize>() {
            Ok(n) if n > 0 => depth_flag = Some(n),
            _ => {
                eprintln!("--pipeline-depth expects a positive integer, got {value:?}");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    // `--parity` (compress) takes a value too: the row-group group size.
    let mut parity_flag: Option<usize> = None;
    if let Some(i) = args.iter().position(|a| a == "--parity") {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--parity requires a value (row-groups per parity frame)");
            return usage();
        };
        match value.parse::<usize>() {
            Ok(n) if n > 0 && n <= 255 => parity_flag = Some(n),
            _ => {
                eprintln!("--parity expects an integer in 1..=255, got {value:?}");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    // `--deadline-ms` (query) takes a value too.
    let mut deadline_ms: Option<u64> = None;
    if let Some(i) = args.iter().position(|a| a == "--deadline-ms") {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--deadline-ms requires a value");
            return usage();
        };
        match value.parse::<u64>() {
            Ok(ms) if ms > 0 => deadline_ms = Some(ms),
            _ => {
                eprintln!("--deadline-ms expects a positive integer, got {value:?}");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    let threads = alp_core::par::resolve_threads(threads_flag);
    let (flags, positional): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with("--"));
    let f32_mode = flags.iter().any(|f| f.as_str() == "--f32");
    let no_fused = flags.iter().any(|f| f.as_str() == "--no-fused");
    let stream_mode = flags.iter().any(|f| f.as_str() == "--stream");
    let rewrite = flags.iter().any(|f| f.as_str() == "--rewrite");
    if let Some(unknown) = flags
        .iter()
        .find(|f| !matches!(f.as_str(), "--f32" | "--no-fused" | "--stream" | "--rewrite"))
    {
        eprintln!("unknown flag {unknown}");
        return usage();
    }

    let result = match positional.split_first() {
        Some((cmd, rest)) => {
            let rest: Vec<&str> = rest.iter().map(|s| s.as_str()).collect();
            match (cmd.as_str(), rest.as_slice()) {
                ("compress", [input, output]) if stream_mode => commands::compress_stream(
                    input,
                    output,
                    f32_mode,
                    threads,
                    depth_flag,
                    parity_flag,
                ),
                ("compress", [input, output]) => {
                    commands::compress(input, output, f32_mode, parity_flag)
                }
                ("decompress", [input, output]) => commands::decompress(input, output),
                ("inspect", [input]) => commands::inspect(input),
                // `verify` and `scrub` triage archives through their exit
                // codes (clean / repaired / salvageable / unreadable), so
                // they bypass the unit match.
                ("verify", [input]) => {
                    return match commands::verify_column(input, threads) {
                        Ok(code) => ExitCode::from(code),
                        Err(e) => {
                            eprintln!("error: {e}");
                            ExitCode::FAILURE
                        }
                    };
                }
                ("scrub", [input]) => {
                    return match commands::scrub(input, threads, rewrite) {
                        Ok(code) => ExitCode::from(code),
                        Err(e) => {
                            eprintln!("error: {e}");
                            ExitCode::FAILURE
                        }
                    };
                }
                ("stats", [input]) => commands::stats(input, f32_mode),
                ("gen", [dataset, n, output]) => commands::generate(dataset, n, output),
                ("shootout", [input]) => commands::shootout(input, threads),
                ("query", [input, lo, hi]) => {
                    commands::query(input, lo, hi, threads, deadline_ms, no_fused)
                }
                ("codecs", []) => commands::list_codecs(),
                ("datasets", []) => commands::list_datasets(),
                _ => return usage(),
            }
        }
        None => return usage(),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  alp compress   <in.f64> <out.alp> [--f32] [--parity K] [--stream [--threads N] [--pipeline-depth D]]\n  alp decompress <in.alp> <out.f64>\n  alp inspect    <in.alp>\n  alp verify     <in.alp> [--threads N]\n  alp scrub      <in.alp> [--threads N] [--rewrite]\n  alp stats      <in.f64> [--f32]\n  alp gen        <dataset> <n> <out.f64>\n  alp shootout   <in.f64> [--threads N]\n  alp query      <in.f64> <lo> <hi> [--threads N] [--deadline-ms M] [--no-fused]\n  alp codecs\n  alp datasets\n  alp analyze    [--root <path>] [--format text|json]"
    );
    ExitCode::FAILURE
}
