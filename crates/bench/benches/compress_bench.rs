//! Codec micro-benchmarks: compression / decompression throughput per 4 KiB
//! page, per algorithm and content class. Validates the latency orderings
//! the tier model assumes (lz4 < lzo < zstd < deflate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use ts_compress::Algorithm;
use ts_workloads::PageClass;

fn page(class: PageClass) -> Vec<u8> {
    let mut buf = vec![0u8; 4096];
    class.fill(42, 7, &mut buf);
    buf
}

/// Short measurement windows: these benches validate orderings, not
/// nanosecond-precision regressions, and the full suite must stay fast.
fn quick_config() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400))
        .sample_size(10)
}

fn bench_compress(c: &mut Criterion) {
    let mut g = c.benchmark_group("compress_4k");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(4096));
    for algo in Algorithm::ALL {
        let codec = algo.codec();
        let data = page(PageClass::Text);
        g.bench_with_input(
            BenchmarkId::from_parameter(algo.name()),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(4096);
                    let _ = codec.compress(black_box(data), &mut out);
                    black_box(out)
                })
            },
        );
    }
    g.finish();
}

/// Decoding a text page (rows named by codec) and a binary page (rows
/// `<codec>-binary`): graph workloads decode binary lz4 pages on every
/// incompressibility-memo check. A codec that rejects the page gets no row.
fn bench_decompress(c: &mut Criterion) {
    let mut g = c.benchmark_group("decompress_4k");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(4096));
    for (class, suffix) in [(PageClass::Text, ""), (PageClass::Binary, "-binary")] {
        for algo in Algorithm::ALL {
            let codec = algo.codec();
            let data = page(class);
            let mut compressed = Vec::new();
            if codec.compress(&data, &mut compressed).is_err() {
                continue;
            }
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{}{suffix}", algo.name())),
                &compressed,
                |b, comp| {
                    b.iter(|| {
                        let mut out = Vec::with_capacity(4096);
                        codec
                            .decompress(black_box(comp), &mut out)
                            .expect("valid stream");
                        black_box(out)
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_by_content(c: &mut Criterion) {
    let mut g = c.benchmark_group("zstd_by_content");
    g.sample_size(20);
    let codec = Algorithm::Zstd.codec();
    for class in [
        PageClass::Zero,
        PageClass::HighlyCompressible,
        PageClass::Text,
        PageClass::Binary,
    ] {
        let data = page(class);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{class:?}")),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(4096);
                    let _ = codec.compress(black_box(data), &mut out);
                    black_box(out)
                })
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_compress, bench_decompress, bench_by_content
}
criterion_main!(benches);
