//! Ablation: primer-addressed `fetch(object_id)` vs pool size.
//!
//! The object store's claim is random access: fetching one object reads
//! only that object's capsules, so fetch-one latency tracks the *object's*
//! capsule count while the pool grows arbitrarily around it. This bench
//! builds pools of increasing object counts (every object the same size),
//! times `fetch` of one middle object at each pool size, and contrasts it
//! with draining the whole pool. It also measures streaming put/fetch
//! throughput at the laptop geometry and reports peak RSS, the
//! bounded-memory half of the claim.
//!
//! It prints criterion-style `min/median/mean` lines; the TSV goes to
//! `target/figures/ablation_object_fetch.csv`.

use criterion::Criterion;
use dna_bench::{FigureOutput, Scale};
use dna_object::{ObjectStore, StoreConfig};
use std::io::{Read, Write};
use std::time::Instant;

/// A `Write` sink that counts bytes and discards them.
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A deterministic pseudorandom stream of `remaining` bytes.
struct ByteStream {
    state: u64,
    remaining: u64,
}

impl Read for ByteStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (buf.len() as u64).min(self.remaining) as usize;
        for b in &mut buf[..n] {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (self.state >> 33) as u8;
        }
        self.remaining -= n as u64;
        Ok(n)
    }
}

/// Peak resident set size in MiB (`VmHWM` from `/proc/self/status`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn bench_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target/bench-object-store")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let scale = Scale::from_env();
    let pool_sizes: &[usize] = match scale {
        Scale::Smoke => &[2, 8],
        Scale::Default => &[2, 8, 32],
        Scale::Paper => &[2, 8, 32, 128],
        Scale::Wetlab => &[2, 8, 32, 64],
    };
    let samples = scale.pick(5, 20, 50);
    let mut c = Criterion::default().sample_size(samples);
    eprintln!("ablation_object_fetch: pools {pool_sizes:?}, {samples} samples/bench");

    // Tiny geometry keeps capsules small (3 × 30 B units) so pool growth
    // is cheap; every object is 5 capsules so the fetch-one working set
    // is constant across pool sizes by construction.
    let object_bytes = 5 * 90;
    let mut fig = FigureOutput::new(
        "ablation_object_fetch",
        &[
            "pool_objects",
            "pool_capsules",
            "fetch_capsules",
            "fetch_one_us",
            "drain_all_us",
            "drain_over_fetch",
        ],
    );
    for &n in pool_sizes {
        let dir = bench_dir(&format!("pool{n}"));
        let mut store =
            ObjectStore::create(&dir, StoreConfig::tiny().expect("tiny config")).expect("create");
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            let mut src = ByteStream {
                state: 0xFE7C_0000 + i as u64,
                remaining: object_bytes,
            };
            ids.push(store.put(&format!("obj-{i}"), &mut src).expect("put"));
        }
        let target = ids[n / 2];
        let report = store
            .fetch(target, &mut CountingSink(0))
            .expect("fetch target");

        let mut fetch_us = f64::MAX;
        c.bench_function(&format!("object_fetch_one_pool{n}"), |b| {
            b.iter(|| {
                let mut sink = CountingSink(0);
                let start = Instant::now();
                store.fetch(target, &mut sink).expect("fetch");
                fetch_us = fetch_us.min(start.elapsed().as_secs_f64() * 1e6);
                sink.0
            })
        });
        let drain_start = Instant::now();
        for &id in &ids {
            store.fetch(id, &mut CountingSink(0)).expect("drain fetch");
        }
        let drain_us = drain_start.elapsed().as_secs_f64() * 1e6;
        fig.row(&[
            format!("{n}"),
            format!("{}", store.manifest().capsules().len()),
            format!("{}", report.capsules),
            format!("{fetch_us:.1}"),
            format!("{drain_us:.1}"),
            format!("{:.2}", drain_us / fetch_us),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Streaming throughput at the laptop geometry: one object, put from a
    // byte stream and fetched back into a counting sink, never resident.
    let stream_mib = scale.pick(1, 8, 64) as u64;
    let stream_bytes = stream_mib * 1024 * 1024;
    let dir = bench_dir("stream");
    let mut store =
        ObjectStore::create(&dir, StoreConfig::laptop().expect("laptop config")).expect("create");
    let put_start = Instant::now();
    let id = store
        .put(
            "stream.bin",
            &mut ByteStream {
                state: 0xBEEF,
                remaining: stream_bytes,
            },
        )
        .expect("streaming put");
    let put_secs = put_start.elapsed().as_secs_f64();
    let mut sink = CountingSink(0);
    let fetch_start = Instant::now();
    store.fetch(id, &mut sink).expect("streaming fetch");
    let fetch_secs = fetch_start.elapsed().as_secs_f64();
    assert_eq!(sink.0, stream_bytes, "streamed bytes round-trip");
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\nstreaming {stream_mib} MiB (laptop geometry): put {:.1} MB/s, fetch {:.1} MB/s, \
         peak RSS {:.0} MiB",
        stream_bytes as f64 / 1e6 / put_secs,
        stream_bytes as f64 / 1e6 / fetch_secs,
        peak_rss_mib().unwrap_or(f64::NAN),
    );

    fig.finish();
    println!(
        "\n(fetch-one touches the target object's capsules only, so its latency is flat \
         across pool sizes; draining the pool scales with object count)"
    );
}
