//! The bounded-memory object store at scale: pack gigabytes of objects
//! into a capsule pool from a streaming source, then fetch one object
//! back byte-identically — while peak RSS stays under 256 MiB, because
//! both directions stream one ~100 KB capsule at a time.
//!
//! ```text
//! cargo run --release --example object_store                    # 1 GiB total
//! DNA_REPRO_SCALE=smoke cargo run --release --example object_store   # 64 MiB
//! DNA_REPRO_SCALE=paper cargo run --release --example object_store   # 4 GiB
//! ```
//!
//! The fetch decodes only the target object's capsules (primer-addressed
//! random access); the rest of the pool is never read.

use dna_bench::Scale;
use dna_skew::object::{ObjectStore, StoreConfig};
use std::io::{Read, Write};
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// A deterministic pseudorandom byte stream that fingerprints itself as
/// it is read — the "file" being packed, without ever materializing it.
struct ByteStream {
    state: u64,
    remaining: u64,
    hash: u64,
}

impl ByteStream {
    fn new(seed: u64, len: u64) -> ByteStream {
        ByteStream {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            remaining: len,
            hash: FNV_OFFSET,
        }
    }
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
            self.hash = (self.hash ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
        }
        self.remaining -= n as u64;
        Ok(n)
    }
}

/// A sink that fingerprints what flows through it without storing it.
struct HashWriter {
    hash: u64,
    bytes: u64,
}

impl Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Peak resident set size in MiB, from `/proc/self/status` (`VmHWM`).
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

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0 * 1024.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    // Four objects; total payload 64 MiB (smoke) / 1 GiB (default) /
    // 4 GiB (paper).
    let object_mib = scale.pick(16, 256, 1024) as u64;
    let object_bytes = object_mib * 1024 * 1024;
    let n_objects = 4u64;

    let dir = std::path::Path::new("target").join("example-object-store");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ObjectStore::create(&dir, StoreConfig::laptop()?)?;
    println!(
        "packing {n_objects} objects × {object_mib} MiB ({:.2} GiB total) into {} \
         ({} B payload per capsule)",
        gib(n_objects * object_bytes),
        dir.display(),
        store.capsule_capacity(),
    );

    let mut expected = Vec::new();
    let pack_start = Instant::now();
    for i in 0..n_objects {
        let mut source = ByteStream::new(0xC0DE + i, object_bytes);
        let id = store.put(&format!("object-{i}.bin"), &mut source)?;
        expected.push((id, source.hash));
        println!(
            "  put object-{i}.bin -> id {id} ({} capsules so far, peak RSS {:.0} MiB)",
            store.manifest().capsules().len(),
            peak_rss_mib().unwrap_or(f64::NAN),
        );
    }
    let pack_secs = pack_start.elapsed().as_secs_f64();
    let total = n_objects * object_bytes;
    println!(
        "packed {:.2} GiB in {pack_secs:.1} s ({:.3} GB/s), pool file {:.2} GiB",
        gib(total),
        total as f64 / 1e9 / pack_secs,
        gib(std::fs::metadata(dir.join(dna_skew::object::POOL_FILE))?.len()),
    );

    // Random access: fetch ONE object; only its capsules are read.
    let (target_id, want_hash) = expected[1];
    let mut sink = HashWriter {
        hash: FNV_OFFSET,
        bytes: 0,
    };
    let fetch_start = Instant::now();
    let report = store.fetch(target_id, &mut sink)?;
    let fetch_secs = fetch_start.elapsed().as_secs_f64();
    assert_eq!(sink.bytes, object_bytes, "fetched byte count");
    assert_eq!(sink.hash, want_hash, "fetched bytes are byte-identical");
    println!(
        "fetched object {target_id}: {:.2} GiB in {fetch_secs:.1} s ({:.3} GB/s) from \
         {} capsules / {} units / {} reads",
        gib(sink.bytes),
        sink.bytes as f64 / 1e9 / fetch_secs,
        report.capsules,
        report.units,
        report.reads,
    );

    match peak_rss_mib() {
        Some(peak) => {
            println!("peak RSS {peak:.0} MiB (bound: 256 MiB)");
            assert!(
                peak < 256.0,
                "streaming bound violated: peak RSS {peak:.0} MiB"
            );
        }
        None => println!("peak RSS unavailable (no /proc); skipping the 256 MiB assertion"),
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("done: fetch touched the target object's capsules only");
    Ok(())
}
