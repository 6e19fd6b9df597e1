//! Figure 15: qualitative examples — the same stored image retrieved
//! intact, with ≈1 dB loss, and with heavy (≈7 dB) loss. Writes PGM files
//! under `target/figures/fig15/`.

use dna_bench::{laptop_pipeline, Scale};
use dna_channel::{Cluster, CoverageModel, ErrorModel, SimulatedSequencer};
use dna_media::{GrayImage, JpegLikeCodec};
use dna_storage::{Archive, ArchiveCodec, FileEntry, Layout, RankingPolicy, RetrieveOptions};
use std::fs;

fn main() {
    let _ = Scale::from_env();
    let codec = JpegLikeCodec::new(85).expect("quality");
    let image = GrayImage::synthetic_photo(128, 96, 15);
    let file = codec.encode(&image).expect("encode");
    let archive = Archive::new(vec![FileEntry::new("photo", file)]).expect("archive");

    let pipeline = laptop_pipeline(Layout::DnaMapper);
    let storage = ArchiveCodec::new(pipeline, RankingPolicy::PositionPriority).with_encryption(15);
    let units = storage.encode(&archive).expect("encode units");

    let dir = std::path::Path::new("target/figures/fig15");
    fs::create_dir_all(dir).expect("mkdir");
    fs::write(dir.join("original.pgm"), image.to_pgm()).expect("write");

    let pools = storage.pipeline().sequence_batch(
        &SimulatedSequencer::new(
            ErrorModel::uniform(0.12),
            CoverageModel::Gamma {
                mean: 20.0,
                shape: 6.0,
            },
        ),
        &units,
        151,
    );
    println!("coverage sweep at p=12% (DnaMapper): PSNR of retrieved photo");
    let mut shown = Vec::new();
    for cov in (4..=20).rev() {
        let clusters: Vec<Vec<Cluster>> = pools.iter().map(|p| p.at_coverage(cov as f64)).collect();
        let psnr = match storage.decode(&clusters, &RetrieveOptions::default()) {
            Ok((retrieved, _)) => {
                let bytes = retrieved
                    .file("photo")
                    .map(|f| f.bytes.clone())
                    .unwrap_or_default();
                let got = codec.decode_with_expected(&bytes, image.width(), image.height());
                let psnr = image.psnr(&got).min(60.0);
                let name = format!("cov{cov:02}_psnr{:.1}.pgm", psnr);
                fs::write(dir.join(&name), got.to_pgm()).expect("write");
                shown.push(name);
                psnr
            }
            Err(_) => f64::NAN,
        };
        println!("  coverage {cov:>2}: {psnr:.1} dB");
    }
    println!("\nwrote {} PGM files to {}", shown.len() + 1, dir.display());
    println!("(paper Fig. 15 shows the original, a 1.2 dB-loss, and a 7.1 dB-loss decode)");
}
