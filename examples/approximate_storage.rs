//! Approximate storage of an **encrypted** image: deliberately sequence at
//! insufficient coverage and accept a lower-quality image — the paper's §5
//! use case that no content-inspecting scheme can serve (the stored bits
//! are ciphertext; only position-based ranking works).
//!
//! Decoded images are written as PGM files under `target/approx/`.
//!
//! ```text
//! cargo run --release --example approximate_storage
//! ```

use dna_skew::prelude::*;
use std::fs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let img_codec = JpegLikeCodec::new(85)?;
    let image = GrayImage::synthetic_photo(96, 72, 5);
    let file = img_codec.encode(&image)?;
    println!(
        "image: {}×{}, {} bytes encoded (then ChaCha20-encrypted)",
        image.width(),
        image.height(),
        file.len()
    );
    let archive = Archive::new(vec![FileEntry::new("photo", file)])?;

    let pipeline = Pipeline::builder()
        .params(CodecParams::laptop()?)
        .layout(Layout::DnaMapper)
        .build()?;
    let storage =
        ArchiveCodec::new(pipeline, RankingPolicy::PositionPriority).with_encryption(0xA5A5);
    let units = storage.encode(&archive)?;

    let out_dir = std::path::Path::new("target/approx");
    fs::create_dir_all(out_dir)?;
    fs::write(out_dir.join("original.pgm"), image.to_pgm())?;

    // One pool, drawn down progressively: paying for less sequencing
    // retrieves the same object at gradually lower fidelity.
    let model = ErrorModel::uniform(0.12);
    let pools = storage.pipeline().sequence_batch(
        &SimulatedSequencer::new(
            model,
            CoverageModel::Gamma {
                mean: 16.0,
                shape: 6.0,
            },
        ),
        &units,
        77,
    );
    println!("\n{:>10} {:>12} {:>10}", "coverage", "PSNR (dB)", "file");
    for cov in [16.0, 13.0, 11.0, 9.0, 7.0] {
        let clusters: Vec<Vec<Cluster>> = pools.iter().map(|p| p.at_coverage(cov)).collect();
        let name = format!("cov{:02}.pgm", cov as u32);
        match storage.decode(&clusters, &RetrieveOptions::default()) {
            Ok((retrieved, _)) => {
                let bytes = retrieved
                    .file("photo")
                    .map(|f| f.bytes.clone())
                    .unwrap_or_default();
                let decoded = img_codec.decode_with_expected(&bytes, image.width(), image.height());
                fs::write(out_dir.join(&name), decoded.to_pgm())?;
                println!(
                    "{cov:>10} {:>12.2} {name:>10}",
                    image.psnr(&decoded).min(60.0)
                );
            }
            Err(_) => println!("{cov:>10} {:>12} {:>10}", "unreadable", "-"),
        }
    }
    println!("\nPGs written to target/approx/ — the image degrades gracefully because");
    println!("its early (structurally critical) bits sit at molecule ends, which the");
    println!("consensus step reconstructs most reliably.");
    Ok(())
}
