//! The wetlab validation, in silico (paper §6.2): two small images stored
//! in all three organizations, with PCR primers on every strand, read at
//! NGS error rates (0.3%), and decoded error-free.
//!
//! The paper's wetlab run validated exactly this toolchain — its software
//! path is identical for simulated and sequenced reads; only the read
//! source differs.
//!
//! ```text
//! cargo run --release --example wetlab_scale
//! ```

use dna_skew::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let img_codec = JpegLikeCodec::new(75)?;
    let images = [
        GrayImage::synthetic_photo(40, 32, 1),
        GrayImage::checkerboard(32, 32, 4),
    ];
    let archive = Archive::new(vec![
        FileEntry::new("photo", img_codec.encode(&images[0])?),
        FileEntry::new("chart", img_codec.encode(&images[1])?),
    ])?;

    // Small unit with 20-base primers on both ends of every molecule.
    let params =
        CodecParams::new(dna_skew::gf::Field::gf256(), 12, 120, 28, 8)?.with_primer_len(20);
    println!(
        "strands: {} bases each ({} payload + 2×20 primer); NGS error model at 0.3%",
        params.strand_bases(),
        params.strand_payload_bases()
    );

    for (layout, policy) in [
        (Layout::Baseline, RankingPolicy::Sequential),
        (
            Layout::Gini {
                excluded_rows: vec![],
            },
            RankingPolicy::Sequential,
        ),
        (Layout::DnaMapper, RankingPolicy::PositionPriority),
    ] {
        let name = layout.name();
        let pipeline = Pipeline::builder()
            .params(params.clone())
            .layout(layout)
            .build()?;
        let storage = ArchiveCodec::new(pipeline, policy).with_encryption(3);
        let units = storage.encode(&archive)?;
        let pools = storage.pipeline().sequence_batch(
            &SimulatedSequencer::new(
                ErrorModel::wetlab_ngs(),
                CoverageModel::Gamma {
                    mean: 10.0,
                    shape: 6.0,
                },
            ),
            &units,
            12345,
        );
        let clusters: Vec<Vec<Cluster>> = pools.iter().map(|p| p.clusters().to_vec()).collect();
        let (retrieved, reports) = storage.decode(&clusters, &RetrieveOptions::default())?;
        let exact = retrieved == archive;
        let corrected: usize = reports.iter().map(DecodeReport::total_corrected).sum();
        println!(
            "{name:>10}: decoded exactly = {exact} ({} units, {corrected} symbols corrected)",
            units.len()
        );
        for (img, file) in images.iter().zip(["photo", "chart"]) {
            let got = img_codec.decode_with_expected(
                &retrieved
                    .file(file)
                    .map(|f| f.bytes.clone())
                    .unwrap_or_default(),
                img.width(),
                img.height(),
            );
            let psnr = img.psnr(&got);
            println!(
                "            {file}: PSNR vs original {:.1} dB",
                psnr.min(99.0)
            );
        }
    }
    println!("\nAt wetlab NGS error rates every organization decodes perfectly —");
    println!("the differences only emerge at nanopore-class noise (see the benches).");
    Ok(())
}
