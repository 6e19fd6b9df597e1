//! Integration: encrypted image archives, graceful degradation ordering,
//! and directory recovery under stress.

use dna_skew::prelude::*;

fn make_archive(codec: &JpegLikeCodec) -> (Archive, Vec<GrayImage>) {
    let images = vec![
        GrayImage::synthetic_photo(48, 40, 1),
        GrayImage::plasma(40, 40, 2),
    ];
    let files = images
        .iter()
        .enumerate()
        .map(|(i, img)| FileEntry::new(format!("img{i}"), codec.encode(img).unwrap()))
        .collect();
    (Archive::new(files).unwrap(), images)
}

fn mean_psnr(codec: &JpegLikeCodec, images: &[GrayImage], retrieved: &Archive) -> f64 {
    images
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let bytes = retrieved
                .file(&format!("img{i}"))
                .map(|f| f.bytes.clone())
                .unwrap_or_default();
            let got = codec.decode_with_expected(&bytes, img.width(), img.height());
            img.psnr(&got).min(60.0)
        })
        .sum::<f64>()
        / images.len() as f64
}

#[test]
fn dnamapper_archive_survives_and_degrades_monotonically_in_coverage() {
    let img_codec = JpegLikeCodec::new(80).unwrap();
    let (archive, images) = make_archive(&img_codec);
    let params = CodecParams::laptop().unwrap();
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(Layout::DnaMapper)
        .build()
        .unwrap();
    let storage = ArchiveCodec::new(pipeline, RankingPolicy::PositionPriority).with_encryption(9);
    let units = storage.encode(&archive).unwrap();
    let pools = storage.pipeline().sequence_batch(
        &SimulatedSequencer::new(
            ErrorModel::uniform(0.09),
            CoverageModel::Gamma {
                mean: 16.0,
                shape: 6.0,
            },
        ),
        &units,
        55,
    );
    let mut quality = Vec::new();
    for cov in [16.0, 12.0, 8.0] {
        let clusters: Vec<_> = pools.iter().map(|p| p.at_coverage(cov)).collect();
        match storage.decode(&clusters, &RetrieveOptions::default()) {
            Ok((retrieved, _)) => quality.push(mean_psnr(&img_codec, &images, &retrieved)),
            Err(_) => quality.push(0.0),
        }
    }
    assert!(
        quality[0] >= quality[1] - 1.0 && quality[1] >= quality[2] - 1.0,
        "PSNR should fall (roughly) monotonically with coverage: {quality:?}"
    );
    // At full coverage the archive must be pristine.
    assert!(quality[0] > 40.0, "full-coverage quality {quality:?}");
}

#[test]
fn directory_survives_when_files_are_damaged() {
    // DnaMapper gives the directory the highest priority: under noise that
    // corrupts file tails, names and sizes must still be recoverable.
    let img_codec = JpegLikeCodec::new(80).unwrap();
    let (archive, _) = make_archive(&img_codec);
    let params = CodecParams::laptop().unwrap();
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(Layout::DnaMapper)
        .build()
        .unwrap();
    let storage = ArchiveCodec::new(pipeline, RankingPolicy::PositionPriority);
    let units = storage.encode(&archive).unwrap();
    let pools = storage.pipeline().sequence_batch(
        &SimulatedSequencer::new(
            ErrorModel::uniform(0.10),
            CoverageModel::Gamma {
                mean: 9.0,
                shape: 6.0,
            },
        ),
        &units,
        66,
    );
    let clusters: Vec<_> = pools.iter().map(|p| p.clusters().to_vec()).collect();
    let (retrieved, reports) = storage
        .decode(&clusters, &RetrieveOptions::default())
        .expect("directory must be reconstructable at this stress level");
    // The decode is allowed to be lossy in content…
    assert!(reports.iter().any(|r| !r.is_error_free()) || retrieved == archive);
    // …but metadata must hold.
    assert_eq!(retrieved.files().len(), archive.files().len());
    for (a, b) in archive.files().iter().zip(retrieved.files()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.bytes.len(), b.bytes.len());
    }
}

#[test]
fn encryption_changes_stored_strands_but_not_results() {
    let img_codec = JpegLikeCodec::new(70).unwrap();
    let (archive, _) = make_archive(&img_codec);
    let params = CodecParams::laptop().unwrap();
    let make = |seed: Option<u64>| {
        let pipeline = Pipeline::builder()
            .params(params.clone())
            .layout(Layout::DnaMapper)
            .build()
            .unwrap();
        let mut codec = ArchiveCodec::new(pipeline, RankingPolicy::PositionPriority);
        if let Some(s) = seed {
            codec = codec.with_encryption(s);
        }
        codec
    };
    let plain_units = make(None).encode(&archive).unwrap();
    let enc_units = make(Some(4)).encode(&archive).unwrap();
    assert_ne!(
        plain_units, enc_units,
        "ciphertext must differ from plaintext"
    );

    let storage = make(Some(4));
    let pools = storage.pipeline().sequence_batch(
        &SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(2)),
        &enc_units,
        1,
    );
    let clusters: Vec<_> = pools.iter().map(|p| p.clusters().to_vec()).collect();
    let (retrieved, _) = storage
        .decode(&clusters, &RetrieveOptions::default())
        .unwrap();
    assert_eq!(retrieved, archive);
}

#[test]
fn sequential_and_priority_policies_store_identical_content() {
    let img_codec = JpegLikeCodec::new(70).unwrap();
    let (archive, _) = make_archive(&img_codec);
    let params = CodecParams::laptop().unwrap();
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
        let pipeline = Pipeline::builder()
            .params(params.clone())
            .layout(layout)
            .build()
            .unwrap();
        let storage = ArchiveCodec::new(pipeline, policy);
        let units = storage.encode(&archive).unwrap();
        let pools = storage.pipeline().sequence_batch(
            &SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(1)),
            &units,
            2,
        );
        let clusters: Vec<_> = pools.iter().map(|p| p.clusters().to_vec()).collect();
        let (retrieved, _) = storage
            .decode(&clusters, &RetrieveOptions::default())
            .unwrap();
        assert_eq!(retrieved, archive);
    }
}
