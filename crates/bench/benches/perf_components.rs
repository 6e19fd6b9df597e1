//! Criterion micro-benchmarks for the substrate components.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dna_align::edit_distance;
use dna_channel::{ErrorModel, IdsChannel};
use dna_consensus::{BmaTwoWay, IterativeReconstructor, TraceReconstructor};
use dna_crypto::ChaCha20;
use dna_gf::Field;
use dna_media::{GrayImage, JpegLikeCodec};
use dna_reed_solomon::{ReedSolomon, RsScratch};
use dna_strand::DnaString;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_gf(c: &mut Criterion) {
    let f = Field::gf256();
    let pairs: Vec<(u16, u16)> = (0..1024)
        .map(|i| ((i * 7 % 255 + 1), (i * 13 % 255 + 1)))
        .collect();
    c.bench_function("gf256_mul_1k", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for &(x, y) in &pairs {
                acc ^= f.mul(x, y);
            }
            black_box(acc)
        })
    });
    // The table-driven kernels the RS hot paths are built on.
    let elems: Vec<u16> = (0..1024).map(|i| (i * 11 % 256) as u16).collect();
    let table = f.mul_table(0x1D);
    c.bench_function("gf256_mul_table_slice_1k", |b| {
        b.iter_batched(
            || elems.clone(),
            |mut xs| {
                table.mul_slice(&mut xs);
                black_box(xs)
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("gf256_horner_eval_1k", |b| {
        b.iter(|| black_box(table.horner_eval(&elems)))
    });
    let mut acc = vec![0u16; 1024];
    c.bench_function("gf256_mul_add_slice_1k", |b| {
        b.iter(|| {
            f.mul_add_slice(&mut acc, &elems, 0x53);
            black_box(acc[0])
        })
    });
    // Forced-scalar reference rows for the dispatched kernels above: the
    // pairwise gap is the measured SIMD speedup on this machine.
    c.bench_function("gf256_mul_table_slice_scalar_1k", |b| {
        b.iter_batched(
            || elems.clone(),
            |mut xs| {
                table.mul_slice_in(dna_gf::dispatch::Kernel::Scalar, &mut xs);
                black_box(xs)
            },
            BatchSize::SmallInput,
        )
    });
    let mut acc_scalar = vec![0u16; 1024];
    c.bench_function("gf256_mul_add_slice_scalar_1k", |b| {
        b.iter(|| {
            table.mul_add_slice_in(dna_gf::dispatch::Kernel::Scalar, &mut acc_scalar, &elems);
            black_box(acc_scalar[0])
        })
    });
    // The batched multi-root syndrome kernel against its per-root form:
    // 47 roots over a 255-symbol word, the RS(208,47) decode shape.
    let roots: Vec<dna_gf::MulTable> = (1..=47i64).map(|j| f.mul_table(f.alpha_pow(j))).collect();
    let word: Vec<u16> = (0..255).map(|i| (i * 11 % 256) as u16).collect();
    let mut synd = Vec::with_capacity(roots.len());
    c.bench_function("gf256_syndromes_block_47x255", |b| {
        b.iter(|| {
            dna_gf::horner_eval_block_in(
                dna_gf::dispatch::SimdMode::Auto,
                &roots,
                &word,
                &mut synd,
            );
            black_box(synd[0])
        })
    });
    c.bench_function("gf256_syndromes_per_root_47x255", |b| {
        b.iter(|| {
            dna_gf::horner_eval_block_in(
                dna_gf::dispatch::SimdMode::Scalar,
                &roots,
                &word,
                &mut synd,
            );
            black_box(synd[0])
        })
    });
    let f16 = Field::gf65536();
    let wide: Vec<u16> = (0..1024).map(|i| (i * 52_711 % 65_536) as u16).collect();
    let wide_table = f16.mul_table(0xBEEF);
    c.bench_function("gf65536_horner_eval_1k", |b| {
        b.iter(|| black_box(wide_table.horner_eval(&wide)))
    });
}

fn bench_rs(c: &mut Criterion) {
    let rs = ReedSolomon::new(Field::gf256(), 208, 47).expect("params");
    let mut rng = StdRng::seed_from_u64(1);
    let data: Vec<u16> = (0..208).map(|_| rng.gen_range(0..256)).collect();
    let clean = rs.encode(&data).expect("encode");
    c.bench_function("rs_encode_208_47", |b| {
        b.iter(|| black_box(rs.encode(&data).unwrap()))
    });
    c.bench_function("rs_decode_20_errors", |b| {
        b.iter_batched(
            || {
                let mut cw = clean.clone();
                for k in 0..20 {
                    cw[k * 12] ^= 0x3C;
                }
                cw
            },
            |mut cw| {
                rs.decode(&mut cw, &[]).unwrap();
                black_box(cw)
            },
            BatchSize::SmallInput,
        )
    });
    // The syndrome kernel alone (every syndrome of a valid codeword).
    c.bench_function("rs_syndromes_is_codeword_255", |b| {
        b.iter(|| black_box(rs.is_codeword(&clean)))
    });
    // The common decode shape: a couple of errors, where the Chien
    // early-exit stops after the last root instead of walking all 255
    // positions — against an explicit reusable scratch.
    let mut scratch = RsScratch::new();
    scratch.warm_up(&rs);
    c.bench_function("rs_decode_2_errors_scratch", |b| {
        b.iter_batched(
            || {
                let mut cw = clean.clone();
                cw[10] ^= 0x21;
                cw[90] ^= 0x7E;
                cw
            },
            |mut cw| {
                rs.decode_with_scratch(&mut cw, &[], &mut scratch).unwrap();
                black_box(cw)
            },
            BatchSize::SmallInput,
        )
    });
    let erasures: Vec<usize> = (0..20).map(|k| k * 9).collect();
    c.bench_function("rs_decode_20_erasures_scratch", |b| {
        b.iter_batched(
            || {
                let mut cw = clean.clone();
                for &p in &erasures {
                    cw[p] = 0;
                }
                cw
            },
            |mut cw| {
                rs.decode_with_scratch(&mut cw, &erasures, &mut scratch)
                    .unwrap();
                black_box(cw)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_align_and_consensus(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let a = DnaString::random(124, &mut rng);
    let channel = IdsChannel::new(ErrorModel::uniform(0.06));
    let b_read = channel.transmit(&a, &mut rng);
    c.bench_function("edit_distance_124", |b| {
        b.iter(|| black_box(edit_distance(a.as_slice(), b_read.as_slice())))
    });
    let reads = channel.transmit_many(&a, 10, &mut rng);
    c.bench_function("consensus_two_way_n10_l124", |b| {
        b.iter(|| black_box(BmaTwoWay::default().reconstruct(&reads, 124)))
    });
    // All-reads-agree consensus: every step is a full 8-column run.
    let clean_reads = vec![a.clone(); 10];
    c.bench_function("consensus_two_way_clean_n10_l124", |b| {
        b.iter(|| black_box(BmaTwoWay::default().reconstruct(&clean_reads, 124)))
    });
    c.bench_function("consensus_iterative_n10_l124", |b| {
        b.iter(|| black_box(IterativeReconstructor::default().reconstruct(&reads, 124)))
    });
}

fn bench_strand_pack(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let strand = DnaString::random(4096, &mut rng);
    let bases = strand.as_slice();
    let mut packed = vec![0u8; dna_strand::bits::packed_base_len(bases.len())];
    c.bench_function("strand_pack_bases_4k", |b| {
        b.iter(|| {
            dna_strand::bits::pack_bases_into(bases, &mut packed);
            black_box(packed[0])
        })
    });
    let mut out = Vec::with_capacity(bases.len());
    c.bench_function("strand_unpack_bases_4k", |b| {
        b.iter(|| {
            dna_strand::bits::unpack_bases_into(&packed, bases.len(), &mut out);
            black_box(out.len())
        })
    });
}

fn bench_crypto_and_media(c: &mut Criterion) {
    c.bench_function("chacha20_64kib", |b| {
        b.iter_batched(
            || vec![0u8; 65536],
            |mut buf| {
                ChaCha20::from_seed(3).apply_keystream(&mut buf);
                black_box(buf)
            },
            BatchSize::SmallInput,
        )
    });
    let img = GrayImage::synthetic_photo(64, 48, 4);
    let codec = JpegLikeCodec::new(80).expect("quality");
    let bytes = codec.encode(&img).expect("encode");
    c.bench_function("jpeg_like_encode_64x48", |b| {
        b.iter(|| black_box(codec.encode(&img).unwrap()))
    });
    c.bench_function("jpeg_like_decode_64x48", |b| {
        b.iter(|| black_box(codec.decode(&bytes).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gf, bench_rs, bench_align_and_consensus, bench_strand_pack, bench_crypto_and_media
}
criterion_main!(benches);
