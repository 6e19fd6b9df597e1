//! A self-contained ChaCha20 stream cipher (RFC 8439 core).
//!
//! The paper evaluates DnaMapper on **end-to-end encrypted** images
//! (§6.1): because its bit-ranking heuristic is content-agnostic (file
//! position only), approximate storage works even when the stored bytes are
//! ciphertext — unlike earlier approximate-storage schemes that must parse
//! the content. This crate provides the encryption layer used by the
//! pipeline and examples. It is an educational implementation for the
//! reproduction — do not use it to protect real secrets.
//!
//! # Examples
//!
//! ```
//! use dna_crypto::ChaCha20;
//!
//! let key = [7u8; 32];
//! let nonce = [1u8; 12];
//! let mut data = b"graceful degradation".to_vec();
//! ChaCha20::new(&key, &nonce).apply_keystream(&mut data);
//! assert_ne!(&data, b"graceful degradation");
//! ChaCha20::new(&key, &nonce).apply_keystream(&mut data); // XOR is an involution
//! assert_eq!(&data, b"graceful degradation");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The ChaCha20 stream cipher with a 256-bit key and 96-bit nonce
/// (RFC 8439 parameterization, initial block counter 0 unless seeked).
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
    /// Unused keystream bytes from the current block.
    pending: [u8; 64],
    pending_len: usize,
}

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// A keystream block as its 64 serialized bytes.
fn block_bytes(block: &[u32; 16]) -> [u8; 64] {
    let mut out = [0u8; 64];
    for (bytes, word) in out.chunks_exact_mut(4).zip(block) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

impl ChaCha20 {
    /// Creates a cipher positioned at block 0 of the keystream.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> ChaCha20 {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut n = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            n[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 {
            key: k,
            nonce: n,
            counter: 0,
            pending: [0u8; 64],
            pending_len: 0,
        }
    }

    /// Derives a key and nonce deterministically from a seed, for
    /// reproducible experiment archives.
    ///
    /// This is the legacy seed-only shim: prefer [`ChaCha20::new`] with an
    /// explicit key and nonce (see [`seed_material`] for the exact mapping
    /// this constructor applies, frozen for backward compatibility).
    pub fn from_seed(seed: u64) -> ChaCha20 {
        let (key, nonce) = seed_material(seed);
        ChaCha20::new(&key, &nonce)
    }

    /// Jumps to 64-byte keystream block `block`, discarding any partially
    /// consumed block.
    pub fn seek_block(&mut self, block: u32) {
        self.counter = block;
        self.pending_len = 0;
    }

    /// Positions the stream at an arbitrary `byte_offset` into the
    /// keystream, so a single capsule (or any other slice of a long
    /// ciphertext) can be decrypted without generating the keystream that
    /// precedes it.
    ///
    /// The 32-bit block counter addresses 2³² × 64 B = 256 GiB of
    /// keystream per (key, nonce); offsets past that wrap, like repeated
    /// [`ChaCha20::apply_keystream`] calls would.
    pub fn seek(&mut self, byte_offset: u64) {
        self.seek_block((byte_offset / 64) as u32);
        let within = (byte_offset % 64) as usize;
        if within > 0 {
            self.pending = block_bytes(&self.block());
            self.pending_len = 64 - within;
            self.counter = self.counter.wrapping_add(1);
        }
    }

    /// The raw keystream block for the current counter as little-endian
    /// words. The counter is not advanced.
    fn block(&self) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter;
        state[13..16].copy_from_slice(&self.nonce);
        let initial = state;
        for _ in 0..10 {
            // column rounds
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // diagonal rounds
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(initial) {
            *word = word.wrapping_add(init);
        }
        state
    }

    /// XORs the keystream into `data`, advancing the stream position.
    /// Applying the same cipher state twice restores the plaintext.
    ///
    /// The rest of a partly used block goes first, byte by byte; every
    /// whole block after it is XORed a word at a time, and a final
    /// partial block is kept for the next call.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        let take = self.pending_len.min(data.len());
        let start = 64 - self.pending_len;
        for (d, k) in data[..take].iter_mut().zip(&self.pending[start..]) {
            *d ^= k;
        }
        self.pending_len -= take;
        let mut blocks = data[take..].chunks_exact_mut(64);
        for chunk in &mut blocks {
            let block = self.block();
            self.counter = self.counter.wrapping_add(1);
            for (bytes, k) in chunk.chunks_exact_mut(4).zip(block) {
                let word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk")) ^ k;
                bytes.copy_from_slice(&word.to_le_bytes());
            }
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            self.pending = block_bytes(&self.block());
            self.counter = self.counter.wrapping_add(1);
            for (d, k) in tail.iter_mut().zip(&self.pending) {
                *d ^= k;
            }
            self.pending_len = 64 - tail.len();
        }
    }

    /// Convenience: encrypt (or decrypt) a buffer with a fresh cipher.
    pub fn xor_copy(key: &[u8; 32], nonce: &[u8; 12], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        ChaCha20::new(key, nonce).apply_keystream(&mut out);
        out
    }
}

/// The exact (key, nonce) pair that [`ChaCha20::from_seed`] derives from a
/// seed. Exposed so callers migrating from seed-only keying to the
/// `(key, nonce)` API can reproduce historical keystreams bit-for-bit; the
/// mapping is frozen — changing it would silently re-key every archive
/// written by earlier releases.
pub fn seed_material(seed: u64) -> ([u8; 32], [u8; 12]) {
    let mut key = [0u8; 32];
    for (i, b) in seed.to_le_bytes().iter().cycle().take(32).enumerate() {
        key[i] = b.wrapping_add(i as u8).rotate_left((i % 7) as u32);
    }
    let mut nonce = [0u8; 12];
    for (i, b) in seed.to_be_bytes().iter().cycle().take(12).enumerate() {
        nonce[i] = b ^ (0xA5u8.wrapping_mul(i as u8 + 1));
    }
    (key, nonce)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ChaCha20 {
        /// The block-at-a-time reference stream: the serialized keystream
        /// block for the current counter, advancing the counter.
        fn next_block(&mut self) -> [u8; 64] {
            let block = block_bytes(&self.block());
            self.counter = self.counter.wrapping_add(1);
            block
        }
    }

    /// `len` keystream bytes from block `first` on, by the reference.
    fn reference_keystream(key: &[u8; 32], nonce: &[u8; 12], first: u32, len: usize) -> Vec<u8> {
        let mut c = ChaCha20::new(key, nonce);
        c.seek_block(first);
        let mut out = Vec::with_capacity(len + 64);
        while out.len() < len {
            out.extend_from_slice(&c.next_block());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn the_stream_wraps_the_block_counter_like_the_reference() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 37 + 1) as u8);
        let nonce: [u8; 12] = std::array::from_fn(|i| (i * 11) as u8);
        for counter in [u32::MAX - 1, u32::MAX] {
            let mut c = ChaCha20::new(&key, &nonce);
            c.seek_block(counter);
            let mut streamed = [0u8; 200];
            c.apply_keystream(&mut streamed);
            assert_eq!(
                streamed.to_vec(),
                reference_keystream(&key, &nonce, counter, 200),
                "counter {counter}"
            );
        }
    }

    #[test]
    fn random_seeks_and_splits_match_the_reference() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 5 + 3) as u8);
        let nonce = [0x5Au8; 12];
        let reference = reference_keystream(&key, &nonce, 0, 2048);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for _ in 0..200 {
            let offset = next(1024);
            let len = next(1024);
            let mut c = ChaCha20::new(&key, &nonce);
            c.seek(offset as u64);
            let mut data = vec![0u8; len];
            let mut at = 0;
            while at < len {
                let step = (next(300) + 1).min(len - at);
                c.apply_keystream(&mut data[at..at + step]);
                at += step;
            }
            assert_eq!(
                data,
                reference[offset..offset + len],
                "offset {offset} len {len}"
            );
        }
    }

    fn rfc_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:00:00:00:00,
        // counter 1. First 16 bytes of the serialized block:
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut c = ChaCha20::new(&rfc_key(), &nonce);
        c.seek_block(1);
        let block = c.next_block();
        assert_eq!(
            &block[..16],
            &[
                0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
                0x71, 0xc4
            ]
        );
        assert_eq!(
            &block[48..64],
            &[
                0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50,
                0x3c, 0x4e
            ]
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2: same key, nonce 00:00:00:00:00:00:00:4a:00:00:00:00,
        // counter starts at 1.
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                          only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        let mut c = ChaCha20::new(&rfc_key(), &nonce);
        c.seek_block(1);
        c.apply_keystream(&mut data);
        assert_eq!(
            &data[..16],
            &[
                0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
                0x69, 0x81
            ]
        );
        // Decrypt restores the plaintext.
        let mut c = ChaCha20::new(&rfc_key(), &nonce);
        c.seek_block(1);
        c.apply_keystream(&mut data);
        assert_eq!(&data, plaintext);
    }

    #[test]
    fn split_processing_matches_one_shot() {
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let whole = ChaCha20::xor_copy(&key, &nonce, &data);
        let mut split = data.clone();
        let mut c = ChaCha20::new(&key, &nonce);
        // Apply in ragged chunks crossing the 64-byte block boundary.
        let (first, rest) = split.split_at_mut(37);
        c.apply_keystream(first);
        let (second, third) = rest.split_at_mut(100);
        c.apply_keystream(second);
        c.apply_keystream(third);
        assert_eq!(split, whole);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ChaCha20::from_seed(1).apply_keystream(&mut a);
        ChaCha20::from_seed(2).apply_keystream(&mut b);
        assert_ne!(a, b);
        let mut a2 = vec![0u8; 32];
        ChaCha20::from_seed(1).apply_keystream(&mut a2);
        assert_eq!(a, a2);
    }

    #[test]
    fn seed_material_reproduces_legacy_keystream() {
        // The first 16 keystream bytes the pre-(key, nonce) from_seed(42)
        // produced, pinned so the shim can never drift from history.
        const LEGACY_SEED_42_PREFIX: [u8; 16] = [
            0x90, 0x14, 0xf3, 0x4f, 0x9c, 0x88, 0xb7, 0x6a, 0x51, 0xc6, 0xfa, 0xf6, 0xea, 0x5e,
            0x3d, 0x02,
        ];
        let mut via_shim = [0u8; 16];
        ChaCha20::from_seed(42).apply_keystream(&mut via_shim);
        assert_eq!(via_shim, LEGACY_SEED_42_PREFIX);
        let (key, nonce) = seed_material(42);
        let mut via_material = [0u8; 16];
        ChaCha20::new(&key, &nonce).apply_keystream(&mut via_material);
        assert_eq!(via_material, LEGACY_SEED_42_PREFIX);
    }

    #[test]
    fn byte_seek_matches_streaming() {
        let key = [11u8; 32];
        let nonce = [5u8; 12];
        let mut reference = vec![0u8; 500];
        ChaCha20::new(&key, &nonce).apply_keystream(&mut reference);
        // Seek to assorted offsets (mid-block, block-aligned, past several
        // blocks) and check the tail matches the straight-through stream.
        for offset in [0usize, 1, 63, 64, 65, 130, 255, 256, 499] {
            let mut c = ChaCha20::new(&key, &nonce);
            c.seek(offset as u64);
            let mut tail = vec![0u8; 500 - offset];
            c.apply_keystream(&mut tail);
            assert_eq!(tail, reference[offset..], "offset {offset}");
        }
    }

    #[test]
    fn seek_block_and_byte_seek_agree_on_block_boundaries() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut by_block = ChaCha20::new(&key, &nonce);
        by_block.seek_block(3);
        let mut by_byte = ChaCha20::new(&key, &nonce);
        by_byte.seek(3 * 64);
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        by_block.apply_keystream(&mut a);
        by_byte.apply_keystream(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn keystream_looks_balanced() {
        // Sanity: over 64 KiB, each bit position should be ~50% ones. A
        // catastrophically broken core (e.g. all-zero keystream) fails this.
        let mut buf = vec![0u8; 65536];
        ChaCha20::from_seed(42).apply_keystream(&mut buf);
        let ones: u64 = buf.iter().map(|b| u64::from(b.count_ones())).sum();
        let total = (buf.len() * 8) as f64;
        let frac = ones as f64 / total;
        assert!((0.49..0.51).contains(&frac), "ones fraction {frac}");
    }
}
