//! Pluggable byte → base transcoding for strand payloads.
//!
//! The pipeline assembles each strand as `[left primer][index][row
//! symbols][right primer]`. Everything between the primers is the
//! *payload*, and a [`TranscoderSpec`] owns its base-level layout: how
//! many bases it occupies, where each logical field lands, and how
//! index/symbol values map to bases. Every reader of a strand field —
//! the decoder, the unlabeled-pool demultiplexer, the anchored
//! clusterer, the fault injector — asks the spec, so no second copy of
//! a layout exists. All transcoders are **fixed-rate** — payload length
//! depends only on the geometry, never on the data — because consensus
//! reconstructs every cluster to the same expected strand length.
//!
//! Three layouts ship:
//!
//! * [`TranscoderSpec::Direct`] — the paper's maximum-density
//!   2-bits-per-base mapping (byte-identical to the historical
//!   hard-coded layout).
//! * [`TranscoderSpec::GcPadded`] — DNAproof-style: the direct layout
//!   plus a fixed-length corrective pad that steers GC toward 50%.
//!   Best-effort compliance at modest density cost.
//! * [`TranscoderSpec::Trellis`] — Helix-style fixed-rate base-3
//!   rotating trellis. Each trit advances the base by 1–3 positions, so
//!   no base ever repeats (homopolymer run ≤ 1 in the payload,
//!   provably), and whitened digits plus periodic balance bases keep GC
//!   near 50%.

use crate::{Base, DnaString, StrandError};
use std::fmt;

/// The logical shape of a strand payload: one index field followed by
/// `rows` symbol fields. Field 0 is the index; field `1 + r` is row `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadGeometry {
    /// Width of the column-index field in bits (even, 2..=32).
    pub index_bits: u8,
    /// Number of Reed–Solomon rows (symbol fields) per strand.
    pub rows: usize,
    /// Width of one symbol in bits (even, 2..=16).
    pub symbol_bits: u8,
}

impl PayloadGeometry {
    /// Number of logical fields (index + rows).
    pub fn fields(&self) -> usize {
        1 + self.rows
    }

    /// Bit width of field `field` (0 = index, 1.. = rows).
    pub fn field_bits(&self, field: usize) -> u8 {
        if field == 0 {
            self.index_bits
        } else {
            self.symbol_bits
        }
    }

    fn validate(&self) -> Result<(), StrandError> {
        if !self.index_bits.is_multiple_of(2) || self.index_bits == 0 || self.index_bits > 32 {
            return Err(StrandError::OddSymbolWidth(self.index_bits));
        }
        if !self.symbol_bits.is_multiple_of(2) || self.symbol_bits == 0 || self.symbol_bits > 16 {
            return Err(StrandError::OddSymbolWidth(self.symbol_bits));
        }
        Ok(())
    }
}

/// A fixed-rate mapping between payload fields and bases, stored as a
/// plain value in configs, capsule headers and `CodecParams`.
///
/// Every layout is deterministic and total on decode: noisy payloads
/// still produce *some* value, because error correction above this layer
/// handles wrong values far better than missing ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TranscoderSpec {
    /// 2 bits/base, MSB-first, no constraints.
    #[default]
    Direct,
    /// Direct data with one GC-corrective pad base interleaved after
    /// every four data bases.
    GcPadded,
    /// Base-3 rotating trellis, homopolymer run ≤ 1.
    Trellis,
}

impl TranscoderSpec {
    /// Every selectable spec, in id order.
    pub const ALL: [TranscoderSpec; 3] = [
        TranscoderSpec::Direct,
        TranscoderSpec::GcPadded,
        TranscoderSpec::Trellis,
    ];

    /// Stable wire id (capsule header byte). `Direct` is 0 so legacy
    /// headers whose pad byte was always written as zero decode as the
    /// layout they were actually written with.
    pub fn id(self) -> u8 {
        match self {
            TranscoderSpec::Direct => 0,
            TranscoderSpec::GcPadded => 1,
            TranscoderSpec::Trellis => 2,
        }
    }

    /// Inverse of [`id`](Self::id).
    pub fn from_id(id: u8) -> Option<TranscoderSpec> {
        TranscoderSpec::ALL.into_iter().find(|s| s.id() == id)
    }

    /// The name of the retired transcoder that wire id `id` once named.
    /// Retired ids stay reserved, so a pool written with one fails with a
    /// typed error instead of decoding under another layout. Id 3 was the
    /// 1-bit/base rotation code, which the trellis beats on density,
    /// constraint compliance, and exact decode alike.
    pub fn retired_name(id: u8) -> Option<&'static str> {
        match id {
            3 => Some("rotation"),
            _ => None,
        }
    }

    /// The CLI/config spelling.
    pub fn name(self) -> &'static str {
        match self {
            TranscoderSpec::Direct => "direct",
            TranscoderSpec::GcPadded => "gc-padded",
            TranscoderSpec::Trellis => "trellis",
        }
    }

    /// Parses the CLI/config spelling (case-sensitive).
    pub fn parse(text: &str) -> Option<TranscoderSpec> {
        TranscoderSpec::ALL.into_iter().find(|s| s.name() == text)
    }

    /// Payload length in bases for `geom`. Fixed for a given geometry.
    pub fn payload_bases(self, geom: PayloadGeometry) -> usize {
        match self {
            TranscoderSpec::Direct => Direct::payload_bases(geom),
            TranscoderSpec::GcPadded => GcPadded::payload_bases(geom),
            TranscoderSpec::Trellis => Trellis::payload_bases(geom),
        }
    }

    /// `(start, len)` of the base span that field `field` occupies
    /// within the payload. Spans must cover every base whose corruption
    /// can change the decoded field value: the skew profiler attributes
    /// position-dependent channel error by them, and field 0's span is
    /// the window the demultiplexer, unlabeled-pool routing and the
    /// fault injector treat as the index.
    pub fn field_span(self, field: usize, geom: PayloadGeometry) -> (usize, usize) {
        match self {
            TranscoderSpec::Direct => Direct::field_span(field, geom),
            TranscoderSpec::GcPadded => GcPadded::field_span(field, geom),
            TranscoderSpec::Trellis => Trellis::field_span(field, geom),
        }
    }

    /// Appends the encoded payload (index, then `geom.rows` symbols) to
    /// `out`. Exactly [`payload_bases`](Self::payload_bases) bases are
    /// appended on success; on error `out` may hold a partial payload
    /// and should be discarded.
    ///
    /// # Errors
    ///
    /// Returns [`StrandError::ValueTooWide`] when a value exceeds its
    /// field width, [`StrandError::LengthMismatch`] when `symbols` has
    /// the wrong count, and [`StrandError::OddSymbolWidth`] for invalid
    /// geometry.
    pub fn encode_payload_into(
        self,
        index: u32,
        symbols: &[u16],
        geom: PayloadGeometry,
        out: &mut DnaString,
    ) -> Result<(), StrandError> {
        match self {
            TranscoderSpec::Direct => Direct::encode_payload_into(index, symbols, geom, out),
            TranscoderSpec::GcPadded => GcPadded::encode_payload_into(index, symbols, geom, out),
            TranscoderSpec::Trellis => Trellis::encode_payload_into(index, symbols, geom, out),
        }
    }

    /// Decodes the column index from a (primer-trimmed) payload. Only
    /// the bases of field 0's [`field_span`](Self::field_span) are read,
    /// and nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`StrandError::LengthMismatch`] when the payload is too
    /// short to carry the index field, and
    /// [`StrandError::OddSymbolWidth`] for invalid geometry.
    #[inline]
    pub fn decode_index(self, payload: &[Base], geom: PayloadGeometry) -> Result<u32, StrandError> {
        self.decode_field(payload, 0, geom).map(|v| v as u32)
    }

    /// Decodes row `row`'s symbol from a (primer-trimmed) payload.
    ///
    /// # Errors
    ///
    /// Returns [`StrandError::LengthMismatch`] when the payload is too
    /// short to carry the row's field, and
    /// [`StrandError::OddSymbolWidth`] for invalid geometry.
    #[inline]
    pub fn decode_symbol(
        self,
        payload: &[Base],
        row: usize,
        geom: PayloadGeometry,
    ) -> Result<u16, StrandError> {
        self.decode_field(payload, 1 + row, geom).map(|v| v as u16)
    }

    // Inlined into the decoder's per-row loop, where the geometry check
    // and the dispatch are loop-invariant and hoist out of it.
    #[inline]
    fn decode_field(
        self,
        payload: &[Base],
        field: usize,
        geom: PayloadGeometry,
    ) -> Result<u64, StrandError> {
        geom.validate()?;
        match self {
            TranscoderSpec::Direct => Direct::decode_field(payload, field, geom),
            TranscoderSpec::GcPadded => GcPadded::decode_field(payload, field, geom),
            TranscoderSpec::Trellis => Trellis::decode_field(payload, field, geom),
        }
    }
}

impl fmt::Display for TranscoderSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn check_value(value: u64, width: u8) -> Result<(), StrandError> {
    if width < 64 && value >> width != 0 {
        return Err(StrandError::ValueTooWide { value, width });
    }
    Ok(())
}

fn check_rows(symbols: &[u16], geom: PayloadGeometry) -> Result<(), StrandError> {
    if symbols.len() != geom.rows {
        return Err(StrandError::LengthMismatch {
            expected: geom.rows,
            actual: symbols.len(),
        });
    }
    Ok(())
}

fn check_len(payload: &[Base], needed: usize) -> Result<(), StrandError> {
    if payload.len() < needed {
        return Err(StrandError::LengthMismatch {
            expected: needed,
            actual: payload.len(),
        });
    }
    Ok(())
}

/// 2-bit MSB-first direct mapping: index bases then contiguous row
/// symbols. Byte-identical to the layout the pipeline used before
/// transcoders existed.
struct Direct;

impl Direct {
    fn index_bases(geom: PayloadGeometry) -> usize {
        usize::from(geom.index_bits) / 2
    }

    fn sym_bases(geom: PayloadGeometry) -> usize {
        usize::from(geom.symbol_bits) / 2
    }

    fn payload_bases(geom: PayloadGeometry) -> usize {
        Self::index_bases(geom) + geom.rows * Self::sym_bases(geom)
    }

    fn field_span(field: usize, geom: PayloadGeometry) -> (usize, usize) {
        let ib = Self::index_bases(geom);
        let sb = Self::sym_bases(geom);
        if field == 0 {
            (0, ib)
        } else {
            (ib + (field - 1) * sb, sb)
        }
    }

    fn encode_payload_into(
        index: u32,
        symbols: &[u16],
        geom: PayloadGeometry,
        out: &mut DnaString,
    ) -> Result<(), StrandError> {
        geom.validate()?;
        check_rows(symbols, geom)?;
        crate::index::encode_index_into(index, geom.index_bits, out)?;
        for &sym in symbols {
            crate::bits::encode_symbol_into(sym, geom.symbol_bits, out)?;
        }
        Ok(())
    }

    /// Field `field`'s value, read MSB-first at two bits per base.
    fn decode_field(
        payload: &[Base],
        field: usize,
        geom: PayloadGeometry,
    ) -> Result<u64, StrandError> {
        let (start, len) = Self::field_span(field, geom);
        check_len(payload, start + len)?;
        Ok(payload[start..start + len]
            .iter()
            .fold(0, |value, b| value << 2 | u64::from(b.to_bits())))
    }
}

/// One GC-corrective pad base follows every this-many data bases. Enough
/// leverage to move GC by ~10 percentage points, and frequent enough to
/// bound pad-free stretches to `PAD_INTERVAL` bases.
const PAD_INTERVAL: usize = 4;

/// One trellis balance base is emitted after every this-many data trits.
const BALANCE_INTERVAL: usize = 8;

/// DNAproof-style layout: the direct 2-bit data stream with one
/// corrective pad base interleaved after every [`PAD_INTERVAL`] data
/// bases. Each pad base is drawn from the GC side that reduces running
/// disparity, whitened by a position-keyed stream (`pad_base`) and never
/// repeating the previous base. Data bases remain unconstrained, so
/// compliance is best-effort (the ablation quantifies it) — but the
/// interleaved pad corrects GC *locally*, where windowed constraints
/// actually look.
///
/// The pad was originally a contiguous tail after the data region. That
/// shape is a consensus hazard, not just a stylistic choice: the
/// two-sided trace reconstruction scans inward from the strand ends, and
/// crossing the pad→data junction derailed the backward scan into a
/// coherent two-base phase shift — the back half of the data region
/// decoded as `truth[i−2]` for a quarter of all clusters, at *any*
/// coverage, under indel-heavy channels. Interleaving removes the
/// junction entirely (the `ablation_transcoder` bench flushed this out;
/// `gc_pad_is_interleaved_run_breaking_and_aperiodic` pins the shape).
///
/// Decoding skips the pad by position arithmetic (`data_pos`) —
/// the schedule is fixed, so every field still decodes with random
/// access.
struct GcPadded;

impl GcPadded {
    /// Pad length: one corrective base per [`PAD_INTERVAL`] data bases
    /// (a final pad closes any partial group, keeping the rate fixed).
    fn pad_bases(geom: PayloadGeometry) -> usize {
        Direct::payload_bases(geom).div_ceil(PAD_INTERVAL)
    }

    /// Strand position of data base `i`: `i` plus the pads scheduled
    /// before it.
    fn data_pos(i: usize) -> usize {
        i + i / PAD_INTERVAL
    }

    /// Whitened, run-free corrective base for pad position `p`. The
    /// candidates are the bases on whichever side of the GC ledger needs
    /// filling (both sides when balanced), minus `prev`; a position-keyed
    /// `splitmix64` stream picks among them.
    ///
    /// The whitening is load-bearing, not cosmetic: a greedy "minimize
    /// disparity, lexicographically-first on ties" rule degenerates into
    /// a pure 2-periodic pad (`CGCGCG…`, `ACACAC…`), and periodic
    /// stretches phase-lock the alignment-based consensus under indel
    /// noise.
    fn pad_base(prev: Option<Base>, gc: usize, emitted: usize, p: usize) -> Base {
        let disparity = 2 * gc as i64 - emitted as i64;
        let candidates: Vec<Base> = Base::ALL
            .into_iter()
            .filter(|&b| Some(b) != prev)
            .filter(|&b| match disparity {
                d if d > 0 => !b.is_gc(),
                d if d < 0 => b.is_gc(),
                _ => true,
            })
            .collect();
        // `prev` removes at most one base from the chosen side, so at
        // least one candidate always remains.
        let pick = splitmix64((p as u64).wrapping_add(0x6763_7061_6400)) as usize;
        candidates[pick % candidates.len()]
    }

    /// The base ≠ `prev` that minimizes GC disparity after appending,
    /// lexicographically-first on ties.
    fn balance_base(prev: Option<Base>, gc: usize, emitted: usize) -> Base {
        let mut best: Option<(i64, Base)> = None;
        for b in Base::ALL {
            if Some(b) == prev {
                continue;
            }
            let gc_after = gc + usize::from(b.is_gc());
            let disparity = (2 * gc_after as i64 - (emitted as i64 + 1)).abs();
            if best.is_none_or(|(d, _)| disparity < d) {
                best = Some((disparity, b));
            }
        }
        best.expect("at least three candidates remain").1
    }

    fn payload_bases(geom: PayloadGeometry) -> usize {
        Direct::payload_bases(geom) + Self::pad_bases(geom)
    }

    fn field_span(field: usize, geom: PayloadGeometry) -> (usize, usize) {
        // The direct span, stretched over the pads interleaved inside it.
        let (start, len) = Direct::field_span(field, geom);
        let mapped_start = Self::data_pos(start);
        let mapped_end = Self::data_pos(start + len - 1) + 1;
        (mapped_start, mapped_end - mapped_start)
    }

    fn encode_payload_into(
        index: u32,
        symbols: &[u16],
        geom: PayloadGeometry,
        out: &mut DnaString,
    ) -> Result<(), StrandError> {
        let mut data = DnaString::new();
        Direct::encode_payload_into(index, symbols, geom, &mut data)?;
        let mut gc = 0usize;
        let mut emitted = 0usize;
        let mut prev: Option<Base> = None;
        let mut pads = 0usize;
        fn push(
            b: Base,
            out: &mut DnaString,
            gc: &mut usize,
            emitted: &mut usize,
            prev: &mut Option<Base>,
        ) {
            out.push(b);
            *gc += usize::from(b.is_gc());
            *emitted += 1;
            *prev = Some(b);
        }
        for (i, &b) in data.as_slice().iter().enumerate() {
            push(b, out, &mut gc, &mut emitted, &mut prev);
            if (i + 1).is_multiple_of(PAD_INTERVAL) {
                let pad = Self::pad_base(prev, gc, emitted, pads);
                push(pad, out, &mut gc, &mut emitted, &mut prev);
                pads += 1;
            }
        }
        // A final pad closes any partial group so the rate stays fixed.
        while pads < Self::pad_bases(geom) {
            let pad = Self::pad_base(prev, gc, emitted, pads);
            push(pad, out, &mut gc, &mut emitted, &mut prev);
            pads += 1;
        }
        Ok(())
    }

    /// Field `field`'s direct 2-bit value, read MSB-first from its data
    /// bases with the pads skipped in place.
    fn decode_field(
        payload: &[Base],
        field: usize,
        geom: PayloadGeometry,
    ) -> Result<u64, StrandError> {
        let (start, len) = Direct::field_span(field, geom);
        check_len(payload, Self::data_pos(start + len - 1) + 1)?;
        Ok((start..start + len).fold(0u64, |value, i| {
            value << 2 | u64::from(payload[Self::data_pos(i)].to_bits())
        }))
    }
}

/// Helix-style fixed-rate base-3 rotating trellis.
///
/// Each field value is written MSB-first in base 3; a trit `t ∈ {0,1,2}`
/// advances the previous base by `1 + t` positions in `Base::ALL` order
/// (mod 4), so **the emitted base never equals its predecessor** and the
/// payload's homopolymer run is provably ≤ 1. Digits are whitened with a
/// position-keyed `splitmix64` stream so constant data still produces
/// balanced bases, and after every [`BALANCE_INTERVAL`] data trits one
/// corrective balance base (schedule-determined, skipped by the decoder)
/// steers GC toward 50%.
///
/// Density: a `w`-bit field costs `⌈w·log₂3⁻¹⌉`-ish trits — the smallest
/// `n` with `3ⁿ ≥ 2^w` — about 1.19 bits/base after balance overhead,
/// versus 2.0 for the direct layout.
///
/// Every field decodes with random access: the balance schedule depends
/// only on global trit position, and the rotation predecessor is simply
/// the payload base before the field's span (a virtual `A` at position
/// 0), never hidden encoder state.
struct Trellis;

impl Trellis {
    /// Smallest trit count `n` with `3^n >= 2^width`.
    fn trits_for_bits(width: u8) -> usize {
        let target = 1u128 << width;
        let mut cap = 1u128;
        let mut n = 0usize;
        while cap < target {
            cap *= 3;
            n += 1;
        }
        n
    }

    /// Payload base position of data trit `t` under the balance
    /// schedule (one extra base after each complete interval).
    fn base_pos(t: usize) -> usize {
        t + t / BALANCE_INTERVAL
    }

    /// `(first_trit, trit_count)` of a field.
    fn field_trits(field: usize, geom: PayloadGeometry) -> (usize, usize) {
        let it = Self::trits_for_bits(geom.index_bits);
        let st = Self::trits_for_bits(geom.symbol_bits);
        if field == 0 {
            (0, it)
        } else {
            (it + (field - 1) * st, st)
        }
    }

    /// Position-keyed whitening offset for data trit `t`.
    fn whiten(t: usize) -> usize {
        (splitmix64(t as u64) % 3) as usize
    }

    /// The base a (whitened) trit advances to from `prev`.
    fn step(prev: Base, trit: usize) -> Base {
        Base::ALL[(usize::from(prev.to_bits()) + 1 + trit) % 4]
    }

    /// Recovers the whitened trit from consecutive bases. Total: a
    /// repeated base (impossible in well-formed output) reads as trit 0.
    fn unstep(prev: Base, cur: Base) -> usize {
        let delta = (usize::from(cur.to_bits()) + 4 - usize::from(prev.to_bits())) % 4;
        delta.saturating_sub(1)
    }

    /// Splits `value` into `n` trits, MSB-first.
    fn to_trits(value: u64, n: usize, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + n, 0);
        let mut v = value;
        for slot in out[start..].iter_mut().rev() {
            *slot = (v % 3) as u8;
            v /= 3;
        }
    }

    fn decode_field(
        payload: &[Base],
        field: usize,
        geom: PayloadGeometry,
    ) -> Result<u64, StrandError> {
        let (t0, n) = Self::field_trits(field, geom);
        let last = Self::base_pos(t0 + n - 1);
        check_len(payload, last + 1)?;
        let mut value = 0u64;
        for t in t0..t0 + n {
            let pos = Self::base_pos(t);
            let prev = if pos == 0 { Base::A } else { payload[pos - 1] };
            let whitened = Self::unstep(prev, payload[pos]);
            let digit = (whitened + 3 - Self::whiten(t)) % 3;
            value = value * 3 + digit as u64;
        }
        let width = geom.field_bits(field);
        let max = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Ok(value.min(max))
    }

    fn payload_bases(geom: PayloadGeometry) -> usize {
        let trits = Self::trits_for_bits(geom.index_bits)
            + geom.rows * Self::trits_for_bits(geom.symbol_bits);
        Self::base_pos(trits)
    }

    fn field_span(field: usize, geom: PayloadGeometry) -> (usize, usize) {
        let (t0, n) = Self::field_trits(field, geom);
        let first = Self::base_pos(t0);
        let last = Self::base_pos(t0 + n - 1);
        (first, last - first + 1)
    }

    fn encode_payload_into(
        index: u32,
        symbols: &[u16],
        geom: PayloadGeometry,
        out: &mut DnaString,
    ) -> Result<(), StrandError> {
        geom.validate()?;
        check_rows(symbols, geom)?;
        check_value(u64::from(index), geom.index_bits)?;
        let mut trits = Vec::new();
        Self::to_trits(
            u64::from(index),
            Self::trits_for_bits(geom.index_bits),
            &mut trits,
        );
        let st = Self::trits_for_bits(geom.symbol_bits);
        for &sym in symbols {
            check_value(u64::from(sym), geom.symbol_bits)?;
            Self::to_trits(u64::from(sym), st, &mut trits);
        }
        // The rotation predecessor at payload start is a virtual A; the
        // decoder assumes the same, so the left primer's final base does
        // not participate in the trellis.
        let mut prev = Base::A;
        let mut gc = 0usize;
        let mut emitted = 0usize;
        for (t, &digit) in trits.iter().enumerate() {
            let whitened = (usize::from(digit) + Self::whiten(t)) % 3;
            let b = Self::step(prev, whitened);
            out.push(b);
            gc += usize::from(b.is_gc());
            emitted += 1;
            prev = b;
            if (t + 1).is_multiple_of(BALANCE_INTERVAL) {
                let bal = GcPadded::balance_base(Some(prev), gc, emitted);
                out.push(bal);
                gc += usize::from(bal.is_gc());
                emitted += 1;
                prev = bal;
            }
        }
        Ok(())
    }
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints;

    fn geom(index_bits: u8, rows: usize, symbol_bits: u8) -> PayloadGeometry {
        PayloadGeometry {
            index_bits,
            rows,
            symbol_bits,
        }
    }

    fn sample_symbols(rows: usize, width: u8, salt: u64) -> Vec<u16> {
        let max = if width == 16 {
            u16::MAX
        } else {
            (1u16 << width) - 1
        };
        (0..rows)
            .map(|r| (splitmix64(salt.wrapping_add(r as u64)) as u16) & max)
            .collect()
    }

    #[test]
    fn every_transcoder_round_trips_every_field() {
        for tc in TranscoderSpec::ALL {
            for (ib, rows, sb) in [(8u8, 30usize, 8u8), (4, 6, 4), (12, 5, 16), (2, 1, 2)] {
                let g = geom(ib, rows, sb);
                let index = u32::from(splitmix64(7) as u16) & ((1u32 << ib) - 1);
                let symbols = sample_symbols(rows, sb, 41);
                let mut out = DnaString::new();
                tc.encode_payload_into(index, &symbols, g, &mut out)
                    .unwrap();
                assert_eq!(out.len(), tc.payload_bases(g), "{} {g:?}", tc.name());
                assert_eq!(tc.decode_index(out.as_slice(), g).unwrap(), index);
                for (r, &sym) in symbols.iter().enumerate() {
                    assert_eq!(
                        tc.decode_symbol(out.as_slice(), r, g).unwrap(),
                        sym,
                        "{} row {r}",
                        tc.name()
                    );
                }
            }
        }
    }

    #[test]
    fn direct_matches_historical_layout() {
        // The Direct transcoder must emit byte-for-byte what the
        // pipeline's old hard-coded index+symbol assembly emitted.
        let g = geom(8, 3, 8);
        let symbols = [0xE4u16, 0x00, 0xFF];
        let mut out = DnaString::new();
        TranscoderSpec::Direct
            .encode_payload_into(0xA5, &symbols, g, &mut out)
            .unwrap();
        let mut expected = DnaString::new();
        crate::index::encode_index_into(0xA5, 8, &mut expected).unwrap();
        for &s in &symbols {
            crate::bits::encode_symbol_into(s, 8, &mut expected).unwrap();
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn trellis_never_repeats_a_base() {
        for salt in 0..16u64 {
            let g = geom(8, 30, 8);
            let symbols = sample_symbols(30, 8, salt);
            let mut out = DnaString::new();
            TranscoderSpec::Trellis
                .encode_payload_into((salt as u32) & 0xFF, &symbols, g, &mut out)
                .unwrap();
            assert_eq!(constraints::max_homopolymer_run(&out), 1, "salt {salt}");
        }
    }

    #[test]
    fn trellis_handles_adversarial_constant_data() {
        // All-zero and all-ones payloads are the classic killers of
        // naive mappings; whitening must keep GC inside the window.
        for fill in [0x00u16, 0xFF] {
            let g = geom(8, 30, 8);
            let symbols = vec![fill; 30];
            let mut out = DnaString::new();
            TranscoderSpec::Trellis
                .encode_payload_into(0, &symbols, g, &mut out)
                .unwrap();
            let gc = constraints::gc_content(&out);
            assert!((0.4..=0.6).contains(&gc), "fill {fill:#x}: gc {gc}");
        }
    }

    #[test]
    fn gc_padded_pulls_skewed_data_toward_half() {
        // An all-zero direct payload is 100% A; the pad cannot fully fix
        // that, but it must measurably improve a mildly skewed one.
        let g = geom(8, 30, 8);
        let symbols: Vec<u16> = (0..30)
            .map(|r| if r % 3 == 0 { 0x00 } else { 0xC3 })
            .collect();
        let mut direct = DnaString::new();
        TranscoderSpec::Direct
            .encode_payload_into(1, &symbols, g, &mut direct)
            .unwrap();
        let mut padded = DnaString::new();
        TranscoderSpec::GcPadded
            .encode_payload_into(1, &symbols, g, &mut padded)
            .unwrap();
        let before = (constraints::gc_content(&direct) - 0.5).abs();
        let after = (constraints::gc_content(&padded) - 0.5).abs();
        assert!(after < before, "pad made GC worse: {before} -> {after}");
    }

    #[test]
    fn gc_pad_is_interleaved_run_breaking_and_aperiodic() {
        // Regression for two consensus hazards the transcoder ablation
        // flushed out: (1) a greedy pad rule emitted a pure 2-periodic
        // pad (CGCGCG…/ACACAC…), and (2) a *contiguous tail* pad gave
        // the backward trace-reconstruction scan a pad→data junction to
        // derail on — a coherent 2-base phase shift corrupted the back
        // half of the data at any coverage. The pad must therefore be
        // interleaved on the fixed schedule, never repeat its
        // predecessor, and never be periodic over any long window.
        let g = geom(8, 30, 8);
        let interval = PAD_INTERVAL;
        for salt in 0..16u64 {
            let symbols = sample_symbols(30, 8, salt);
            let mut direct = DnaString::new();
            TranscoderSpec::Direct
                .encode_payload_into(salt as u32, &symbols, g, &mut direct)
                .unwrap();
            let mut out = DnaString::new();
            TranscoderSpec::GcPadded
                .encode_payload_into(salt as u32, &symbols, g, &mut out)
                .unwrap();
            let bases = out.as_slice();
            // Data bases sit at their scheduled positions, pads between.
            let mut pad_positions = Vec::new();
            for (i, &d) in direct.as_slice().iter().enumerate() {
                assert_eq!(bases[GcPadded::data_pos(i)], d, "salt {salt}");
            }
            for (pos, _) in bases.iter().enumerate() {
                if (pos + 1).is_multiple_of(interval + 1) {
                    pad_positions.push(pos);
                }
            }
            // Every pad base breaks a run with its predecessor.
            for &pos in &pad_positions {
                assert_ne!(
                    bases[pos],
                    bases[pos - 1],
                    "pad extends a run (salt {salt})"
                );
            }
            // No 16-base window of the payload is 2- or 3-periodic — the
            // signature of the original bug.
            for period in 2..=3usize {
                for (w0, w) in bases.windows(16).enumerate() {
                    let periodic = w.windows(period + 1).all(|v| v[0] == v[period]);
                    assert!(
                        !periodic,
                        "window at {w0} is {period}-periodic (salt {salt})"
                    );
                }
            }
        }
    }

    #[test]
    fn field_spans_tile_the_payload() {
        for tc in TranscoderSpec::ALL {
            let g = geom(8, 5, 8);
            let total = tc.payload_bases(g);
            let mut prev_end = 0usize;
            for f in 0..g.fields() {
                let (start, len) = tc.field_span(f, g);
                assert!(start >= prev_end, "{} field {f} overlaps", tc.name());
                assert!(len > 0);
                assert!(start + len <= total, "{} field {f} out of range", tc.name());
                prev_end = start + len;
            }
        }
    }

    #[test]
    fn decode_is_total_on_noise() {
        // Corrupt every base in turn; decode must return *some* value
        // in range, never panic or error.
        let g = geom(8, 4, 8);
        let symbols = sample_symbols(4, 8, 9);
        for tc in TranscoderSpec::ALL {
            let mut out = DnaString::new();
            tc.encode_payload_into(3, &symbols, g, &mut out).unwrap();
            for i in 0..out.len() {
                let mut noisy: Vec<Base> = out.as_slice().to_vec();
                noisy[i] = Base::ALL[(usize::from(noisy[i].to_bits()) + 1) % 4];
                tc.decode_index(&noisy, g).unwrap();
                for r in 0..4 {
                    let sym = tc.decode_symbol(&noisy, r, g).unwrap();
                    assert!(u32::from(sym) <= 0xFF, "{}", tc.name());
                }
            }
        }
    }

    #[test]
    fn spec_ids_round_trip_and_direct_is_zero() {
        assert_eq!(TranscoderSpec::Direct.id(), 0);
        for spec in TranscoderSpec::ALL {
            assert_eq!(TranscoderSpec::from_id(spec.id()), Some(spec));
            assert_eq!(TranscoderSpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(TranscoderSpec::from_id(200), None);
        assert_eq!(TranscoderSpec::from_id(3), None);
        assert_eq!(TranscoderSpec::retired_name(3), Some("rotation"));
        assert_eq!(TranscoderSpec::parse("rotation"), None);
        for spec in TranscoderSpec::ALL {
            assert_eq!(TranscoderSpec::retired_name(spec.id()), None);
        }
        assert_eq!(TranscoderSpec::parse("bogus"), None);
    }

    #[test]
    fn too_wide_values_are_rejected() {
        let g = geom(4, 1, 4);
        for tc in TranscoderSpec::ALL {
            let mut out = DnaString::new();
            assert!(matches!(
                tc.encode_payload_into(16, &[0], g, &mut out),
                Err(StrandError::ValueTooWide { .. })
            ));
            let mut out = DnaString::new();
            assert!(matches!(
                tc.encode_payload_into(1, &[16], g, &mut out),
                Err(StrandError::ValueTooWide { .. })
            ));
        }
    }

    #[test]
    fn short_payload_reports_length_mismatch() {
        let g = geom(8, 2, 8);
        for tc in TranscoderSpec::ALL {
            let short = [Base::A; 2];
            assert!(matches!(
                tc.decode_symbol(&short, 1, g),
                Err(StrandError::LengthMismatch { .. })
            ));
        }
    }
}
