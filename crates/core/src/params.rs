//! Codec geometry: field width, matrix shape, index width, strand layout.

use crate::StorageError;
use dna_gf::Field;
use dna_strand::{PayloadGeometry, TranscoderSpec};

/// Geometry of one encoding unit (paper §2.2, §6.1.1).
///
/// A unit is a matrix of `rows` × (`data_cols` + `parity_cols`) symbols
/// over GF(2^m): every column becomes one DNA molecule of
/// `index_bits/2 + rows·m/2` payload bases (plus optional primers), and
/// every codeword carries `parity_cols` parity symbols.
///
/// The paper's full-scale geometry is [`CodecParams::full_scale`] (GF(2^16),
/// 82 rows, 65535 columns, 18.4% redundancy — a 10.5MB unit); the default
/// experiments here use [`CodecParams::laptop`] (GF(2^8), same ratios,
/// 255 columns — a 6.1KB unit).
#[derive(Debug, Clone, PartialEq)]
pub struct CodecParams {
    field: Field,
    rows: usize,
    data_cols: usize,
    parity_cols: usize,
    index_bits: u8,
    primer_len: usize,
    transcoder: TranscoderSpec,
}

impl CodecParams {
    /// Creates a validated geometry.
    ///
    /// `parity_cols = 0` disables error correction entirely (the no-ECC
    /// mode of the paper's Fig. 16 ranking study).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when the column count
    /// exceeds the field's codeword length, the index cannot address all
    /// columns, or any dimension is degenerate.
    pub fn new(
        field: Field,
        rows: usize,
        data_cols: usize,
        parity_cols: usize,
        index_bits: u8,
    ) -> Result<CodecParams, StorageError> {
        let cols = data_cols + parity_cols;
        if rows == 0 || data_cols == 0 {
            return Err(StorageError::InvalidParams(
                "rows and data_cols must be positive".into(),
            ));
        }
        if parity_cols > 0 && cols > field.group_order() {
            return Err(StorageError::InvalidParams(format!(
                "{cols} columns exceed the RS codeword length {}",
                field.group_order()
            )));
        }
        if index_bits == 0 || !index_bits.is_multiple_of(2) || index_bits > 32 {
            return Err(StorageError::InvalidParams(format!(
                "index width {index_bits} must be even and within 2..=32"
            )));
        }
        if index_bits < 32 && (1u64 << index_bits) < cols as u64 {
            return Err(StorageError::InvalidParams(format!(
                "index width {index_bits} cannot address {cols} columns"
            )));
        }
        if !(rows * usize::from(field.width())).is_multiple_of(8) {
            return Err(StorageError::InvalidParams(format!(
                "rows ({rows}) × symbol width ({}) must be byte-aligned",
                field.width()
            )));
        }
        Ok(CodecParams {
            field,
            rows,
            data_cols,
            parity_cols,
            index_bits,
            primer_len: 0,
            transcoder: TranscoderSpec::Direct,
        })
    }

    /// The laptop-scale default: GF(2^8), 30 rows, 255 columns with 18.4%
    /// redundancy (E = 47), 8-bit index — the paper's §6.1.1 ratios at
    /// 1/256 of the unit size. Payload: 6240 bytes per unit; strands are
    /// 124 bases (4 index + 120 data).
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates [`StorageError::InvalidParams`].
    pub fn laptop() -> Result<CodecParams, StorageError> {
        CodecParams::new(Field::gf256(), 30, 208, 47, 8)
    }

    /// The paper's full-scale geometry: GF(2^16), 82 rows, 65535 columns
    /// (M = 53477, E = 12058 ≈ 18.4%), 16-bit index; 750-base strands with
    /// primers. One unit holds 8.77MB of data. Heavy — gate behind
    /// `DNA_REPRO_SCALE=full`.
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates [`StorageError::InvalidParams`].
    pub fn full_scale() -> Result<CodecParams, StorageError> {
        let mut p = CodecParams::new(Field::gf65536(), 82, 53477, 12058, 16)?;
        p.primer_len = 20;
        Ok(p)
    }

    /// A minimal GF(2^4) geometry for fast unit tests: 6 rows, 15 columns
    /// (M = 10, E = 5), 4-bit index; 30 bytes per unit.
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates [`StorageError::InvalidParams`].
    pub fn tiny() -> Result<CodecParams, StorageError> {
        CodecParams::new(Field::gf16(), 6, 10, 5, 4)
    }

    /// Builder-style: wrap strands in `len`-base primers on each side.
    pub fn with_primer_len(mut self, len: usize) -> CodecParams {
        self.primer_len = len;
        self
    }

    /// Builder-style: select the payload transcoder. Strand lengths
    /// ([`CodecParams::strand_payload_bases`] and everything derived from
    /// them) follow the transcoder's fixed rate.
    pub fn with_transcoder(mut self, transcoder: TranscoderSpec) -> CodecParams {
        self.transcoder = transcoder;
        self
    }

    /// The payload transcoder (byte → base layout between the primers).
    pub fn transcoder(&self) -> TranscoderSpec {
        self.transcoder
    }

    /// The logical payload shape handed to the transcoder.
    pub fn payload_geometry(&self) -> PayloadGeometry {
        PayloadGeometry {
            index_bits: self.index_bits,
            rows: self.rows,
            symbol_bits: self.symbol_bits(),
        }
    }

    /// The Galois field of the Reed–Solomon layer.
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// Symbol width in bits (m).
    pub fn symbol_bits(&self) -> u8 {
        self.field.width()
    }

    /// Rows per unit (S): symbols per molecule.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Data columns per unit (M): data molecules.
    pub fn data_cols(&self) -> usize {
        self.data_cols
    }

    /// Parity columns per unit (E): redundancy molecules.
    pub fn parity_cols(&self) -> usize {
        self.parity_cols
    }

    /// Total columns (M + E): molecules per unit.
    pub fn cols(&self) -> usize {
        self.data_cols + self.parity_cols
    }

    /// Redundancy fraction E / (M + E).
    pub fn redundancy(&self) -> f64 {
        self.parity_cols as f64 / self.cols() as f64
    }

    /// Width of the per-molecule ordering index, in bits.
    pub fn index_bits(&self) -> u8 {
        self.index_bits
    }

    /// Primer length per side, in bases (0 = no primers).
    pub fn primer_len(&self) -> usize {
        self.primer_len
    }

    /// Payload capacity of one unit, in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.rows * self.data_cols * usize::from(self.symbol_bits()) / 8
    }

    /// Length of the index + data portion of each strand, in bases,
    /// under the selected transcoder.
    pub fn strand_payload_bases(&self) -> usize {
        self.transcoder.payload_bases(self.payload_geometry())
    }

    /// Full strand length including primers, in bases.
    pub fn strand_bases(&self) -> usize {
        self.strand_payload_bases() + 2 * self.primer_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laptop_matches_paper_ratios() {
        let p = CodecParams::laptop().unwrap();
        assert_eq!(p.cols(), 255);
        assert!((p.redundancy() - 0.184).abs() < 0.001, "{}", p.redundancy());
        assert_eq!(p.payload_bytes(), 6240);
        assert_eq!(p.strand_payload_bases(), 4 + 120);
    }

    #[test]
    fn full_scale_matches_paper_exactly() {
        let p = CodecParams::full_scale().unwrap();
        assert_eq!(p.cols(), 65535);
        assert_eq!(p.rows(), 82);
        // §6.1.1: 18.4% redundancy, 8.7MB of data in a 10.5MB unit.
        assert!((p.redundancy() - 0.184).abs() < 0.001);
        assert_eq!(p.payload_bytes(), 8_770_228);
        // 82 symbols × 8 bases + 8 index bases = 664 payload bases,
        // plus 2 × 20 primer bases.
        assert_eq!(p.strand_bases(), 664 + 40);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(CodecParams::new(Field::gf16(), 6, 20, 5, 6).is_err()); // 25 > 15
        assert!(CodecParams::new(Field::gf16(), 0, 10, 5, 4).is_err());
        assert!(CodecParams::new(Field::gf16(), 6, 10, 5, 2).is_err()); // 4 < 15 cols
        assert!(CodecParams::new(Field::gf16(), 6, 10, 5, 5).is_err()); // odd index
        assert!(CodecParams::new(Field::gf16(), 5, 10, 5, 4).is_err()); // 5×4 bits not byte-aligned
    }

    #[test]
    fn no_ecc_mode_is_allowed() {
        // E = 0 bypasses the RS length limit (no codewords exist).
        let p = CodecParams::new(Field::gf256(), 30, 300, 0, 10).unwrap();
        assert_eq!(p.parity_cols(), 0);
        assert_eq!(p.cols(), 300);
    }

    #[test]
    fn primer_builder_extends_strands() {
        let p = CodecParams::tiny().unwrap().with_primer_len(12);
        assert_eq!(p.strand_bases(), p.strand_payload_bases() + 24);
    }

    #[test]
    fn transcoder_choice_drives_strand_length() {
        let p = CodecParams::laptop().unwrap();
        assert_eq!(p.transcoder(), TranscoderSpec::Direct);
        assert_eq!(p.strand_payload_bases(), 124);
        // 6 trits for the 8-bit index + 30 × 6 trits = 186 data trits,
        // plus ⌊186/8⌋ = 23 balance bases.
        let trellis = p.clone().with_transcoder(TranscoderSpec::Trellis);
        assert_eq!(trellis.strand_payload_bases(), 209);
        // Direct layout + ⌈124/4⌉-base corrective pad.
        let padded = p.with_transcoder(TranscoderSpec::GcPadded);
        assert_eq!(padded.strand_payload_bases(), 155);
    }
}
