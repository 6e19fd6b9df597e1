//! Runtime kernel selection: the crate's one platform fork.
//!
//! GF(2^m≤8) slice products run the SSSE3 `_mm_shuffle_epi8`
//! nibble-table kernels when the CPU reports SSSE3 ([`kernel`] returns
//! [`Kernel::Ssse3`]), and the scalar byte-table loops otherwise — the
//! only path on targets without SSSE3. The choice depends on the CPU
//! alone: std caches the feature probe, so [`kernel`] costs one atomic
//! load. Both kernels are exact field arithmetic and byte-identical;
//! [`MulTable::mul_slice_in`](crate::MulTable::mul_slice_in) and
//! [`MulTable::mul_add_slice_in`](crate::MulTable::mul_add_slice_in)
//! run either one explicitly, which is how tests on an SSSE3 machine
//! reach the scalar loop.

/// A GF(2^m≤8) slice-kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The scalar byte-table loops.
    Scalar,
    /// SSSE3 nibble-table kernels (x86-64 with runtime-detected SSSE3).
    Ssse3,
}

/// The slice kernel this CPU runs: [`Kernel::Ssse3`] when it reports
/// SSSE3, [`Kernel::Scalar`] otherwise.
#[inline]
pub fn kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("ssse3") {
        return Kernel::Ssse3;
    }
    Kernel::Scalar
}
