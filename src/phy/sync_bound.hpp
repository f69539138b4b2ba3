// Bound-then-verify preamble detection: a cheap, provably conservative
// pre-check of the receiver's segmented sync correlation.
//
// FskReceiver sweeps dsp::kernels::segmented_sync_correlation over every
// lag near a power step, but only a lag at or above detect_threshold can
// ever steer a decision. The kernel computes
//
//   corr = (|c0| + |c1| + ... + |c5|) / sqrt(max(E * Eref, 1e-30))
//
// over six segments with complex correlations c_s, signal energies E_s
// (E = sum) and reference energies Eref_s (Eref = sum). Segments 0 and 1
// come exactly from kernels::sync_corr_head. For the other four,
// Cauchy-Schwarz gives |c_s| <= sqrt(E_s * Eref_s), and Cauchy-Schwarz
// over the four segments gives
//
//   |c2| + ... + |c5| <= sqrt(E_tail) * sqrt(Eref_tail).
//
// E_tail comes from a BlockEnergyPlane (whole per-symbol blocks plus the
// partial blocks at both ends summed from the samples), and E from
// e0 + e1 + E_tail. When the resulting upper bound on corr is below the
// threshold, the lag is settled without the kernel.
//
// Rounding. Every energy is a sum of non-negative terms, so any
// summation order is within n * 2^-53 (relative) of the exact sum; each
// computed |c_s| is within about 2n * 2^-53 of its Cauchy-Schwarz bound;
// with n <= 576 that is < 1e-13. A relative kEps = 1e-9 on each side of
// the comparison absorbs all of it, and any underflow error (absolute,
// <= n * 2^-1074) is negligible against the 1e-15 floor of the
// denominator. The comparison is written so that NaN or an infinite
// right-hand side never prunes: such lags go to the exact kernel.
#pragma once

#include <cstddef>
#include <vector>

namespace hs::phy {

/// Signal energy of a sample stream in blocks of `block` samples aligned
/// to absolute sample indices (block k covers [k * block, (k + 1) *
/// block)). Appended as samples arrive and trimmed with the receiver's
/// scan buffer, so it holds one double per `block` buffered samples —
/// a per-sample prefix plane would cost as much memory as a third plane
/// of the buffer. A window's energy reads the blocks it contains and sums
/// its partial blocks at both ends from the samples themselves.
class BlockEnergyPlane {
 public:
  explicit BlockEnergyPlane(std::size_t block);

  /// Empties the plane; the next appended sample has absolute index
  /// `origin`.
  void restart(std::size_t origin);

  /// Appends n samples (split planes) at the stream's end.
  void append(const double* re, const double* im, std::size_t n);

  /// Drops the complete blocks that end at or before absolute sample
  /// `before`.
  void trim(std::size_t before);

  /// Energy of absolute samples [from, to), where re/im point at sample
  /// `from`; from must not precede the last restart. Returns false when
  /// a block the window contains has been trimmed or is incomplete.
  bool energy(std::size_t from, std::size_t to, const double* re,
              const double* im, double* out) const;

 private:
  std::size_t block_;
  std::size_t first_ = 0;  ///< block index of blocks_[0]
  std::size_t next_ = 0;   ///< absolute index of the next sample
  double pending_ = 0.0;   ///< energy so far of the block holding next_
  std::vector<double> blocks_;  ///< complete blocks, first_ onwards
};

/// The reference-side constants of the bound for one sync reference.
class SyncCorrBound {
 public:
  /// Relative rounding allowance applied to each side of the comparison.
  static constexpr double kEps = 1e-9;

  /// `ref_energy` is the value the receiver passes to the exact kernel.
  SyncCorrBound(const double* ref_re, const double* ref_im,
                std::size_t ref_len, double ref_energy);

  /// Offset of segment 2, where the Cauchy-Schwarz tail starts.
  std::size_t tail_begin() const { return tail_begin_; }

  /// True only if segmented_sync_correlation(sig, ref, ref_len,
  /// ref_energy) is below `threshold`, given the energy of the signal
  /// samples [tail_begin(), ref_len) in any summation order. False means
  /// "unknown": the caller runs the exact kernel.
  bool below(const double* sig_re, const double* sig_im,
             const double* ref_re, const double* ref_im, double tail_energy,
             double threshold) const;

 private:
  std::size_t ref_len_;
  std::size_t tail_begin_;
  double sqrt_ref_energy_;
  double sqrt_tail_ref_energy_;
};

}  // namespace hs::phy
