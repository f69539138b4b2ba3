#include "phy/sync_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsp/kernels.hpp"

namespace hs::phy {

namespace {

// Both sums keep four interleaved partial sums: the order does not matter
// for the bound (non-negative terms), the short dependency chain does for
// speed.

double sum_blocks(const double* v, std::size_t n) {
  double a[4] = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a[0] += v[i];
    a[1] += v[i + 1];
    a[2] += v[i + 2];
    a[3] += v[i + 3];
  }
  for (; i < n; ++i) a[0] += v[i];
  return (a[0] + a[1]) + (a[2] + a[3]);
}

double sum_norms(const double* re, const double* im, std::size_t n) {
  double a[4] = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      a[l] += re[i + l] * re[i + l] + im[i + l] * im[i + l];
    }
  }
  for (; i < n; ++i) a[0] += re[i] * re[i] + im[i] * im[i];
  return (a[0] + a[1]) + (a[2] + a[3]);
}

}  // namespace

BlockEnergyPlane::BlockEnergyPlane(std::size_t block) : block_(block) {}

void BlockEnergyPlane::restart(std::size_t origin) {
  blocks_.clear();
  pending_ = 0.0;
  next_ = origin;
  first_ = origin / block_;
}

void BlockEnergyPlane::append(const double* re, const double* im,
                              std::size_t n) {
  while (n > 0) {
    const std::size_t take = std::min(n, block_ - next_ % block_);
    double e = pending_;
    for (std::size_t i = 0; i < take; ++i) e += re[i] * re[i] + im[i] * im[i];
    re += take;
    im += take;
    n -= take;
    next_ += take;
    if (next_ % block_ == 0) {
      blocks_.push_back(e);
      pending_ = 0.0;
    } else {
      pending_ = e;
    }
  }
}

void BlockEnergyPlane::trim(std::size_t before) {
  const std::size_t end_block = before / block_;
  if (end_block <= first_) return;
  const std::size_t drop = std::min(end_block - first_, blocks_.size());
  blocks_.erase(blocks_.begin(),
                blocks_.begin() + static_cast<std::ptrdiff_t>(drop));
  first_ += drop;
}

bool BlockEnergyPlane::energy(std::size_t from, std::size_t to,
                              const double* re, const double* im,
                              double* out) const {
  const std::size_t kb = (from + block_ - 1) / block_;  // first whole block
  const std::size_t ke = to / block_;                   // past the last
  if (kb >= ke) {
    *out = sum_norms(re, im, to - from);
    return true;
  }
  // A block starting at or after `from` (and so after the last restart)
  // saw all of its samples; only trimming or the stream end can hide it.
  if (kb < first_ || ke > first_ + blocks_.size()) return false;
  const std::size_t head = kb * block_ - from;
  const std::size_t tail = ke * block_ - from;
  *out = sum_blocks(blocks_.data() + (kb - first_), ke - kb) +
         sum_norms(re, im, head) +
         sum_norms(re + tail, im + tail, to - from - tail);
  return true;
}

SyncCorrBound::SyncCorrBound(const double* ref_re, const double* ref_im,
                             std::size_t ref_len, double ref_energy)
    : ref_len_(ref_len),
      tail_begin_(2 * (ref_len / 6)),  // segment stride of the kernel
      sqrt_ref_energy_(std::sqrt(ref_energy)) {
  double tail = 0.0;
  for (std::size_t i = tail_begin_; i < ref_len; ++i) {
    tail += ref_re[i] * ref_re[i] + ref_im[i] * ref_im[i];
  }
  sqrt_tail_ref_energy_ = std::sqrt(tail);
}

bool SyncCorrBound::below(const double* sig_re, const double* sig_im,
                          const double* ref_re, const double* ref_im,
                          double tail_energy, double threshold) const {
  const dsp::kernels::SyncCorrHead h =
      dsp::kernels::sync_corr_head(sig_re, sig_im, ref_re, ref_im, ref_len_);
  const double head = std::sqrt(h.c0_re * h.c0_re + h.c0_im * h.c0_im) +
                      std::sqrt(h.c1_re * h.c1_re + h.c1_im * h.c1_im);
  const double num =
      (head + std::sqrt(tail_energy) * sqrt_tail_ref_energy_) * (1.0 + kEps);
  // sqrt(E) * sqrt(Eref) rather than sqrt(E * Eref), so no finite
  // energy overflows here; an infinite or NaN side never prunes.
  const double energy = h.e0 + h.e1 + tail_energy;
  const double den = threshold *
                     std::max(std::sqrt(energy) * sqrt_ref_energy_, 1e-15) *
                     (1.0 - kEps);
  return num < den && den <= std::numeric_limits<double>::max();
}

}  // namespace hs::phy
