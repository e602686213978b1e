#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

/**
 * @file
 * Correctness gates shared by every workload.
 */

#include <complex>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// The pinned digest of the tools/ckks_digest pipeline.
inline constexpr const char *kPinnedDigest = "fcec5ef8f6db319d";

/// -log2 of a max-abs error (capped at 60 bits for an exact result).
double precision_bits(double maxAbsErr);

/// Max |a_i - b_i| over two equally long slot vectors.
double max_abs_err(const std::vector<std::complex<double>> &a,
                   const std::vector<std::complex<double>> &b);

/**
 * Recompute the ckks_digest pipeline (same parameters, seeds and op
 * sequence as tools/ckks_digest) and gate its FNV-1a digest against
 * kPinnedDigest. Also decrypts the pipeline's last ciphertext against
 * its float reference and returns that precision in bits.
 */
double check_pinned_digest(Sheet &sheet);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H_
