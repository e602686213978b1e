#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The three benchmark workloads (see perfbench/README.md for why each
 * exists) and the seeded input generator they share.
 */

#include <cmath>
#include <cstdint>

#include "ckks/keys.h"
#include "harness.h"

namespace perfbench {

/// Encrypted logistic-regression training with bootstrapping, logN=11.
void run_helr_boot(const Options &opt, Sheet &sheet);

/// Client/server request loop at a large ring, logN=15.
void run_ckks_client(const Options &opt, Sheet &sheet);

/// Multi-tenant job stream through the accelerator cluster model.
/// It decrypts nothing itself, so it reports the precision of the
/// pinned-digest pipeline the run already checked.
void run_model_fleet(const Options &opt, double digestPrecisionBits,
                     Sheet &sheet);

/// Bytes of one switching key's residues (both halves of every piece).
inline double
key_bytes(const poseidon::KSwitchKey &k)
{
    double b = 0.0;
    for (const auto &p : k.pieces) {
        b += 8.0 * static_cast<double>(p.b.num_limbs() * p.b.degree() +
                                       p.a.num_limbs() * p.a.degree());
    }
    return b;
}

/// Deterministic input generator (splitmix64): the same (seed, salt)
/// gives the same stream on every platform.
class Rng
{
  public:
    Rng(std::uint64_t seed, std::uint64_t salt)
        : s_(seed * 0x9E3779B97F4A7C15ull ^ (salt + 0x632BE59BD9B4E019ull))
    {
        next();
    }

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /// Uniform double in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }

    /// Uniform integer in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /// Standard normal (Box-Muller).
    double
    gauss()
    {
        double u1 = unit();
        double u2 = unit();
        if (u1 < 1e-300) u1 = 1e-300;
        return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    }

  private:
    std::uint64_t s_;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
