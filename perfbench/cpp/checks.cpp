#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"

namespace perfbench {

using namespace poseidon;

double
precision_bits(double maxAbsErr)
{
    if (!(maxAbsErr > 0.0)) return 60.0;
    return std::min(60.0, -std::log2(maxAbsErr));
}

double
max_abs_err(const std::vector<cdouble> &a, const std::vector<cdouble> &b)
{
    double m = 0.0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        m = std::max(m, std::abs(a[i] - b[i]));
    }
    return a.size() == b.size() ? m : INFINITY;
}

namespace {

u64
fnv1a(u64 h, const u64 *words, std::size_t n)
{
    for (std::size_t t = 0; t < n; ++t) {
        u64 w = words[t];
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

u64
digest_ct(u64 h, const Ciphertext &c)
{
    for (std::size_t k = 0; k < c.num_limbs(); ++k) {
        h = fnv1a(h, c.c0.limb(k), c.degree());
        h = fnv1a(h, c.c1.limb(k), c.degree());
    }
    return h;
}

} // namespace

double
check_pinned_digest(Sheet &sheet)
{
    // Keep in step with tools/ckks_digest.cpp: any change here changes
    // the digest.
    CkksParams params;
    params.logN = 12;
    params.L = 6;
    params.scaleBits = 35;
    auto ctx = make_ckks_context(params);

    KeyGenerator keygen(ctx);
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, keygen.make_public_key());
    CkksEvaluator eval(ctx);
    KSwitchKey relin = keygen.make_relin_key();
    GaloisKeys galois = keygen.make_galois_keys({1, 2}, true);

    std::vector<cdouble> x, y;
    for (std::size_t i = 0; i < ctx->slots(); ++i) {
        double d = static_cast<double>(i);
        x.push_back({0.25 + d * 1e-3, -0.125 + d * 2e-3});
        y.push_back({1.5 - d * 1e-3, 0.0625 * (i % 7)});
    }
    Ciphertext cx = encryptor.encrypt(encoder.encode(x, params.L));
    Ciphertext cy = encryptor.encrypt(encoder.encode(y, params.L));

    u64 h = 1469598103934665603ull;
    h = digest_ct(h, cx);
    h = digest_ct(h, cy);
    h = digest_ct(h, eval.add(cx, cy));

    Ciphertext prod = eval.mul(cx, cy, relin);
    eval.rescale_inplace(prod);
    h = digest_ct(h, prod);

    h = digest_ct(h, eval.rotate(cx, 1, galois));
    h = digest_ct(h, eval.conjugate(cx, galois));

    Plaintext half = encoder.encode_scalar(0.5, cx.num_limbs());
    Ciphertext scaled = eval.mul_plain(cx, half);
    eval.rescale_inplace(scaled);
    h = digest_ct(h, scaled);

    Ciphertext deep = eval.mul(prod, scaled, relin);
    eval.rescale_inplace(deep);
    Ciphertext last = eval.rotate(deep, 2, galois);
    h = digest_ct(h, last);

    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    if (std::string(hex) == kPinnedDigest) {
        sheet.gate(std::string("ckks_digest = ") + hex);
    } else {
        sheet.violation(std::string("ckks_digest is ") + hex +
                        ", pinned " + kPinnedDigest);
    }

    // Float reference of the last ciphertext: 0.5 * x^2 * y, rotated
    // left by two slots.
    CkksDecryptor decryptor(ctx, keygen.secret_key());
    std::vector<cdouble> got = encoder.decode(decryptor.decrypt(last));
    std::size_t slots = ctx->slots();
    std::vector<cdouble> want(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        std::size_t j = (i + 2) % slots;
        want[i] = 0.5 * x[j] * x[j] * y[j];
    }
    return precision_bits(max_abs_err(got, want));
}

} // namespace perfbench
